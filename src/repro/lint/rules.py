"""The lint rule engine: program rules over a footprint report, plus
AST-based determinism rules over the driver sources.

Program rules (UC0xx) consume a
:class:`~repro.lint.footprint.FootprintReport` and never touch a
simulator.  Determinism rules (DT0xx) parse the ``repro`` sources with
:mod:`ast` and flag nondeterminism that would make experiment results
unreproducible or poison the content-addressed result cache.
"""

from __future__ import annotations

import ast
from bisect import bisect_left
from collections import deque
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.isa.instruction import BranchKind, MacroOp
from repro.isa.program import Program
from repro.lint.diagnostics import Diagnostic
from repro.lint.footprint import FootprintReport, RegionFootprint

#: A "hot loop" for UC006: a backward conditional branch whose body
#: spans at most this many bytes.  Wider spans are treated as generic
#: control flow, not a loop body worth warning about.
HOT_LOOP_SPAN = 512

#: BFS bound for the UC007 timing-window search, in regions.  A probe
#: chain touches sets*ways regions (<= 512 on the largest preset), so
#: this comfortably covers real windows without letting a pathological
#: graph blow up.
TIMING_WINDOW_DEPTH = 1024

#: Sort key of the address-ordered instruction list, for bisecting it.
_ADDR = attrgetter("addr")


# ----------------------------------------------------------------------
# program rules


def _uncacheable_reason(fp: RegionFootprint, uops_per_line: int) -> str:
    """Human explanation of why ``build_lines`` refused this region."""
    bad = [m for m in fp.macros if not m.cacheable]
    if bad:
        names = ", ".join(sorted({m.mnemonic for m in bad}))
        return f"contains non-cacheable instruction(s): {names}"
    wide = [
        m for m in fp.macros
        if not m.msrom and m.slot_count > uops_per_line
    ]
    if wide:
        return (
            f"macro-op {wide[0].mnemonic!r} needs {wide[0].slot_count} "
            f"slots, more than one {uops_per_line}-slot line"
        )
    return (
        f"{sum(m.slot_count for m in fp.macros)} slots over "
        f"{len(fp.macros)} macro-ops exceeds the region line budget"
    )


def _rule_cacheability(report: FootprintReport) -> List[Diagnostic]:
    """UC001 + UC002: regions that never enter the cache."""
    out: List[Diagnostic] = []
    upl = report.config.uops_per_line
    for entry in sorted(report.regions):
        fp = report.regions[entry]
        if fp.cacheable:
            continue
        out.append(
            Diagnostic(
                "UC001",
                f"region at entry {fp.entry:#x} is not cacheable: "
                f"{_uncacheable_reason(fp, upl)}",
                addr=fp.entry,
                label=fp.label,
            )
        )
    # UC002 looks at instructions directly: a too-wide macro-op poisons
    # every walk that includes it, so anchor the error on the macro.
    seen: Set[int] = set()
    for macro in report.program.iter_instructions():
        if macro.msrom or macro.addr in seen:
            continue
        if macro.slot_count > upl:
            seen.add(macro.addr)
            out.append(
                Diagnostic(
                    "UC002",
                    f"{macro.mnemonic!r} decodes to {macro.slot_count} "
                    f"slots but a line holds {upl}; rule 3 forbids "
                    f"spanning, so no region containing it can cache",
                    addr=macro.addr,
                )
            )
    return out


def _rule_wild_branches(report: FootprintReport) -> List[Diagnostic]:
    """UC010: direct branches into holes."""
    out: List[Diagnostic] = []
    for branch_addr, target in report.wild_branches():
        out.append(
            Diagnostic(
                "UC010",
                f"direct branch at {branch_addr:#x} targets {target:#x}, "
                f"where no instruction starts",
                addr=branch_addr,
            )
        )
    return out


def _rule_unresolved(report: FootprintReport) -> List[Diagnostic]:
    """UC009: coverage notes for indirect exits."""
    out: List[Diagnostic] = []
    for fp in report.unresolved_exits():
        term = fp.terminator
        out.append(
            Diagnostic(
                "UC009",
                f"{term.mnemonic} at {term.addr:#x} leaves the static "
                f"walk; footprints past it rely on label seeding",
                addr=term.addr,
                label=fp.label,
            )
        )
    return out


def _rule_lcp_loops(report: FootprintReport) -> List[Diagnostic]:
    """UC006: length-changing prefixes inside tight backward loops.

    One diagnostic per loop head (not per LCP site) keeps the report
    readable when a tiger deliberately stacks prefixes.
    """
    out: List[Diagnostic] = []
    program = report.program
    instrs = list(program.iter_instructions())
    reported: Set[int] = set()
    for macro in instrs:
        if macro.branch_kind is not BranchKind.JCC or macro.target is None:
            continue
        head = macro.target
        if not head <= macro.addr or macro.end - head > HOT_LOOP_SPAN:
            continue
        if head in reported:
            continue
        body = [
            m for m in instrs[
                bisect_left(instrs, head, key=_ADDR):
                bisect_left(instrs, macro.end, key=_ADDR)
            ]
            if m.lcp_count
        ]
        sites = sum(m.lcp_count for m in body)
        if not sites:
            continue
        reported.add(head)
        out.append(
            Diagnostic(
                "UC006",
                f"loop [{head:#x}, {macro.end:#x}) carries {sites} "
                f"length-changing prefix(es) over {len(body)} "
                f"instruction(s); every MITE iteration pays the "
                f"predecode stall",
                addr=head,
                label=report.regions.get(head, None)
                and report.regions[head].label,
            )
        )
    return out


def _rule_msrom_in_window(report: FootprintReport) -> List[Diagnostic]:
    """UC007: microcoded lines between a probe's RDTSC pair.

    A region is "inside a timing window" when it is forward-reachable
    from an RDTSC region and can itself reach another RDTSC region
    (without crossing further timers).  Any MSROM line there inflates
    every sample the probe takes.
    """
    regions = report.regions
    timers = [e for e, fp in regions.items() if fp.has_rdtsc]
    if len(timers) < 2:
        return []
    # reverse edges once, restricted to analyzed entries
    rev: Dict[int, List[int]] = {}
    for entry, fp in regions.items():
        for nxt in fp.successors:
            if nxt in regions:
                rev.setdefault(nxt, []).append(entry)

    out: List[Diagnostic] = []
    flagged: Set[int] = set()
    for opener in timers:
        # forward sweep, stopping at (but recording) other timers
        fwd: Set[int] = set()
        closers: Set[int] = set()
        queue = deque(
            n for n in regions[opener].successors if n in regions
        )
        steps = 0
        while queue and steps < TIMING_WINDOW_DEPTH:
            steps += 1
            cur = queue.popleft()
            if cur in fwd:
                continue
            fwd.add(cur)
            if regions[cur].has_rdtsc:
                closers.add(cur)
                continue
            queue.extend(
                n for n in regions[cur].successors if n in regions
            )
        if not closers:
            continue
        # backward sweep from the closers, inside the forward set
        window: Set[int] = set()
        queue = deque(closers)
        while queue:
            cur = queue.popleft()
            for prev in rev.get(cur, ()):
                if prev in fwd and prev not in window:
                    window.add(prev)
                    queue.append(prev)
        for entry in sorted(window):
            fp = regions[entry]
            if fp.msrom_lines and entry not in flagged:
                flagged.add(entry)
                out.append(
                    Diagnostic(
                        "UC007",
                        f"region at {entry:#x} contributes "
                        f"{fp.msrom_lines} MSROM line(s) inside the "
                        f"timing window opened at {opener:#x}",
                        addr=entry,
                        label=fp.label,
                    )
                )
    return out


def _rule_imm64(report: FootprintReport) -> List[Diagnostic]:
    """UC008: 64-bit immediates that cost the region an extra line."""
    out: List[Diagnostic] = []
    upl = report.config.uops_per_line
    for entry in sorted(report.regions):
        fp = report.regions[entry]
        if not fp.cacheable or not fp.imm64_uops:
            continue
        uop_lines = -(-sum(m.uop_count for m in fp.macros) // upl)
        slot_lines = -(-fp.slot_count // upl)
        if slot_lines <= uop_lines:
            continue
        out.append(
            Diagnostic(
                "UC008",
                f"{fp.imm64_uops} two-slot immediate(s) grow the region "
                f"from {uop_lines} to {slot_lines} line(s)",
                addr=fp.entry,
                label=fp.label,
            )
        )
    return out


def check_program(report: FootprintReport) -> List[Diagnostic]:
    """Run every program rule over an analyzed footprint report."""
    out: List[Diagnostic] = []
    out.extend(_rule_cacheability(report))
    out.extend(_rule_wild_branches(report))
    out.extend(_rule_lcp_loops(report))
    out.extend(_rule_msrom_in_window(report))
    out.extend(_rule_imm64(report))
    out.extend(_rule_unresolved(report))
    return out


# ----------------------------------------------------------------------
# determinism rules (AST over the repro sources)

#: Modules whose nondeterminism breaks experiment reproducibility.
_DRIVER_DIRS = ("core", "session", "harness")

#: Call roots that poison cache-key construction (DT002).
_NONDET_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
    ("os", "urandom"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
}

#: Functions in the harness allowed to read the clock: runtime
#: *measurement* is fine, key *construction* is not.
_DT002_EXEMPT_FUNCS = {"run", "execute", "elapsed", "now", "main"}


def _dotted(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``module.attr`` call target as a pair, if that shape."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    return None


def _enclosing_function(
    tree: ast.Module, lineno: int
) -> Optional[str]:
    """Name of the innermost function containing ``lineno``."""
    best: Optional[str] = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= lineno <= end:
                best = node.name
    return best


def _scan_module_dt(path: Path, rel: str) -> List[Diagnostic]:
    """DT001/DT002 findings for one source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return []
    out: List[Diagnostic] = []
    is_cache_layer = rel.startswith("harness/")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _dotted(node.func)
        if target is None:
            continue
        mod, attr = target
        # DT001: unseeded RNG construction or module-level random.*
        if mod == "random":
            if attr == "Random" and not node.args and not node.keywords:
                out.append(
                    Diagnostic(
                        "DT001",
                        f"random.Random() constructed without a seed",
                        context=f"{rel}:{node.lineno}",
                    )
                )
            elif attr in (
                "random", "randrange", "randint", "choice", "shuffle",
                "sample", "gauss",
            ):
                out.append(
                    Diagnostic(
                        "DT001",
                        f"module-level random.{attr}() draws from the "
                        f"shared unseeded generator",
                        context=f"{rel}:{node.lineno}",
                    )
                )
        # DT002: wall-clock / uuid / urandom in the caching layer
        if is_cache_layer and (mod, attr) in _NONDET_CALLS:
            func = _enclosing_function(tree, node.lineno)
            if func in _DT002_EXEMPT_FUNCS:
                continue
            out.append(
                Diagnostic(
                    "DT002",
                    f"{mod}.{attr}() in {func or '<module>'}() can leak "
                    f"into job identity; cache keys must be pure",
                    context=f"{rel}:{node.lineno}",
                )
            )
    return out


def check_sources(root: Optional[Path] = None) -> List[Diagnostic]:
    """Run the determinism rules over the driver/harness sources.

    ``root`` defaults to the installed ``repro`` package directory.
    """
    if root is None:
        root = Path(__file__).resolve().parents[1]
    out: List[Diagnostic] = []
    for sub in _DRIVER_DIRS:
        subdir = root / sub
        if not subdir.is_dir():
            continue
        for path in sorted(subdir.glob("*.py")):
            rel = f"{sub}/{path.name}"
            out.extend(_scan_module_dt(path, rel))
    return out
