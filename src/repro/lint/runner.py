"""Lint targets and the ``python -m repro lint`` entry point's engine.

A *target* is one thing the linter knows how to build and check: a
shipped attack program (built through its driver with the preflight
disabled, so the runner sees the diagnostics instead of an exception),
the Listing-1 tiger/zebra demonstration, the synthetic gadget corpus,
or the driver sources themselves (AST rules only).  ``run_lint`` builds
the requested targets, runs the footprint rules and each target's claim
list over it, optionally diffs the static predictions against live
simulator events (:func:`repro.lint.crosscheck.live_check`), and folds
everything into a :class:`LintRun` that renders as text or JSON.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.drivers import DRIVERS
from repro.lint.crosscheck import LiveCheck, live_check
from repro.lint.diagnostics import Diagnostic, Severity, errors_of
from repro.lint.footprint import analyze
from repro.lint.gadgets import verify_claims
from repro.lint.rules import check_program, check_sources
from repro.lint.taint import TaintReport, verify_secret_claims
from repro.session import no_preflight


@dataclass
class BuiltTarget:
    """One buildable lint target, ready for analysis."""

    name: str
    program: Optional[object] = None  # repro.isa.program.Program
    config: Optional[object] = None  # repro.cpu.config.CPUConfig
    #: the target's claim list (see ``AttackSession.claims``); targets
    #: without a SecretClaim stay taint-silent
    claims: list = field(default_factory=list)
    #: live core + zero-arg driver for the cross-check mode; targets
    #: without one are static-only
    core: Optional[object] = None
    drive: Optional[Callable[[], None]] = None
    #: one-secret driver for the XC004 differential mode: called as
    #: ``secret_drive(value)`` once per value in ``secret_values``
    #: after a core reset; the observed fill divergence must stay
    #: inside the static taint prediction
    secret_drive: Optional[Callable[[int], None]] = None
    secret_values: tuple = (0, 1)
    #: source-scan targets have no program at all
    source_scan: bool = False
    #: findings computed by the builder itself (multi-program targets
    #: like ``contention-pairs``); the engine reports them verbatim
    prechecked: Optional[List[Diagnostic]] = None
    prechecked_regions: int = 0


# ----------------------------------------------------------------------
# target builders (driver imports stay inside: repro.core drivers import
# repro.lint for their claims, so module level would be a cycle)


def _build_driver(name: str, make=None) -> BuiltTarget:
    """A driver session built with the preflight off (by the registry,
    or by ``make``), linted with its own XC004 ``secret_episode``."""
    with no_preflight():
        session = (make or DRIVERS[name].make)()

    def drive() -> None:
        for bit in (1, 0):
            session._episode(bit)

    return BuiltTarget(
        name=name,
        program=session.program,
        config=session.config,
        claims=session.claims(),
        core=session.core,
        drive=drive if name in CROSS_CHECK_TARGETS else None,
        secret_drive=session.secret_episode,
        secret_values=session.secret_values,
    )


def _build_tigerzebra() -> BuiltTarget:
    """The paper's Listing 1: probe + tiger + zebra, no driver."""
    from repro.core.exploitgen import (
        FootprintSpec,
        emit_chain,
        emit_probe,
        striped_sets,
    )
    from repro.cpu.config import CPUConfig
    from repro.cpu.core import Core
    from repro.isa.assembler import Assembler
    from repro.lint.gadgets import ChainClaim, PairClaim

    from repro.lint.taint import SecretClaim

    config = CPUConfig.skylake()
    tiger_sets = striped_sets(8)
    zebra_sets = striped_sets(8, offset=2)
    probe_spec = FootprintSpec(tiger_sets, 6, 0x44_0000)
    tiger_spec = FootprintSpec(tiger_sets, 6, 0x48_0000)
    zebra_spec = FootprintSpec(zebra_sets, 6, 0x4C_0000)
    asm = Assembler()
    asm.reserve("probe_result", 8)
    emit_probe(asm, "probe", probe_spec, "probe_result")
    emit_chain(asm, "tiger", tiger_spec)
    emit_chain(asm, "zebra", zebra_spec)
    program = asm.assemble(entry="probe")
    core = Core(config, program)

    def drive() -> None:
        for label in ("probe", "tiger", "probe", "zebra", "probe"):
            core.call(label)

    def secret_drive(bit: int) -> None:
        core.call("probe")
        core.call("tiger" if bit else "zebra")
        core.call("probe")

    return BuiltTarget(
        name="tigerzebra",
        program=program,
        config=config,
        claims=[
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("tiger", tiger_spec, "tiger"),
            ChainClaim("zebra", zebra_spec, "zebra"),
            PairClaim("tiger", "probe", "conflict"),
            PairClaim("zebra", "probe", "disjoint"),
            SecretClaim(name="bit", entries=("tiger", "zebra"),
                        leaks_to=("dsb", "itlb")),
        ],
        core=core,
        drive=drive,
        secret_drive=secret_drive,
    )


def _modexp_victim():
    """The key extraction's victim/spy pair, not the registry's 8-bit
    extractor: the full 16 bits keep the static surface identical to
    the shipped driver, and fewer spy samples keep the live XC004
    episode fast (the spy's sample count never touches the victim's
    layout)."""
    from repro.core.keyextract import ModexpVictim

    return ModexpVictim(spy_samples=40)


def _build_contention_pairs() -> BuiltTarget:
    """Lint one generated pair per claim-carrying resource.

    Each pair is its own program, so the findings are computed here
    (one analysis per pair) and handed to the engine pre-checked.
    """
    from repro.contention.templates import generate_pair

    findings: List[Diagnostic] = []
    regions = 0
    for resource in ("uop_cache", "itlb", "store_buffer", "btb"):
        for variant in ("conflict", "disjoint"):
            gen = generate_pair(resource, variant=variant)
            report = analyze(gen.program, gen.config)
            regions += len(report.regions)
            findings.extend(check_program(report))
            findings.extend(verify_claims(report, gen.claims))
    target = BuiltTarget(name="contention-pairs")
    target.prechecked = findings
    target.prechecked_regions = regions
    return target


def _build_corpus() -> BuiltTarget:
    from repro.core.gadgets import generate_corpus
    from repro.cpu.config import CPUConfig

    return BuiltTarget(
        name="corpus",
        program=generate_corpus(functions=40),
        config=CPUConfig.skylake(),
    )


def _build_sources() -> BuiltTarget:
    return BuiltTarget(name="sources", source_scan=True)


#: Every target ``--all`` lints, in report order.  The registry's
#: drivers keep their registry order; keyextract takes its slot there
#: but lints the victim/spy pair instead.
TARGETS: Dict[str, Callable[[], BuiltTarget]] = {
    "tigerzebra": _build_tigerzebra,
    **{name: partial(_build_driver, name) for name in DRIVERS},
    "keyextract": partial(_build_driver, "keyextract", _modexp_victim),
    "contention-pairs": _build_contention_pairs,
    "corpus": _build_corpus,
    "sources": _build_sources,
}

#: Targets the cross-check mode drives (the rest stay static).
CROSS_CHECK_TARGETS = ("tigerzebra", "covert")


@dataclass
class TargetResult:
    """Lint outcome for one target."""

    name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    regions: int = 0
    elapsed: float = 0.0
    crosscheck: Optional[LiveCheck] = None
    #: taint-mode outputs (``--taint``): the static leak prediction
    #: and, for targets with a secret driver, the XC004 differential
    taint: Optional[TaintReport] = None
    secretcheck: Optional[LiveCheck] = None
    build_error: Optional[str] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return errors_of(self.diagnostics)

    @property
    def ok(self) -> bool:
        return self.build_error is None and not self.errors

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            out[str(diag.severity)] += 1
        return out

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "target": self.name,
            "ok": self.ok,
            "regions": self.regions,
            "elapsed_s": round(self.elapsed, 4),
            "counts": self.counts(),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
        if self.crosscheck is not None:
            data["crosscheck"] = self.crosscheck.as_dict()
        if self.taint is not None:
            data["taint"] = self.taint.as_dict()
        if self.secretcheck is not None:
            data["secretcheck"] = self.secretcheck.as_dict()
        if self.build_error is not None:
            data["build_error"] = self.build_error
        return data


@dataclass
class LintRun:
    """One complete lint invocation over a set of targets."""

    results: List[TargetResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "elapsed_s": round(self.elapsed, 4),
            "targets": [r.as_dict() for r in self.results],
        }

    def render(self, show_info: bool = False) -> str:
        """Human-readable report, one block per target."""
        lines: List[str] = []
        for result in self.results:
            counts = result.counts()
            head = (
                f"{result.name}: "
                f"{counts['error']} error(s), "
                f"{counts['warning']} warning(s), "
                f"{counts['info']} info"
            )
            if result.regions:
                head += f", {result.regions} region(s)"
            head += f"  [{result.elapsed:.2f}s]"
            lines.append(head)
            if result.build_error is not None:
                lines.append(f"  build failed: {result.build_error}")
            for diag in result.diagnostics:
                if diag.severity is Severity.INFO and not show_info:
                    continue
                lines.append(f"  {diag.format()}")
            if result.crosscheck is not None:
                lines.append(f"  cross-check: {result.crosscheck.summary()}")
            if result.taint is not None:
                lines.append(
                    f"  taint: {len(result.taint.leaks)} claim(s), "
                    f"{len(result.taint.regions)} secret-dependent "
                    f"region(s), capacity <= "
                    f"{result.taint.capacity_bits:.1f} bit(s)"
                )
            if result.secretcheck is not None:
                lines.append(
                    f"  secret-check: {result.secretcheck.summary()}"
                )
        total_err = sum(r.counts()["error"] for r in self.results)
        total_err += sum(1 for r in self.results if r.build_error)
        verdict = "clean" if self.ok else f"{total_err} error(s)"
        lines.append(
            f"lint: {len(self.results)} target(s), {verdict} "
            f"[{self.elapsed:.2f}s]"
        )
        return "\n".join(lines)


def lint_target(
    name: str,
    builder: Callable[[], BuiltTarget],
    cross: bool = False,
    taint: bool = False,
) -> TargetResult:
    """Build and lint one target; build crashes become the result.

    A build failure is reported both as ``build_error`` (the traceback,
    for humans) and as a structured LT001 error diagnostic, so JSON
    consumers and exit-code logic see it through the same catalog path
    as every other finding.
    """
    start = time.perf_counter()
    result = TargetResult(name=name)
    try:
        target = builder()
        if target.source_scan:
            result.diagnostics = check_sources()
        elif target.prechecked is not None:
            result.diagnostics = list(target.prechecked)
            result.regions = target.prechecked_regions
        else:
            report = analyze(target.program, target.config)
            result.regions = len(report.regions)
            result.diagnostics = check_program(report)
            result.diagnostics.extend(verify_claims(report, target.claims))
            if cross and target.drive is not None:
                result.crosscheck = live_check(
                    target.core, target.drive, report.fill_prediction()
                )
                result.diagnostics.extend(result.crosscheck.diagnostics())
            if taint:
                result.taint = verify_secret_claims(report, target.claims)
            if result.taint is not None:
                result.diagnostics.extend(result.taint.diagnostics)
                if target.secret_drive is not None:
                    result.secretcheck = live_check(
                        target.core, target.secret_drive,
                        result.taint.prediction(),
                        secrets=target.secret_values,
                    )
                    result.diagnostics.extend(
                        result.secretcheck.diagnostics()
                    )
    except Exception as exc:
        result.build_error = traceback.format_exc(limit=3).strip()
        result.diagnostics.append(Diagnostic(
            "LT001",
            f"target {name!r} failed to build: "
            f"{type(exc).__name__}: {exc}",
        ))
    result.elapsed = time.perf_counter() - start
    return result


def run_lint(
    names: Optional[Sequence[str]] = None, cross: bool = False,
    taint: bool = False,
) -> LintRun:
    """Lint the named targets (default: all of them).

    ``cross=True`` additionally drives the targets in
    :data:`CROSS_CHECK_TARGETS` against the live simulator and diffs
    every observed fill (XC001 on divergence).

    ``taint=True`` runs the secret-flow taint analysis over every
    target that declares :class:`~repro.lint.taint.SecretClaim`s, and
    -- for targets with a secret driver -- the XC004 differential:
    the target runs once per secret value and the live fill divergence
    must stay inside the static prediction.
    """
    if names:
        unknown = [n for n in names if n not in TARGETS]
        if unknown:
            raise KeyError(
                f"unknown lint target(s) {unknown}; "
                f"known: {', '.join(TARGETS)}"
            )
        selected = list(names)
    else:
        selected = list(TARGETS)
    start = time.perf_counter()
    run = LintRun()
    for name in selected:
        do_cross = cross and name in CROSS_CHECK_TARGETS
        run.results.append(
            lint_target(name, TARGETS[name], cross=do_cross, taint=taint)
        )
    run.elapsed = time.perf_counter() - start
    return run
