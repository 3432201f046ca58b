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
from typing import Callable, Dict, List, Optional, Sequence

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


def _from_session(name: str, session, drive=None,
                  secret_drive=None, secret_values=(0, 1)) -> BuiltTarget:
    live = drive is not None or secret_drive is not None
    return BuiltTarget(
        name=name,
        program=session.program,
        config=session.config,
        claims=session.claims(),
        core=session.core if live else None,
        drive=drive,
        secret_drive=secret_drive,
        secret_values=secret_values,
    )


def _build_covert() -> BuiltTarget:
    from repro.core.covert import CovertChannel

    with no_preflight():
        chan = CovertChannel()

    def drive() -> None:
        for bit in (1, 0):
            chan._prime()
            chan._send(bit)
            chan._call("probe")

    def secret_drive(bit: int) -> None:
        chan.setup()
        chan._prime()
        chan._send(bit)
        chan._call("probe")

    return _from_session("covert", chan, drive, secret_drive)


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


def _build_smt() -> BuiltTarget:
    from repro.core.smtchannel import SMTChannel

    with no_preflight():
        chan = SMTChannel()

    def secret_drive(bit: int) -> None:
        chan.setup()
        chan._episode(bit)

    return _from_session("smt", chan, secret_drive=secret_drive)


def _build_spectre() -> BuiltTarget:
    from repro.core.transient import ARRAY_BYTES, UopCacheSpectreV1

    with no_preflight():
        attack = UopCacheSpectreV1(secret=b"!")

    def secret_drive(bit: int) -> None:
        attack.setup()
        attack._install_data()
        attack.core.write_mem(attack.core.addr_of("secret"), bit, size=1)
        attack._episode(ARRAY_BYTES, 0)  # out-of-bounds: secret[0] bit 0

    return _from_session("spectre", attack, secret_drive=secret_drive)


def _build_classic() -> BuiltTarget:
    from repro.core.transient import ARRAY_BYTES, ClassicSpectreV1

    with no_preflight():
        attack = ClassicSpectreV1(secret=b"!")

    def secret_drive(bit: int) -> None:
        # Classic v1 leaks through the data cache only: the taint
        # prediction is empty, and so must be the fill divergence.
        attack.setup()
        attack._install_secret()
        attack.core.write_mem(attack.core.addr_of("secret"), bit, size=1)
        attack._call("invoke_victim", regs={"r1": 16})  # in-bounds train
        attack._call("flush_all")
        attack._call("invoke_victim", regs={"r1": ARRAY_BYTES})
        attack._call("reload_all")

    return _from_session("classic", attack, secret_drive=secret_drive)


def _build_lfence() -> BuiltTarget:
    from repro.core.transient import LfenceBypass

    with no_preflight():
        attack = LfenceBypass()

    def secret_drive(bit: int) -> None:
        attack.setup()
        attack.attack_once("nf", bit, train_rounds=1)

    return _from_session("lfence", attack, secret_drive=secret_drive)


def _build_bti() -> BuiltTarget:
    from repro.core.bti import BranchTargetInjection

    with no_preflight():
        attack = BranchTargetInjection(secret=b"!")

    def secret_drive(bit: int) -> None:
        attack.setup()
        attack._install_secret()
        attack.core.write_mem(attack.core.addr_of("secret"), bit, size=1)
        attack._episode(0, 0)

    return _from_session("bti", attack, secret_drive=secret_drive)


def _build_crossdomain() -> BuiltTarget:
    from repro.core.crossdomain import CrossDomainChannel

    with no_preflight():
        chan = CrossDomainChannel()

    def secret_drive(bit: int) -> None:
        chan.setup()
        chan._send(bit)
        chan._call("probe")

    return _from_session("crossdomain", chan, secret_drive=secret_drive)


def _build_jumptable() -> BuiltTarget:
    from repro.core.transient import ARRAY_BYTES
    from repro.core.transient_multibit import JumpTableSpectre

    with no_preflight():
        attack = JumpTableSpectre(secret=b"!")

    def secret_drive(symbol: int) -> None:
        attack.setup()
        attack._install_data()
        attack.core.write_mem(attack.core.addr_of("secret"), symbol, size=1)
        attack._episode(ARRAY_BYTES, 0)

    # Differential over two symbols, exercising distinct jump-table
    # landing sites (send_1 vs send_2).
    return _from_session("jumptable", attack, secret_drive=secret_drive,
                         secret_values=(1, 2))


def _build_keyextract() -> BuiltTarget:
    from repro.core.keyextract import ModexpVictim

    with no_preflight():
        # Full nbits keeps the static surface identical to the shipped
        # driver; fewer spy samples keep the live XC004 episode fast
        # (the spy's sample count never touches the victim's layout).
        victim = ModexpVictim(spy_samples=40)

    def secret_drive(key: int) -> None:
        victim.setup()
        victim.run_pair(key)

    # The all-zeros key never takes the multiply arm and the all-ones
    # key always does, so the divergence between the two runs is
    # exactly the square-and-multiply fetch difference.  (Adjacent
    # keys such as 0x8000/0x8001 both fetch every path at least once
    # and are indistinguishable at the event-*set* level.)
    return _from_session("keyextract", victim, secret_drive=secret_drive,
                         secret_values=(0, 0xFFFF))


def _build_contention_itlb() -> BuiltTarget:
    from repro.contention.channels import ITLBChannel

    with no_preflight():
        chan = ITLBChannel()

    def secret_drive(bit: int) -> None:
        chan.setup()
        chan._episode(bit)

    return _from_session("contention-itlb", chan, secret_drive=secret_drive)


def _build_contention_sb() -> BuiltTarget:
    from repro.contention.channels import StoreBufferChannel

    with no_preflight():
        chan = StoreBufferChannel()

    def secret_drive(bit: int) -> None:
        chan.setup()
        chan._episode(bit)

    return _from_session("contention-sb", chan, secret_drive=secret_drive)


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


#: Every target ``--all`` lints, in report order.
TARGETS: Dict[str, Callable[[], BuiltTarget]] = {
    "tigerzebra": _build_tigerzebra,
    "covert": _build_covert,
    "smt": _build_smt,
    "crossdomain": _build_crossdomain,
    "spectre": _build_spectre,
    "classic": _build_classic,
    "lfence": _build_lfence,
    "bti": _build_bti,
    "jumptable": _build_jumptable,
    "keyextract": _build_keyextract,
    "contention-itlb": _build_contention_itlb,
    "contention-sb": _build_contention_sb,
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
