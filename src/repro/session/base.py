"""The attack-session layer: one lifecycle for every attack driver.

Every attack in the paper -- the tiger/zebra covert channels
(Section V), the Spectre variants (Section VI) and the key extraction
(Section VI-B) -- shares the same skeleton: build a program, construct
a core, prime/send/probe, calibrate a timing threshold, classify.
:class:`AttackSession` owns that skeleton once, so the eight drivers
in :mod:`repro.core` shrink to their program builder plus send/probe
hooks and none of the glue can drift between copies.  The two
protocols on top of it are written once too: every covert channel is a
:class:`repro.session.channel.ChannelSession` (calibrate, send_bits,
transmit), and every Spectre driver is a
:class:`repro.session.transient.TransientSession` (leak, leak_symbol).

The layer also owns the core's *lifecycle*: repeated trials reuse one
``Core`` through :meth:`AttackSession.reset` instead of re-assembling
and rebuilding per trial.  ``Core.reset()`` restores the
post-construction state exactly (the reset-parity tests assert
byte-identical trials) while keeping the assembled program and the
front end's memoized region decodes -- which is where the trial
throughput comes from (see ``benchmarks/test_speed_bench.py``).

Subclass contract::

    class MyAttack(AttackSession):
        def __init__(self, ..., config=None, noise=None):
            self.knob = ...              # anything build_program needs
            super().__init__(config or CPUConfig.skylake(), noise)

        def build_program(self):         # required
            ...
            self._claims = [...]         # optional: the layout's claims
        def setup(self):                 # optional: post-assembly pokes
            ...                          # (re-applied after every reset)
        def secret_episode(self, value): # optional: lint's XC004 run
            ...                          # (over ``secret_values``)

:meth:`AttackSession.claims` returns the one list of static claims the
driver makes about its layout (gadget chains and their pairs, iTLB
pages, store sites, secrets; see :mod:`repro.lint`).  Drivers assign
``self._claims`` in ``build_program`` -- where the footprint specs
live; construction verifies the list unless the building thread is
inside :func:`no_preflight`.

``setup()`` exists because some drivers patch memory after assembly
(function-pointer tables, planted calibration bytes); a reset re-images
memory from the program, so those pokes must be re-applied through the
hook rather than inline in ``__init__``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.timing import ProbeTiming, TimingClassifier
from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.cpu.counters import PerfCounters
from repro.cpu.noise import NoiseModel
from repro.isa.program import Program

#: Sentinel for ``reset(noise=...)``: "keep the current model".
_KEEP_NOISE = object()

#: Per-thread preflight-suppression depth (see :func:`no_preflight`).
_preflight_suppressed = threading.local()


def preflight_suppressed() -> bool:
    """True while the *current thread* is inside :func:`no_preflight`."""
    return getattr(_preflight_suppressed, "depth", 0) > 0


@contextmanager
def no_preflight() -> Iterator[None]:
    """Build sessions without the construction-time lint preflight.

    Thread-local and re-entrant: suppression only affects sessions the
    current thread constructs, so a serve worker computing job keys in
    one thread cannot race another thread's lint-gated construction
    (the save/restore of a class-global flag did exactly that, leaving
    the preflight stuck off process-wide).  The lint runner and the
    synthesis pipeline both build through this -- they want diagnostics
    as data, not a raised ``LintError``.
    """
    _preflight_suppressed.depth = getattr(
        _preflight_suppressed, "depth", 0) + 1
    try:
        yield
    finally:
        _preflight_suppressed.depth -= 1


def read_elapsed(core: Core, addr: int) -> int:
    """Read a stored RDTSC delta, clamping wraparound to zero.

    With timer jitter two nearby RDTSC reads can appear to go
    backwards; the subtraction then wraps around 2^64.  Attackers
    clamp such garbage samples, and so do we.
    """
    value = core.read_mem(addr)
    if value >> 63:
        return 0
    return value


@dataclass
class AttackStats:
    """Outcome + cost of one complete leak (Table II columns)."""

    leaked: bytes
    secret: bytes
    total_cycles: int
    freq_ghz: float
    counters: PerfCounters

    @property
    def correct_bytes(self) -> int:
        """Bytes recovered exactly."""
        return sum(1 for a, b in zip(self.leaked, self.secret) if a == b)

    @property
    def byte_accuracy(self) -> float:
        """Fraction of secret bytes recovered."""
        return self.correct_bytes / len(self.secret) if self.secret else 0.0

    @property
    def bit_errors(self) -> int:
        """Bit-level errors across the secret."""
        errors = 0
        for a, b in zip(self.leaked, self.secret):
            errors += bin(a ^ b).count("1")
        return errors

    @property
    def seconds(self) -> float:
        """Simulated attack duration."""
        return self.total_cycles / (self.freq_ghz * 1e9)

    @property
    def bandwidth_kbps(self) -> float:
        """Leak rate in Kbit/s."""
        if not self.total_cycles:
            return 0.0
        return len(self.secret) * 8 / self.seconds / 1e3


class AttackSession:
    """Base class owning program build, core lifecycle, cycle
    accounting and calibration for one attack instance.

    Construction runs ``repro.lint`` over the freshly built program and
    refuses to hand back a session whose layout provably cannot do what
    :meth:`claims` says (raising :class:`repro.lint.LintError`) --
    failing in milliseconds instead of after a silently-flat
    experiment.  :func:`no_preflight` opts out.
    """

    #: The secrets lint's XC004 differential runs ``secret_episode``
    #: with (see :mod:`repro.lint.runner`).
    secret_values: tuple = (0, 1)

    def __init__(self, config: CPUConfig, noise: Optional[NoiseModel] = None):
        self.config = config
        self.noise = noise
        self._claims: list = []
        self.program = self.build_program()
        self.core = Core(config, self.program, noise=noise)
        self.total_cycles = 0
        self.timing: Optional[ProbeTiming] = None
        #: A ``TimingClassifier`` for the two-state channels; a transient
        #: driver may install any object with ``vote(samples)``.
        self.classifier: Optional[Any] = None
        #: Findings of the construction-time preflight (all severities);
        #: empty when the preflight is disabled.
        self.lint_findings: list = []
        #: Preflight taint analysis (``None`` until the preflight runs
        #: a driver that declares secrets).
        self.taint_report = None
        self.setup()
        if not preflight_suppressed():
            self._run_preflight()

    # ------------------------------------------------------------------
    # subclass hooks

    def build_program(self) -> Program:
        """Assemble the attack's program (called once, at construction)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Post-assembly state installation (e.g. function-pointer
        tables).  Runs after construction and after every
        :meth:`reset`; keep it idempotent and architectural-only."""

    def claims(self) -> list:
        """Every static claim the driver makes about its layout, in
        verification order: :class:`~repro.lint.ChainClaim` and
        :class:`~repro.lint.PairClaim` (µop-cache sets),
        :class:`~repro.lint.ITLBClaim` / :class:`~repro.lint.StoreClaim`
        / :class:`~repro.lint.ResourcePairClaim` (iTLB pages, store
        sites), then :class:`~repro.lint.SecretClaim` (where secrets
        live, for the taint pass).  Pair claims follow the claims they
        name.  Drivers assign ``self._claims`` in :meth:`build_program`.
        """
        return self._claims

    # ------------------------------------------------------------------
    # preflight

    def _run_preflight(self) -> None:
        """Statically verify the built program and the driver's claims.

        Imported lazily: ``repro.lint`` is a consumer of the session
        layer's drivers in its runner, so the dependency must stay
        runtime-only here.  The lint entry points are called through
        the module so instrumentation that wraps them sees every call.
        """
        from repro import lint

        report = lint.analyze(self.program, self.config)
        claims = self.claims()
        self.lint_findings = lint.check_program(report)
        self.lint_findings.extend(lint.verify_claims(report, claims))
        self.taint_report = lint.verify_secret_claims(report, claims)
        if self.taint_report is not None:
            self.lint_findings.extend(self.taint_report.diagnostics)
        errors = lint.errors_of(self.lint_findings)
        if errors:
            raise lint.LintError(errors)

    # ------------------------------------------------------------------
    # lifecycle

    def reset(self, noise=_KEEP_NOISE) -> None:
        """Return the session to its just-constructed state.

        Delegates to ``Core.reset()`` (which keeps the assembled
        program and decode memos), zeroes the cycle account, drops the
        fitted classifier, and re-runs :meth:`setup`.  By default the
        existing noise model is kept and rewound to its seed; pass a
        model (or ``None``) to swap it.
        """
        if noise is _KEEP_NOISE:
            self.core.reset()
        else:
            self.core.reset(noise=noise)
            self.noise = noise
        self.total_cycles = 0
        self.timing = None
        self.classifier = None
        self.setup()

    def run(self, trial: Callable[["AttackSession"], object],
            observe=None) -> object:
        """Run one ``trial(self)``, optionally under observation.

        ``observe`` attaches structured-event consumers for the
        duration of the trial and detaches them afterwards (collected
        data stays on the consumer).  Accepted forms:

        - an object with the ``connect(core)`` / ``close()`` protocol
          (:class:`repro.observe.TraceRecorder`,
          :class:`repro.observe.CounterSampler`, ...);
        - a bare callable, subscribed to every event kind;
        - a list/tuple mixing either.

        With ``observe=None`` (the default) no bus is attached and the
        core runs at full unobserved speed.
        """
        attached = self._attach_observers(observe)
        try:
            return trial(self)
        finally:
            self._detach_observers(attached)

    def run_trials(self, trial: Callable[["AttackSession"], object],
                   n: int, reset_between: bool = True,
                   observe=None) -> List[object]:
        """Run ``trial(self)`` ``n`` times, resetting the session
        before each so every trial starts from the identical
        post-construction state (cheap: no rebuild).

        ``observe`` attaches event consumers (see :meth:`run`) around
        the whole batch -- resets keep subscribers attached, so one
        consumer sees every trial.
        """
        attached = self._attach_observers(observe)
        try:
            results = []
            for _ in range(n):
                if reset_between:
                    self.reset()
                results.append(trial(self))
            return results
        finally:
            self._detach_observers(attached)

    def _attach_observers(self, observe) -> List[Tuple[str, object]]:
        if observe is None:
            return []
        items = list(observe) if isinstance(observe, (list, tuple)) else [observe]
        attached: List[Tuple[str, object]] = []
        for item in items:
            if hasattr(item, "connect"):
                item.connect(self.core)
                attached.append(("consumer", item))
            elif callable(item):
                self.core.observe().subscribe(item)
                attached.append(("fn", item))
            else:
                raise TypeError(
                    f"observe item {item!r} is neither a connectable "
                    "consumer nor a callable"
                )
        return attached

    def _detach_observers(self, attached: List[Tuple[str, object]]) -> None:
        for kind, item in attached:
            if kind == "consumer":
                item.close()
            elif self.core.observer is not None:
                self.core.observer.unsubscribe(item)

    # ------------------------------------------------------------------
    # cycle accounting (the one home for total_cycles)

    def _call(self, label: str, regs: Optional[Dict[str, int]] = None,
              thread_id: int = 0) -> PerfCounters:
        """Run ``label`` on one thread, charging its cycles to the
        session's account."""
        delta = self.core.call(label, thread_id=thread_id, regs=regs)
        self.total_cycles += self.core.cycles(thread_id)
        return delta

    def _run_smt(
        self,
        entries: Tuple,
        regs: Tuple[Optional[Dict[str, int]], Optional[Dict[str, int]]] = (None, None),
    ) -> Tuple[PerfCounters, PerfCounters]:
        """Run both SMT threads, charging the slower thread's cycles."""
        deltas = self.core.run_smt(entries, regs=regs)
        self.total_cycles += max(self.core.cycles(0), self.core.cycles(1))
        return deltas

    # ------------------------------------------------------------------
    # measurement glue

    def _elapsed(self, addr: int) -> int:
        """Read a stored RDTSC delta (wraparound-clamped)."""
        return read_elapsed(self.core, addr)

    def _probe_time(self, label: str = "probe",
                    result: str = "probe_result") -> int:
        """Run the timed probe and read back its RDTSC delta."""
        self._call(label)
        return self._elapsed(self.core.addr_of(result))

    def _pairs(self, rounds: int, episode: Callable[[int], object]
               ) -> Tuple[list, list]:
        """Calibration samples of both channel states: ``rounds`` times
        ``episode(0)`` then ``episode(1)``, in that order (the noise
        model's draws depend on it).  Returns ``(zeros, ones)``."""
        zeros, ones = [], []
        for _ in range(rounds):
            zeros.append(episode(0))
            ones.append(episode(1))
        return zeros, ones

    def _fit(self, hits: Sequence[float],
             misses: Sequence[float]) -> ProbeTiming:
        """Fit the hit/miss threshold from calibration samples and
        install the classifier."""
        self.timing = ProbeTiming(hits, misses)
        self.classifier = TimingClassifier.from_timing(self.timing)
        return self.timing
