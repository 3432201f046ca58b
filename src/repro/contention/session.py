"""One contention-matrix cell as an :class:`AttackSession`.

A cell is (resource, sharing mode, variant).  The sharing modes map
the paper's three attack scenarios (Section IV-B):

- ``"smt"``         -- attacker and victim co-resident on the two SMT
  threads of one physical core (``Core.run_smt``);
- ``"cross_domain"`` -- attacker kernel-resident, entered from user
  mode through a SYSCALL stub, serialised with the victim on thread 0;
- ``"time_sliced"`` -- attacker and victim time-share thread 0 at the
  same privilege.

The measurement discipline keeps baseline and contended runs
structurally identical: in SMT mode the baseline partner is the
generated ``attacker_idle`` spin loop (so SMT-mode fixed costs, e.g.
shared-decoder serialisation, cancel in the ratio); in the serial
modes the baseline run is preceded by an idle call just as the
contended run is preceded by the attacker call.  The *slowdown* is the
signed relative excess ``(contended - baseline) / baseline`` --
negative values are reported as-is, a disjoint cell hovering around
zero is the negative control working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import List, Optional, Tuple

from repro.contention.templates import GeneratedPair, generate_pair
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.session.base import AttackSession

MODES = ("smt", "cross_domain", "time_sliced")

#: Victim timed-loop iterations used under SMT sharing.  A concurrent
#: attacker needs hundreds of cycles to warm the contended structure
#: (MITE-decoding its footprint, walking its pages), so the victim
#: must still be running when the pressure arrives; serial modes keep
#: the templates' small defaults because the attacker runs to
#: completion *before* the victim is timed.
SMT_PASSES = {
    "uop_cache": 10,
    "itlb": 24,
    "dtlb": 16,
    "l1i": 16,
    "l1d": 16,
}


@dataclass
class CellResult:
    """Measured outcome of one (resource, mode, variant) cell."""

    resource: str
    mode: str
    variant: str
    baseline_cycles: float
    contended_cycles: float
    #: Signed relative excess; ~0 for working negative controls.
    slowdown: float
    trials: int
    #: Per-trial (baseline, contended) cycle pairs.
    samples: List[Tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "resource": self.resource,
            "mode": self.mode,
            "variant": self.variant,
            "baseline_cycles": self.baseline_cycles,
            "contended_cycles": self.contended_cycles,
            "slowdown": self.slowdown,
            "trials": self.trials,
            "samples": [list(s) for s in self.samples],
        }


class ContentionSession(AttackSession):
    """Drive one generated pair under one sharing mode."""

    def __init__(
        self,
        resource: str,
        mode: str,
        variant: str = "conflict",
        size: Optional[int] = None,
        stride: Optional[int] = None,
        trials: int = 3,
        passes: Optional[int] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if mode not in MODES:
            raise ConfigError(
                f"unknown sharing mode {mode!r}; choose from {MODES}"
            )
        self.resource = resource
        self.mode = mode
        self.variant = variant
        self.trials = trials
        domain = "kernel" if mode == "cross_domain" else "user"
        if passes is None and mode == "smt":
            passes = SMT_PASSES.get(resource)
        self.pair: GeneratedPair = generate_pair(
            resource, variant=variant, domain=domain,
            size=size, stride=stride, config=config, passes=passes,
        )
        super().__init__(self.pair.config, noise)

    def build_program(self) -> Program:
        self._claims = self.pair.claims
        return self.pair.program

    def setup(self) -> None:
        """Install the victim's circular pointer chain (dTLB/L1d
        templates), re-applied after every reset."""
        chain = self.pair.meta.get("pointer_chain")
        if chain:
            for i, addr in enumerate(chain):
                self.core.write_mem(addr, chain[(i + 1) % len(chain)])

    # ------------------------------------------------------------------

    def _victim_time(self, partner: str) -> int:
        """One victim run against ``partner``, returning its self-timed
        cycle count (the stored RDTSC delta)."""
        if self.mode == "smt":
            self._run_smt(("victim_work", partner))
        else:
            self._call(partner)
            self._call("victim_work")
        return self._elapsed(self.core.addr_of(self.pair.result_label))

    def measure(self, trials: Optional[int] = None) -> CellResult:
        """Measure the cell: per trial, reset, then time the victim in
        the *steady state* of each pairing -- one untimed warm run
        before each timed one, so the measured runs compare
        established footprints rather than the partner's one-off
        decode/fill costs (the paper's co-running loops measure the
        same steady state)."""
        n = trials if trials is not None else self.trials
        idle = self.pair.idle_label
        attacker = self.pair.attacker_label
        t0s: List[int] = []
        t1s: List[int] = []
        samples: List[Tuple[int, int]] = []
        for _ in range(n):
            self.reset()
            self._victim_time(idle)  # warm victim + baseline partner
            t0 = self._victim_time(idle)
            self._victim_time(attacker)  # warm the attacker's footprint
            t1 = self._victim_time(attacker)
            t0s.append(t0)
            t1s.append(t1)
            samples.append((t0, t1))
        baseline = fmean(t0s)
        contended = fmean(t1s)
        slowdown = (contended - baseline) / baseline if baseline else 0.0
        return CellResult(
            resource=self.resource,
            mode=self.mode,
            variant=self.variant,
            baseline_cycles=baseline,
            contended_cycles=contended,
            slowdown=slowdown,
            trials=n,
            samples=samples,
        )
