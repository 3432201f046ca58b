"""Micro-op cache characterization kernels (Section III).

Each ``*_point`` kernel measures one point of one figure; the result
dataclasses hold the x/y series each figure plots.  The figures' grids,
assembly and claims are defined in
:data:`repro.harness.experiments.ARTIFACTS`.  Every kernel measures
*steady state*: the workload runs once to warm the structures, then
again for the measurement, mirroring the paper's large fixed sample
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.core import microbench


@dataclass
class SeriesResult:
    """One x/y series (Figures 3a, 3b)."""

    x: List[int]
    y: List[float]
    x_label: str
    y_label: str

    def knee(self, factor: float = 4.0) -> Optional[int]:
        """First x where y jumps by ``factor`` over the running floor.

        A crude but robust detector for the 256-line capacity cliff
        of Figures 3a and 6.
        """
        floor = max(1.0, min(self.y) if self.y else 1.0)
        for xi, yi in zip(self.x, self.y):
            if yi > floor * factor and yi > 4.0:
                return xi
        return None


@dataclass
class PlacementResult:
    """Figure 4: micro-ops streamed from the DSB per iteration, as a
    function of region micro-op count, for several region counts."""

    regions: List[int]
    uops_per_region: List[int]
    dsb_uops: Dict[int, List[float]]  # regions -> series over uop counts


@dataclass
class ReplacementResult:
    """Figure 5: the main-loop-vs-evicting-loop iteration matrix."""

    main_iters: List[int]
    evict_iters: List[int]
    matrix: List[List[float]]  # [main][evict] = DSB uops per main pass

    def cell(self, main: int, evict: int) -> float:
        """Matrix value for (main iterations, evict iterations)."""
        return self.matrix[self.main_iters.index(main)][
            self.evict_iters.index(evict)
        ]


@dataclass
class SMTPartitionResult:
    """Figure 6: T1's legacy-decode micro-ops vs loop size, single
    thread versus SMT with a co-runner."""

    sizes: List[int]
    single_thread: List[float]
    smt: List[float]

    def knee_single(self) -> Optional[int]:
        """Capacity knee without a co-runner (expect ~256 regions)."""
        return SeriesResult(self.sizes, self.single_thread, "", "").knee()

    def knee_smt(self) -> Optional[int]:
        """Capacity knee with a co-runner (expect ~128 regions)."""
        return SeriesResult(self.sizes, self.smt, "", "").knee()


@dataclass
class PartitionGeometryResult:
    """Figure 7: (a) T1 sweeping sets against T2 pinned to set 0;
    (b) number of 8-way groups streamable in single-thread vs SMT."""

    sweep_sets: List[int]
    sweep_t1_mite: List[float]
    sweep_t2_mite: List[float]
    group_counts: List[int]
    groups_single: List[float]
    groups_smt: List[float]


# ----------------------------------------------------------------------
# Per-point kernels
#
# Each figure's sweep is a pure function of (config, point params); the
# kernels below measure exactly one point, and the harness runs each
# point as a job (``repro.harness.experiments``).


def size_point(config: CPUConfig, n: int, iters: int) -> float:
    """Legacy-decode uops/iter for one Listing-1 loop size."""
    core = Core(config, microbench.size_loop(n, iters))
    core.call("main")  # warm
    delta = core.call("main")
    return delta.uops_legacy / iters


def associativity_point(config: CPUConfig, n: int, iters: int) -> float:
    """Legacy-decode uops/iter for ``n`` same-set regions (Listing 2)."""
    core = Core(config, microbench.assoc_loop(n, iters))
    core.call("main")
    delta = core.call("main")
    return delta.uops_legacy / iters


def placement_point(
    config: CPUConfig, nregions: int, uops: int, iters: int
) -> float:
    """DSB uops/iter for one (region count, uops/region) cell."""
    prog = microbench.placement_loop(nregions, uops - 1, iters)
    core = Core(config, prog)
    core.call("main")
    delta = core.call("main")
    return delta.uops_dsb / iters


def replacement_point(
    config: CPUConfig, main_iters: int, evict_iters: int, rounds: int
) -> float:
    """Steady-state DSB uops per main pass for one (M, E) cell of the
    Figure 5 interleaving matrix."""
    core = Core(config, microbench.replacement_pair())
    total = 0
    measured = 0
    for r in range(rounds):
        for _ in range(main_iters):
            delta = core.call("main_0")
            if r >= rounds // 2:
                total += delta.uops_dsb
                measured += 1
        for _ in range(evict_iters):
            core.call("ev_0")
    return total / measured


def smt_partitioning_point(
    config: CPUConfig, n: int, iters: int, t2_kind: str = "pause"
) -> Dict[str, float]:
    """Single-thread and SMT legacy uops/iter for one loop size."""
    prog = microbench.smt_pair(n, iters, t2_kind=t2_kind)
    core = Core(config, prog)
    core.call("t1")
    delta = core.call("t1")
    single = delta.uops_legacy / iters

    # steady state in SMT mode: difference between a long and a
    # short run cancels the cold-start fills.
    prog_long = microbench.smt_pair(n, iters * 2, t2_kind=t2_kind)
    d1_long, _ = Core(config, prog_long).run_smt(("t1", "t2"))
    d1_short, _ = Core(config, prog).run_smt(("t1", "t2"))
    smt = (d1_long.uops_legacy - d1_short.uops_legacy) / iters
    return {"single": single, "smt": smt}


def geometry_sweep_point(
    config: CPUConfig, set_index: int, iters: int
) -> Dict[str, float]:
    """Figure 7a: T1 at ``set_index`` vs T2 hammering set 0."""
    prog = microbench.partition_probe_pair(t1_set=set_index, iters=iters)
    prog_long = microbench.partition_probe_pair(
        t1_set=set_index, iters=iters * 2
    )
    d1_long, d2_long = Core(config, prog_long).run_smt(("t1", "t2"))
    d1_short, d2_short = Core(config, prog).run_smt(("t1", "t2"))
    return {
        "t1": (d1_long.uops_legacy - d1_short.uops_legacy) / iters,
        "t2": (d2_long.uops_legacy - d2_short.uops_legacy) / iters,
    }


def geometry_groups_point(
    config: CPUConfig, n_groups: int, iters: int
) -> Dict[str, float]:
    """Figure 7b: stream ``n_groups`` 8-way groups, single vs SMT."""
    prog = microbench.eight_block_regions(n_groups, iters)
    core = Core(config, prog)
    core.call("main")
    delta = core.call("main")
    single = delta.uops_legacy / iters

    asm_prog = _dual_groups(n_groups, iters)
    long_prog = _dual_groups(n_groups, iters * 2)
    d1_long, _ = Core(config, long_prog).run_smt(("t1", "t2"))
    d1_short, _ = Core(config, asm_prog).run_smt(("t1", "t2"))
    smt = (d1_long.uops_legacy - d1_short.uops_legacy) / iters
    return {"single": single, "smt": smt}


def _dual_groups(n_groups: int, iters: int):
    """Both threads streaming ``n_groups`` 8-way groups."""
    from repro.isa.assembler import Assembler

    asm = Assembler()
    microbench.emit_eight_blocks(
        asm, "t1", n_groups, iters, arena=0x40_1000
    )
    microbench.emit_eight_blocks(
        asm, "t2", n_groups, iters, arena=0x50_1000, loop_reg="r2"
    )
    return asm.assemble(entry="t1")
