"""SMT execution and micro-op cache sharing tests (Figures 6/7)."""

import pytest

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.errors import SimFault
from repro.core import microbench
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler


def dual_loop_program(n1=8, n2=8, iters=6):
    """Two independent region loops at disjoint addresses."""
    asm = Assembler()
    microbench.emit_eight_blocks(asm, "t1", max(1, n1 // 8), iters,
                                 arena=0x40_1000)
    microbench.emit_eight_blocks(asm, "t2", max(1, n2 // 8), iters,
                                 arena=0x50_1000, loop_reg="r2")
    return asm.assemble(entry="t1")


class TestRunSMT:
    def test_both_threads_halt(self):
        core = Core(CPUConfig.skylake(), dual_loop_program())
        d1, d2 = core.run_smt(("t1", "t2"))
        assert core.thread(0).halted
        assert core.thread(1).halted
        assert d1.retired_uops > 0
        assert d2.retired_uops > 0

    def test_threads_have_independent_registers(self):
        core = Core(CPUConfig.skylake(), dual_loop_program())
        core.run_smt(("t1", "t2"))
        assert core.read_reg("r1", thread_id=0) == 0  # t1's counter
        assert core.read_reg("r2", thread_id=1) == 0  # t2's counter

    def test_smt_mode_toggles_partitioning(self):
        core = Core(CPUConfig.skylake(), dual_loop_program())
        assert not core.uop_cache.smt_active
        core.run_smt(("t1", "t2"))
        assert not core.uop_cache.smt_active  # restored after the run

    def test_smt_mode_is_left_after_a_fault(self):
        core = Core(CPUConfig.skylake(), dual_loop_program())
        with pytest.raises(SimFault):
            core.run_smt(("t1", "t2"), max_blocks=1)
        assert not core.uop_cache.smt_active
        assert not core.frontend.smt_active

    def test_single_thread_after_smt_uses_full_cache(self):
        prog = microbench.size_loop(200, 8)
        core = Core(CPUConfig.skylake(), prog)
        core.call("main")
        delta = core.call("main")
        # 200 regions < 256 lines: fits single-threaded
        assert delta.uops_legacy / 8 < 20


class TestStaticPartitioning:
    def test_capacity_halves_in_smt_mode(self):
        """Figure 6's finding: T1's effective capacity is exactly half
        with SMT active, regardless of what T2 runs."""
        n = 160  # fits in 256 lines, not in 128
        prog = microbench.smt_pair(n, 8, t2_kind="pause")
        core = Core(CPUConfig.skylake(), prog)
        core.call("t1")
        single = core.call("t1").uops_legacy

        prog_long = microbench.smt_pair(n, 16, t2_kind="pause")
        d_long, _ = Core(CPUConfig.skylake(), prog_long).run_smt(("t1", "t2"))
        d_short, _ = Core(CPUConfig.skylake(), prog).run_smt(("t1", "t2"))
        smt_steady = (d_long.uops_legacy - d_short.uops_legacy) / 8
        assert single / 8 < 5
        assert smt_steady > 100  # thrashing: 160 regions > 128 lines

    def test_pause_coworker_equivalent_to_chase(self):
        """T2's instruction mix must not change T1's share."""
        results = {}
        for kind in ("pause", "chase"):
            prog = microbench.smt_pair(96, 8, t2_kind=kind)
            prog_long = microbench.smt_pair(96, 16, t2_kind=kind)
            d_long, _ = Core(CPUConfig.skylake(), prog_long).run_smt(("t1", "t2"))
            d_short, _ = Core(CPUConfig.skylake(), prog).run_smt(("t1", "t2"))
            results[kind] = (d_long.uops_legacy - d_short.uops_legacy) / 8
        # 96 regions fit in the 128-line half either way: ~0 legacy uops
        assert results["pause"] < 5
        assert results["chase"] < 5

    def test_no_cross_thread_interference_in_sets(self):
        """Figure 7a: T1 probing any set never contends with T2."""
        for t1_set in (0, 8, 16, 24):
            prog = microbench.partition_probe_pair(t1_set=t1_set, iters=8)
            prog_long = microbench.partition_probe_pair(t1_set=t1_set, iters=16)
            d1l, d2l = Core(CPUConfig.skylake(), prog_long).run_smt(("t1", "t2"))
            d1s, d2s = Core(CPUConfig.skylake(), prog).run_smt(("t1", "t2"))
            t1_steady = (d1l.uops_legacy - d1s.uops_legacy) / 8
            t2_steady = (d2l.uops_legacy - d2s.uops_legacy) / 8
            assert t1_steady < 5, f"t1 contends at set {t1_set}"
            assert t2_steady < 5, f"t2 contends at set {t1_set}"


class TestCompetitiveSharing:
    def test_zen_threads_evict_each_other(self):
        """On Zen the same workload does interfere cross-thread when
        both threads target the same sets (total > 8 ways)."""
        asm = Assembler()
        microbench.emit_eight_blocks(asm, "t1", 1, 8, arena=0x40_1000)
        microbench.emit_eight_blocks(asm, "t2", 1, 8, arena=0x50_1000,
                                     loop_reg="r2")
        prog = asm.assemble(entry="t1")
        # both loops fill 8 ways of set 0 -> 16 lines demanded of 8
        core = Core(CPUConfig.zen(), prog)
        d1, d2 = core.run_smt(("t1", "t2"))
        combined = d1.uops_legacy + d2.uops_legacy
        # steady-state thrash: far more legacy uops than the one-time fill
        assert combined > 2 * 48
