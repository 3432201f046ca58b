"""Front-end fetch/delivery engine tests."""

from collections import namedtuple

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.frontend.pipeline import (
    BLOCK_CPUID,
    BLOCK_FAULT,
    BLOCK_HALT,
    BLOCK_SEQ,
    BLOCK_STALL,
    BLOCK_TAKEN,
)
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import MacroOp, MicroOp, UopKind


def make_core(build, config=None):
    asm = Assembler()
    build(asm)
    return Core(config or CPUConfig.skylake(), asm.assemble())


#: Field names of the tuple ``FrontEnd.fetch_block`` returns.
Block = namedtuple(
    "Block", "entry steps preds n_uops kind next_rip source cycles"
)


def fetch(core, thread):
    return Block._make(core.frontend.fetch_block(thread))


def fetch_one(core, label):
    thread = core.thread(0)
    thread.halted = False
    thread.fetch_rip = core.addr_of(label)
    thread.fetch_priv = thread.privilege
    return fetch(core, thread)


class TestBlockKinds:
    def test_sequential_fallthrough_at_region_end(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))  # exactly 32B
            asm.label("next")
            asm.emit(enc.halt())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_SEQ
        assert block.next_rip == core.addr_of("next")
        assert block.n_uops == 3

    def test_taken_jump_ends_block(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.nop(1))
            asm.emit(enc.jmp("b"))
            asm.emit(enc.nop(1))  # must not be delivered
            asm.align(64)
            asm.label("b")
            asm.emit(enc.halt())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_TAKEN
        assert block.next_rip == core.addr_of("b")
        assert block.n_uops == 2

    def test_halt_block(self):
        core = make_core(lambda asm: (asm.label("a"), asm.emit(enc.halt())))
        assert fetch_one(core, "a").kind == BLOCK_HALT

    def test_cpuid_block(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.cpuid())
            asm.emit(enc.halt())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_CPUID
        assert block.next_rip == core.addr_of("a") + 2

    def test_unpredicted_indirect_stalls(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.jmp_ind("r5"))
            asm.label("t")
            asm.emit(enc.halt())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_STALL
        assert block.next_rip is None

    def test_wild_fetch_faults(self):
        core = make_core(lambda asm: (asm.label("a"), asm.emit(enc.halt())))
        thread = core.thread(0)
        thread.fetch_rip = 0xDEAD000
        assert fetch(core, thread).kind == BLOCK_FAULT

    def test_kernel_code_faults_for_user_fetch(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.halt())
            asm.org(0x90_0000)
            asm.label("k")
            asm.emit(enc.halt())
            asm.label("k_end")

        core = make_core(build)
        core.program.mark_kernel("k", "k_end")
        block = fetch_one(core, "k")
        assert block.kind == BLOCK_FAULT

    def test_kernel_marked_after_walk_memoized_still_faults(self):
        """The privilege check reads the program's kernel ranges on every
        fetch: marking a range after the region walk at that entry was
        memoized must still fault a user fetch there, whether the range
        is marked by labels or by addresses (the form the attack and
        workload builders use)."""
        def build(asm):
            asm.label("a")
            asm.emit(enc.halt())
            asm.org(0x90_0000)
            asm.label("k")
            asm.emit(enc.nop(1), enc.halt())
            asm.label("k_end")
            asm.org(0xA0_0000)
            asm.label("k2")
            asm.emit(enc.nop(1), enc.halt())

        core = make_core(build)
        for label in ("k", "k2"):
            assert fetch_one(core, label).kind == BLOCK_HALT
            assert fetch_one(core, label).source == "dsb"
        core.program.mark_kernel("k", "k_end")
        core.program.mark_kernel(0xA0_0000, 0xA1_0000)
        for label in ("k", "k2"):
            block = fetch_one(core, label)
            assert block.kind == BLOCK_FAULT
            assert not block.n_uops
        assert fetch_one(core, "a").kind == BLOCK_HALT


class TestDSBPath:
    def _loop_core(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))
            asm.emit(enc.halt())

        return make_core(build)

    def test_first_fetch_misses_then_hits(self):
        core = self._loop_core()
        block1 = fetch_one(core, "a")
        assert block1.source == "mite"
        block2 = fetch_one(core, "a")
        assert block2.source == "dsb"
        counters = core.counters(0)
        assert counters.dsb_misses >= 1
        assert counters.dsb_hits >= 1

    def test_dsb_hit_does_not_touch_icache(self):
        core = self._loop_core()
        fetch_one(core, "a")
        refs_after_fill = core.hierarchy.l1i.stats.refs
        fetch_one(core, "a")  # DSB hit
        assert core.hierarchy.l1i.stats.refs == refs_after_fill

    def test_mite_counts_penalty_cycles(self):
        core = self._loop_core()
        fetch_one(core, "a")
        assert core.counters(0).dsb_miss_penalty_cycles > 0

    def test_switch_penalty_counted(self):
        core = self._loop_core()
        fetch_one(core, "a")   # mite
        fetch_one(core, "a")   # dsb (switch)
        assert core.counters(0).dsb_switches >= 1

    def test_uncacheable_region_never_hits(self):
        def build(asm):
            asm.label("a")
            for _ in range(20):  # 21 uops > 18: placement rule 1
                asm.emit(enc.nop(1))
            asm.emit(enc.halt())

        core = make_core(build)
        fetch_one(core, "a")
        block = fetch_one(core, "a")
        assert block.source == "mite"

    def test_pause_region_never_cached(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.pause())
            asm.emit(enc.halt())

        core = make_core(build)
        fetch_one(core, "a")
        assert fetch_one(core, "a").source == "mite"

    def test_uop_source_counters(self):
        core = self._loop_core()
        fetch_one(core, "a")
        fetch_one(core, "a")
        counters = core.counters(0)
        assert counters.uops_mite == 3
        assert counters.uops_dsb == 3


class TestControlPredictions:
    def test_jcc_initially_predicted_taken(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.jcc("nz", "target"))
            asm.emit(enc.nop(1))
            asm.align(64)
            asm.label("target")
            asm.emit(enc.halt())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_TAKEN
        assert block.next_rip == core.addr_of("target")

    def test_syscall_redirects_to_kernel_entry(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.syscall())
            asm.org(0x90_0000)
            asm.label("kernel_entry")
            asm.emit(enc.sysret())

        core = make_core(build)
        thread = core.thread(0)
        block = fetch_one(core, "a")
        assert block.next_rip == core.addr_of("kernel_entry")
        assert thread.fetch_priv == 0
        assert thread.kernel_link == [core.addr_of("a") + 2]
        thread.fetch_rip = block.next_rip
        block2 = fetch(core, thread)
        assert block2.next_rip == core.addr_of("a") + 2
        assert thread.fetch_priv == 3

    def test_syscall_without_kernel_entry_faults(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.syscall())

        core = make_core(build)
        assert fetch_one(core, "a").kind == BLOCK_FAULT

    def test_domain_crossing_flush_option(self):
        def build(asm):
            asm.label("warm")
            asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))
            asm.label("a")
            asm.emit(enc.syscall())
            asm.org(0x90_0000)
            asm.label("kernel_entry")
            asm.emit(enc.sysret())

        config = CPUConfig.skylake(flush_uop_cache_on_domain_crossing=True)
        core = make_core(build, config)
        fetch_one(core, "warm")
        warm_entry = core.addr_of("warm")
        assert core.uop_cache.lookup(0, warm_entry) is not None
        fetch_one(core, "a")
        # the previously warmed region was flushed at the crossing
        # (the syscall block itself refills after the flush)
        assert core.uop_cache.lookup(0, warm_entry) is None


class TestDecisionPointDelivery:
    """Delivery visits only a walk's branches and serialising stops;
    everything before the first cut is delivered whole."""

    def test_not_taken_jcc_then_taken_jmp(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.nop(1))
            asm.label("jcc")
            asm.emit(enc.jcc("nz", "far"))
            asm.emit(enc.nop(1))
            asm.emit(enc.jmp("b"))
            asm.emit(enc.nop(1))  # past the jump: not delivered
            asm.align(64)
            asm.label("b")
            asm.emit(enc.halt())
            asm.label("far")
            asm.emit(enc.halt())

        core = make_core(build)
        # One not-taken outcome drops the bimodal counter below taken.
        core.thread(0).predictor.bimodal.update(core.addr_of("jcc"), False)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_TAKEN
        assert block.next_rip == core.addr_of("b")
        assert [step[0].mnemonic for step in block.steps] == [
            "nop1", "jnz", "nop1", "jmp"
        ]
        assert block.n_uops == 4
        assert len(block.preds) == len(block.steps)
        none0, jcc_pred, none2, jmp_pred = block.preds
        assert none0 is None and none2 is None
        assert jcc_pred == (False, core.addr_of("jcc") + 6)
        assert jmp_pred == (True, core.addr_of("b"))
        assert core.counters(0).branches == 2

    def test_halt_mid_region_ends_steps(self):
        wide = MacroOp("wide3", 4, tuple(MicroOp(UopKind.NOP) for _ in range(3)))

        def build(asm):
            asm.label("a")
            asm.emit(wide, enc.mov_imm("r1", 5))
            asm.label("h")
            asm.emit(enc.halt())
            asm.emit(enc.nop(1), enc.nop(1))  # same region, after HALT

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_HALT
        assert block.next_rip == core.addr_of("h") + 1
        assert [step[0].mnemonic for step in block.steps] == [
            "wide3", "mov_imm32", "halt"
        ]
        assert block.n_uops == sum(len(step[1]) for step in block.steps) == 5
        assert block.preds == [None, None, None]
        assert core.counters(0).uops_mite == 5

    def test_syscall_without_kernel_entry_delivers_prefix(self):
        def build(asm):
            asm.label("a")
            asm.emit(enc.nop(1), enc.nop(1), enc.syscall())

        core = make_core(build)
        block = fetch_one(core, "a")
        assert block.kind == BLOCK_FAULT
        assert block.next_rip is None
        assert [step[0].mnemonic for step in block.steps] == [
            "nop1", "nop1", "syscall"
        ]
        assert block.n_uops == 6
        assert block.preds == [None, None, None]
        counters = core.counters(0)
        assert counters.uops_mite == 2
        assert counters.uops_msrom == 4
        assert counters.syscalls == 0
