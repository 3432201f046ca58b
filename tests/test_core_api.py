"""Core public-API edge cases."""

import gc
import weakref

import pytest

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.errors import SimFault
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from tests.conftest import build_core


def tiny_core():
    def build(asm):
        asm.label("main")
        asm.emit(enc.alu_imm("add", "r1", 1))
        asm.emit(enc.halt())
        asm.align(64)
        asm.label("other")
        asm.emit(enc.alu_imm("add", "r2", 1))
        asm.emit(enc.halt())

    return build_core(build, entry="main")


class TestCallAPI:
    def test_entry_by_label_or_address(self):
        core = tiny_core()
        core.call("main")
        core.call(core.addr_of("other"))
        assert core.read_reg("r1") == 1
        assert core.read_reg("r2") == 1

    def test_regs_argument_masks_to_64_bits(self):
        core = tiny_core()
        core.call("main", regs={"r5": 1 << 70})
        assert core.read_reg("r5") == (1 << 70) & ((1 << 64) - 1)

    def test_counters_delta_is_per_call(self):
        core = tiny_core()
        d1 = core.call("main")
        d2 = core.call("main")
        assert d1.retired_instructions == d2.retired_instructions

    def test_reset_clocks_false_accumulates_time(self):
        core = tiny_core()
        core.call("main")
        t1 = core.cycles()
        core.call("main", reset_clocks=False)
        assert core.cycles() > t1

    def test_core_that_ran_a_call_is_freed_by_reference_count(self):
        # No reference cycle runs through a core (the L1I's inclusion
        # hook holds the micro-op cache, not the core), so dropping the
        # last reference frees it with the cyclic collector off.
        enabled = gc.isenabled()
        gc.disable()
        try:
            core = tiny_core()
            core.call("main")
            ref = weakref.ref(core)
            del core
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_write_read_reg_roundtrip(self):
        core = tiny_core()
        core.write_reg("r9", 12345)
        assert core.read_reg("r9") == 12345

    def test_write_read_mem(self):
        core = tiny_core()
        core.write_mem(0x99_0000, 0xDEAD, size=2)
        assert core.read_mem(0x99_0000, size=2) == 0xDEAD

    def test_flush_uop_cache(self):
        core = tiny_core()
        core.call("main")
        assert core.uop_cache.occupancy() > 0
        core.flush_uop_cache()
        assert core.uop_cache.occupancy() == 0

    def test_max_blocks_guard(self):
        def build(asm):
            asm.label("main")
            asm.label("spin")
            asm.emit(enc.jmp("spin", short=True))

        core = build_core(build, entry="main")
        with pytest.raises(SimFault):
            core.call("main", max_blocks=50)


class TestITLBInclusion:
    def test_itlb_flush_empties_uop_cache(self):
        """The SGX-entry behaviour (Section II-B): an iTLB flush takes
        the whole micro-op cache with it."""
        core = tiny_core()
        core.call("main")
        assert core.uop_cache.occupancy() > 0
        core.hierarchy.itlb.flush()
        assert core.uop_cache.occupancy() == 0

    def test_l1i_eviction_invalidates_uop_lines(self):
        core = tiny_core()
        core.call("main")
        entry = core.addr_of("main")
        assert core.uop_cache.lookup(0, entry) is not None
        core.hierarchy.l1i.invalidate(entry)
        assert core.uop_cache.lookup(0, entry) is None


class TestUopCacheDisabled:
    def test_everything_decodes_legacy(self):
        def build(asm):
            asm.label("main")
            asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))
            asm.emit(enc.halt())

        config = CPUConfig.skylake(uop_cache_enabled=False)
        core = build_core(build, config=config, entry="main")
        core.call("main")
        delta = core.call("main")
        assert delta.uops_dsb == 0
        assert delta.uops_mite > 0
