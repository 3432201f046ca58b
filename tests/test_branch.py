"""Branch-prediction substrate tests: trainability is the requirement."""

import pytest

from repro.branch.predictor import (
    BTB,
    Bimodal,
    BranchPredictor,
    IndirectPredictor,
    ReturnStack,
)
from repro.isa import encodings as enc


class TestBimodal:
    def test_starts_weakly_taken(self):
        assert Bimodal().predict(0x1000)

    def test_mistrainable_not_taken(self):
        b = Bimodal()
        for _ in range(3):
            b.update(0x1000, taken=False)
        assert not b.predict(0x1000)

    def test_retrainable(self):
        b = Bimodal()
        for _ in range(4):
            b.update(0x1000, False)
        for _ in range(2):
            b.update(0x1000, True)
        assert b.predict(0x1000)

    def test_saturation_gives_hysteresis(self):
        b = Bimodal()
        for _ in range(100):
            b.update(0x1000, True)
        b.update(0x1000, False)  # one not-taken shouldn't flip it
        assert b.predict(0x1000)

    def test_aliasing_by_index_bits(self):
        b = Bimodal(entries=16)
        for _ in range(3):
            b.update(0x10, False)
        assert not b.predict(0x10 + 16)  # aliases to the same counter


class TestBTB:
    def test_caches_targets(self):
        btb = BTB()
        assert btb.predict(0x100) is None
        btb.update(0x100, 0x2000)
        assert btb.predict(0x100) == 0x2000

    def test_capacity_eviction(self):
        btb = BTB(entries=2)
        btb.update(1, 10)
        btb.update(2, 20)
        btb.update(3, 30)
        known = sum(1 for pc in (1, 2, 3) if btb.predict(pc) is not None)
        assert known == 2


class TestIndirect:
    def test_last_target_prediction(self):
        ind = IndirectPredictor()
        ind.update(0x50, 0xAAA)
        ind.update(0x50, 0xBBB)
        assert ind.predict(0x50) == 0xBBB


class TestReturnStack:
    def test_lifo(self):
        rsb = ReturnStack()
        rsb.push(0x100)
        rsb.push(0x200)
        assert rsb.pop() == 0x200
        assert rsb.pop() == 0x100
        assert rsb.pop() is None

    def test_depth_bound(self):
        rsb = ReturnStack(depth=2)
        for addr in (1, 2, 3):
            rsb.push(addr)
        assert rsb.pop() == 3
        assert rsb.pop() == 2
        assert rsb.pop() is None

    def test_snapshot_restore(self):
        rsb = ReturnStack()
        rsb.push(0x100)
        snap = rsb.snapshot()
        rsb.push(0x200)
        rsb.pop()
        rsb.pop()
        rsb.restore(snap)
        assert rsb.pop() == 0x100


class TestBranchPredictorUnit:
    def _bind(self, macro, addr, target=None):
        macro.bind(addr)
        if target is not None:
            macro.target = target
        return macro

    def test_direct_jmp_always_taken(self):
        bp = BranchPredictor()
        jmp = self._bind(enc.jmp("x"), 0x100, target=0x500)
        assert bp.predict(jmp) == (True, 0x500)

    def test_call_pushes_rsb_and_ret_pops(self):
        bp = BranchPredictor()
        call = self._bind(enc.call("f"), 0x100, target=0x900)
        bp.predict(call)
        ret = self._bind(enc.ret(), 0x905)
        assert bp.predict(ret) == (True, call.end)

    def test_jcc_follows_bimodal(self):
        bp = BranchPredictor()
        jcc = self._bind(enc.jcc("nz", "top"), 0x100, target=0x80)
        assert bp.predict(jcc) == (True, 0x80)  # initially taken
        for _ in range(3):
            bp.resolve(jcc, taken=False, target=jcc.end)
        assert bp.predict(jcc) == (False, jcc.end)

    def test_unseen_indirect_has_no_target(self):
        bp = BranchPredictor()
        ci = self._bind(enc.call_ind("r5"), 0x100)
        assert bp.predict(ci) == (True, None)

    def test_indirect_learns_from_resolution(self):
        bp = BranchPredictor()
        ci = self._bind(enc.call_ind("r5"), 0x100)
        bp.predict(ci)
        bp.resolve(ci, taken=True, target=0x7000)
        assert bp.predict(ci) == (True, 0x7000)

    def test_btb_follows_a_new_target(self):
        # Resolution skips a BTB write that would store the same target
        # again, never one that changes it.
        bp = BranchPredictor()
        ji = self._bind(enc.jmp_ind("r5"), 0x100)
        for target in (0x7000, 0x7000, 0x8000):
            bp.resolve(ji, taken=True, target=target)
            assert bp.btb.predict(ji.addr) == target
