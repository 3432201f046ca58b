"""Direction, target, indirect and return-address predictors.

Deliberately simple structures: what the attacks require is not
prediction *accuracy* but faithful *trainability* -- an attacker must be
able to steer predictions with repeated executions, and a victim's
history must persist so it can be replayed transiently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import BranchKind, MacroOp

_JCC = BranchKind.JCC
_JMP = BranchKind.JMP
_CALL = BranchKind.CALL
_JMP_IND = BranchKind.JMP_IND
_CALL_IND = BranchKind.CALL_IND
_RET = BranchKind.RET

#: Stands for "no BTB entry" where a stored target is compared.
_ABSENT = object()


class Bimodal:
    """Per-address 2-bit saturating-counter direction predictor.

    Counter values: 0 strongly-not-taken .. 3 strongly-taken.  New
    branches start weakly-taken (2), matching the taken-biased static
    prediction of real front ends closely enough for mistraining
    experiments.
    """

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._counters: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._counters.get(pc & self._mask, 2) >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved direction."""
        slot = pc & self._mask
        counter = self._counters.get(slot, 2)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[slot] = counter


class BTB:
    """Branch target buffer: direct-branch target memo, tagged by PC."""

    def __init__(self, entries: int = 4096):
        self.entries = entries
        self._targets: Dict[int, int] = {}

    def predict(self, pc: int) -> Optional[int]:
        """Cached target for the branch at ``pc``."""
        return self._targets.get(pc)

    def update(self, pc: int, target: int) -> None:
        """Install/refresh a target."""
        if len(self._targets) >= self.entries and pc not in self._targets:
            # Evict an arbitrary old entry; capacity pressure is not
            # load-bearing for any experiment.
            self._targets.pop(next(iter(self._targets)))
        self._targets[pc] = target


class IndirectPredictor:
    """Last-target indirect branch/call predictor.

    Predicts that an indirect branch jumps where it last jumped -- the
    property variant-2 exploits: legitimate executions of
    ``fun[secret]()`` encode the secret-dependent target here, and a
    later *transient* execution replays it at fetch.

    Entries are indexed by the low bits of the branch PC and are *not*
    tagged, as on real hardware -- so a branch at an aliasing address
    trains the same slot.  That untagged indexing is what Spectre-v2
    (branch target injection) exploits, and what the paper's Section
    VI-A gadget-chaining remark relies on.
    """

    def __init__(self, entries: int = 1024):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._targets: Dict[int, int] = {}

    def slot(self, pc: int) -> int:
        """Predictor slot selected by a branch PC (aliasable)."""
        return pc & self._mask

    def predict(self, pc: int) -> Optional[int]:
        """Predicted target, or None if the slot was never trained."""
        return self._targets.get(self.slot(pc))

    def update(self, pc: int, target: int) -> None:
        """Record the resolved target in the branch's slot."""
        self._targets[self.slot(pc)] = target


class ReturnStack:
    """Return stack buffer (RSB) for RET target prediction."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_addr: int) -> None:
        """Record the return address of a CALL at fetch time."""
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
        self._stack.append(return_addr)

    def pop(self) -> Optional[int]:
        """Predicted target for a RET (None when empty/underflowed)."""
        if self._stack:
            return self._stack.pop()
        return None

    def snapshot(self) -> List[int]:
        """Copy of the stack (checkpointed across speculation)."""
        return list(self._stack)

    def restore(self, snap: List[int]) -> None:
        """Restore a checkpointed stack after a squash."""
        self._stack = list(snap)


class BranchPredictor:
    """Front-end prediction unit tying the four structures together."""

    def __init__(self) -> None:
        self.bimodal = Bimodal()
        self.btb = BTB()
        self.indirect = IndirectPredictor()
        self.rsb = ReturnStack()

    def predict(self, instr: MacroOp) -> Tuple[bool, Optional[int]]:
        """Predict ``(taken, target)`` for ``instr``; a target of None
        means none is available and fetch must stall.  A plain tuple,
        since one is built per predicted branch.

        Fetch-time side effect: CALLs push their return address on the
        RSB and RETs pop it, mirroring hardware (and checkpointed by
        the core around speculation).
        """
        kind = instr.branch_kind
        if kind is _JCC:
            bimodal = self.bimodal
            if bimodal._counters.get(instr.addr & bimodal._mask, 2) >= 2:
                return True, instr.target
            return False, instr.end
        if kind is _JMP:
            return True, instr.target
        if kind is _CALL:
            self.rsb.push(instr.end)
            return True, instr.target
        if kind is _RET:
            return True, self.rsb.pop()
        if kind is _JMP_IND or kind is _CALL_IND:
            if kind is _CALL_IND:
                self.rsb.push(instr.end)
            return True, (
                self.indirect.predict(instr.addr) or self.btb.predict(instr.addr)
            )
        # SYSCALL/SYSRET redirect fetch but through architectural MSRs,
        # handled by the core, not predicted here.
        return True, None

    def resolve(self, instr: MacroOp, taken: bool, target: int) -> None:
        """Train all structures with the architectural outcome (the
        core counts mispredictions itself)."""
        kind = instr.branch_kind
        if kind is _JCC:
            counters = self.bimodal._counters
            slot = instr.addr & self.bimodal._mask
            counter = counters.get(slot, 2)
            if not taken:
                counters[slot] = counter - 1 if counter else 0
                return
            counters[slot] = counter + 1 if counter < 3 else 3
            target = instr.target
            if target is None:
                return
        elif kind is _JMP_IND or kind is _CALL_IND:
            self.indirect.update(instr.addr, target)
        elif kind is not _JMP and kind is not _CALL:
            return
        # A BTB entry that already holds the target is left alone:
        # rewriting it would change nothing, not even eviction order.
        if self.btb._targets.get(instr.addr, _ABSENT) != target:
            self.btb.update(instr.addr, target)
