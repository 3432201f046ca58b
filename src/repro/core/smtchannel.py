"""Cross-SMT-thread covert channel (Section V-B).

Intel's micro-op cache is statically partitioned between SMT threads,
so no cross-thread signal exists there (the paper's Figure 6/7 finding,
and our negative control).  AMD Zen shares it competitively: micro-ops
of one thread evict the other's.  The Trojan thread transmits a
one-bit by executing a large tiger loop that contends for the probed
sets, and a zero-bit by idling in a PAUSE loop; the spy thread
continuously times its own tiger and watches its latency rise.

Each bit is one concurrent SMT episode: the spy runs a fixed number of
timed probe passes while the Trojan runs its per-bit workload on the
sibling thread.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from repro.core.exploitgen import (
    FootprintSpec,
    _emit_regions,
    neutral_set,
    striped_sets,
)
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import ChannelSession

RX_ARENA = 0x44_0000
TX_ARENA = 0x50_0000


@dataclass
class SMTChannelParams:
    """Episode sizing for the SMT channel."""

    nsets: int = 16
    nways: int = 6
    probe_passes: int = 6  # timed receiver passes per bit episode
    sender_loops: int = 24  # tiger passes the Trojan runs per one-bit
    calibration_rounds: int = 6


class SMTChannel(ChannelSession):
    """Micro-op cache covert channel between two SMT threads.

    Defaults to :meth:`CPUConfig.zen` (competitively shared cache);
    instantiate with a Skylake config to demonstrate that static
    partitioning closes the channel.
    """

    def __init__(
        self,
        params: Optional[SMTChannelParams] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.params = params or SMTChannelParams()
        super().__init__(config or CPUConfig.zen(), noise)

    # ------------------------------------------------------------------

    def build_program(self):
        p = self.params
        sets = striped_sets(p.nsets)
        asm = Assembler()
        asm.reserve("rx_results", 8 * (p.probe_passes + 1))

        # Receiver: an epoch of timed probe passes, one timing per pass.
        rx_spec = FootprintSpec(sets, p.nways, RX_ARENA)
        scratch = neutral_set(rx_spec)
        prolog = RX_ARENA + 9 * rx_spec.way_stride + scratch * 32
        asm.org(prolog)
        asm.label("rx_epoch")
        asm.emit(enc.mov_imm("r12", p.probe_passes))
        asm.emit(enc.mov_imm("r11", asm.resolve("rx_results"), width=64))
        asm.label("rx_loop")
        asm.emit(enc.rdtsc("r14"))
        asm.emit(enc.jmp("rx_r0"))
        _emit_regions(asm, "rx", rx_spec, "rx_end")
        asm.org(prolog + rx_spec.way_stride)
        asm.label("rx_end")
        asm.emit(enc.rdtsc("r15"))
        asm.emit(enc.alu("sub", "r15", "r14"))
        asm.emit(enc.store("r15", "r11"))
        asm.emit(enc.alu_imm("add", "r11", 8))
        asm.emit(enc.dec("r12"))
        asm.emit(enc.jcc("nz", "rx_loop"))
        asm.emit(enc.halt())

        # Trojan one-bit: a looped tiger over the same sets.
        tx_spec = FootprintSpec(sets, p.nways, TX_ARENA)
        tx_prolog = TX_ARENA + 9 * tx_spec.way_stride + neutral_set(tx_spec) * 32
        asm.org(tx_prolog)
        asm.label("tx_one")
        asm.emit(enc.mov_imm("r2", p.sender_loops))
        asm.label("tx_loop")
        asm.emit(enc.jmp("tx_r0"))
        _emit_regions(asm, "tx", tx_spec, "tx_end")
        asm.org(tx_prolog + tx_spec.way_stride)
        asm.label("tx_end")
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_loop"))
        asm.emit(enc.halt())

        # Trojan zero-bit: PAUSE for a comparable duration, leaving no
        # micro-op cache footprint (PAUSE is not cached).
        asm.org(tx_prolog + 2 * tx_spec.way_stride)
        asm.label("tx_zero")
        asm.emit(enc.mov_imm("r2", p.sender_loops * 4))
        asm.label("tx_idle")
        asm.emit(enc.pause())
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_idle"))
        asm.emit(enc.halt())
        self._claims = [
            ChainClaim("rx", rx_spec, "probe"),
            ChainClaim("tx", tx_spec, "tiger"),
        ]
        self._claims += [PairClaim("tx", "rx", "conflict")]
        # The Trojan's bit is the choice between the tiger loop and the
        # (uncacheable) PAUSE loop; the PAUSE side surfaces as TA006
        # dead-tainted regions, which is exactly the zero-bit's point.
        self._claims += [
            SecretClaim(
                name="bit", entries=("tx_one", "tx_zero"),
                leaks_to=("dsb", "itlb"),
            )
        ]
        return asm.assemble(entry="rx_epoch")

    # ------------------------------------------------------------------

    def _episode(self, bit: int) -> float:
        """Run one concurrent bit episode; returns the receiver's mean
        probe time (first pass dropped as warm-up).

        Needs only the ``rx_epoch`` / ``tx_one`` / ``tx_zero`` entry
        points and a ``rx_results`` array of ``params.probe_passes``
        deltas, so every SMT channel shares it whatever the medium
        (see :mod:`repro.contention.channels`)."""
        label = "tx_one" if bit else "tx_zero"
        self._run_smt(("rx_epoch", label))
        base = self.core.addr_of("rx_results")
        times = [
            self._elapsed(base + 8 * i)
            for i in range(self.params.probe_passes)
        ]
        return statistics.fmean(times[1:]) if len(times) > 1 else times[0]
