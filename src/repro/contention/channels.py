"""Two covert channels on non-DSB shared resources (Section VIII's
observation that the micro-op cache is one instance of a family).

Both are :class:`repro.core.smtchannel.SMTChannel` subclasses: they
inherit its episode -- one concurrent SMT episode per bit, receiver
self-timing a fixed number of probe passes, first pass dropped as
warm-up -- and the session layer's channel protocol
(:class:`repro.session.ChannelSession`: calibration, one episode per
bit, Reed-Solomon framing), and replace only the contended medium:

- :class:`ITLBChannel`: the Trojan's one-bit walks 24 instruction
  pages, blowing the (shrunk, 16-entry) iTLB past capacity so the
  receiver's 8-page probe chain re-walks page translations; the
  zero-bit idles in a PAUSE loop touching one page.
- :class:`StoreBufferChannel`: the Trojan's one-bit floods the shared
  store-drain port with back-to-back stores, inflating the receiver's
  own store-burst drain time; the zero-bit idles storing nothing.

Both run on Skylake-like configurations: the DSB is statically
partitioned there, so the signal cannot be a disguised micro-op cache
channel -- these leak through structures the DSB partition does not
protect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.smtchannel import SMTChannel
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.resources import ITLBClaim, ResourcePairClaim, StoreClaim
from repro.lint.taint import SecretClaim

PAGE = 4096
RX_ARENA = 0x44_0000
TX_ARENA = 0x54_0000
TZ_ARENA = 0x64_0000


@dataclass
class ITLBChannelParams:
    """Episode sizing for the iTLB channel."""

    rx_pages: int = 8  # receiver probe chain length (pages)
    tx_pages: int = 24  # one-bit Trojan chain length (pages)
    probe_passes: int = 4  # timed receiver passes per bit episode
    sender_loops: int = 4  # Trojan chain walks per one-bit
    delay_iters: int = 150  # receiver spin before probing (see below)
    calibration_rounds: int = 6


class ITLBChannel(SMTChannel):
    """Covert channel through iTLB capacity contention.

    Runs on a Skylake-like config with a 16-entry iTLB: the receiver's
    9 pages plus the Trojan's 25 exceed capacity (one-bit -> receiver
    re-walks), while receiver plus idle page stay comfortably under
    (zero-bit -> all probe translations hit).

    The receiver spins for ``delay_iters`` PAUSE iterations before its
    timed passes: a one-bit Trojan needs hundreds of cycles to walk
    deep enough into its chain to start evicting, and the probe loop
    alone finishes first.  The first timed pass is still dropped as
    warm-up -- it also clears any translations the *previous* episode
    left behind, which would otherwise leak inter-symbol interference
    into the measurement.
    """

    def __init__(
        self,
        params: Optional[ITLBChannelParams] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        super().__init__(
            params or ITLBChannelParams(),
            config or CPUConfig.skylake(itlb_entries=16), noise,
        )

    def build_program(self):
        p = self.params
        asm = Assembler()
        asm.reserve("rx_results", 8 * (p.probe_passes + 1))

        # Receiver: a delay spin, then timed passes over a chain of
        # single-block pages.
        asm.org(RX_ARENA)
        asm.label("rx_epoch")
        asm.emit(enc.mov_imm("r12", p.probe_passes))
        asm.emit(enc.mov_imm("r11", asm.resolve("rx_results"), width=64))
        asm.emit(enc.mov_imm("r10", p.delay_iters))
        asm.label("rx_delay")
        asm.emit(enc.pause())
        asm.emit(enc.dec("r10"))
        asm.emit(enc.jcc("nz", "rx_delay"))
        asm.label("rx_loop")
        asm.emit(enc.rdtsc("r14"))
        asm.emit(enc.jmp("rx_c0"))
        asm.org(RX_ARENA + 128)
        asm.label("rx_end")
        asm.emit(enc.rdtsc("r15"))
        asm.emit(enc.alu("sub", "r15", "r14"))
        asm.emit(enc.store("r15", "r11"))
        asm.emit(enc.alu_imm("add", "r11", 8))
        asm.emit(enc.dec("r12"))
        asm.emit(enc.jcc("nz", "rx_loop"))
        asm.emit(enc.halt())
        rx_pages = {RX_ARENA // PAGE}
        # Receiver blocks stagger over L1i sets 0..7, Trojan blocks
        # over 8..55: the signal is page walks, not L1i evictions.
        for i in range(p.rx_pages):
            addr = RX_ARENA + (i + 1) * PAGE + (i % 8) * 64
            asm.org(addr)
            asm.label(f"rx_c{i}")
            asm.emit(enc.pause())
            nxt = f"rx_c{i + 1}" if i + 1 < p.rx_pages else "rx_end"
            asm.emit(enc.jmp(nxt))
            rx_pages.add(addr // PAGE)

        # Trojan one-bit: a looped walk over tx_pages further pages.
        asm.org(TX_ARENA)
        asm.label("tx_one")
        asm.emit(enc.mov_imm("r2", p.sender_loops))
        asm.label("tx_loop")
        asm.emit(enc.jmp("tx_c0"))
        asm.org(TX_ARENA + 64)
        asm.label("tx_chk")
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_loop"))
        asm.emit(enc.halt())
        tx_pages = {TX_ARENA // PAGE}
        for i in range(p.tx_pages):
            addr = TX_ARENA + (i + 1) * PAGE + (8 + (i % 48)) * 64
            asm.org(addr)
            asm.label(f"tx_c{i}")
            asm.emit(enc.pause())
            nxt = f"tx_c{i + 1}" if i + 1 < p.tx_pages else "tx_chk"
            asm.emit(enc.jmp(nxt))
            tx_pages.add(addr // PAGE)

        # Trojan zero-bit: PAUSE on a single page.
        asm.org(TZ_ARENA)
        asm.label("tx_zero")
        asm.emit(enc.mov_imm("r2", p.sender_loops * 16))
        asm.label("tx_idle")
        asm.emit(enc.pause())
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_idle"))
        asm.emit(enc.halt())

        self._claims = [
            ITLBClaim("rx", "rx_epoch", tuple(sorted(rx_pages))),
            ITLBClaim("tx_one", "tx_one", tuple(sorted(tx_pages))),
            ITLBClaim("tx_zero", "tx_zero", (TZ_ARENA // PAGE,)),
            ResourcePairClaim("tx_one", "rx", "itlb", "conflict"),
            ResourcePairClaim("tx_zero", "rx", "itlb", "disjoint"),
        ]
        # The Trojan's bit is the choice between the page-walking chain
        # and the single-page idle loop; the secret-dependent surface
        # is the tx chain's pages (and fetch regions).
        self._claims += [
            SecretClaim(
                name="bit", entries=("tx_one", "tx_zero"),
                leaks_to=("dsb", "itlb"),
            )
        ]
        return asm.assemble(entry="rx_epoch")


@dataclass
class StoreBufferChannelParams:
    """Episode sizing for the store-buffer channel."""

    rx_stores: int = 48  # receiver burst length (entries: 16)
    tx_stores: int = 64  # one-bit Trojan flood per loop
    probe_passes: int = 4  # timed receiver passes per bit episode
    sender_loops: int = 8  # Trojan flood loops per one-bit
    calibration_rounds: int = 6


class StoreBufferChannel(SMTChannel):
    """Covert channel through store-buffer drain-port contention.

    Runs on a Skylake-like config with a 16-entry store buffer: the
    receiver's 48-store burst always pays its own capacity stalls (the
    baseline), and the Trojan's one-bit flood halves the receiver's
    effective drain rate, inflating the burst time.
    """

    def __init__(
        self,
        params: Optional[StoreBufferChannelParams] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        super().__init__(
            params or StoreBufferChannelParams(),
            config or CPUConfig.skylake(store_buffer_entries=16), noise,
        )

    def build_program(self):
        p = self.params
        asm = Assembler()
        asm.reserve("rx_results", 8 * (p.probe_passes + 1))
        asm.reserve("rx_sbuf", 64)
        asm.reserve("tx_sbuf", 64)

        # Receiver: timed passes, each one unpaced store burst.
        asm.org(RX_ARENA)
        asm.label("rx_epoch")
        asm.emit(enc.mov_imm("r12", p.probe_passes))
        asm.emit(enc.mov_imm("r11", asm.resolve("rx_results"), width=64))
        asm.emit(enc.mov_imm("r13", asm.resolve("rx_sbuf"), width=64))
        asm.label("rx_loop")
        asm.emit(enc.rdtsc("r14"))
        for i in range(p.rx_stores):
            asm.emit(enc.store("r2", "r13", disp=(i % 8) * 8))
        asm.emit(enc.rdtsc("r15"))
        asm.emit(enc.alu("sub", "r15", "r14"))
        asm.emit(enc.store("r15", "r11"))
        asm.emit(enc.alu_imm("add", "r11", 8))
        asm.emit(enc.dec("r12"))
        asm.emit(enc.jcc("nz", "rx_loop"))
        asm.emit(enc.halt())

        # Trojan one-bit: back-to-back stores monopolising the port.
        asm.org(TX_ARENA)
        asm.label("tx_one")
        asm.emit(enc.mov_imm("r4", asm.resolve("tx_sbuf"), width=64))
        asm.emit(enc.mov_imm("r2", p.sender_loops))
        asm.label("tx_loop")
        for i in range(p.tx_stores):
            asm.emit(enc.store("r5", "r4", disp=(i % 8) * 8))
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_loop"))
        asm.emit(enc.halt())

        # Trojan zero-bit: PAUSE, no stores.
        asm.org(TZ_ARENA)
        asm.label("tx_zero")
        asm.emit(enc.mov_imm("r2", p.sender_loops * 8))
        asm.label("tx_idle")
        asm.emit(enc.pause())
        asm.emit(enc.dec("r2"))
        asm.emit(enc.jcc("nz", "tx_idle"))
        asm.emit(enc.halt())

        self._claims = [
            StoreClaim("rx", "rx_epoch", p.rx_stores + 1),
            StoreClaim("tx_one", "tx_one", p.tx_stores),
            StoreClaim("tx_zero", "tx_zero", 0),
            ResourcePairClaim("tx_one", "rx", "store_buffer", "conflict"),
            ResourcePairClaim("tx_zero", "rx", "store_buffer", "disjoint"),
        ]
        # The one-bit is a store flood: the secret-dependent surface
        # includes the flood's store sites, not just its fetch regions.
        self._claims += [
            SecretClaim(
                name="bit", entries=("tx_one", "tx_zero"),
                leaks_to=("dsb", "itlb", "sb"),
            )
        ]
        return asm.assemble(entry="rx_epoch")
