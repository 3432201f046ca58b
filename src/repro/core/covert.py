"""Same-address-space covert channel over the micro-op cache (V-A).

The spy (receiver) executes and times a tiger loop; the Trojan
(sender) executes its own tiger to send a one-bit or a zebra to send a
zero-bit.  Everything is regular committed code -- no speculation --
and the only microarchitectural state touched is the micro-op cache:
probes that hit stream from the DSB without a single instruction-cache
access.

``CovertChannel`` wires the three functions into one program,
calibrates the timing threshold like an attacker would, and transmits
arbitrary payloads, reporting bandwidth/error-rate in the same units
as Table I (Kbit/s at the configured core frequency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.coding.reed_solomon import RSCodec, RSDecodeError
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.core.timing import ProbeTiming
from repro.errors import ConfigError
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import AttackSession, read_elapsed

__all__ = [
    "ChannelParams",
    "ChannelReport",
    "CovertChannel",
    "read_elapsed",  # canonical home is repro.session; re-exported
    "tune",
]

#: Arena layout (all 1024-aligned, 256 KiB apart).
RECEIVER_ARENA = 0x44_0000
SENDER_ARENA = 0x48_0000
ZEBRA_ARENA = 0x4C_0000


@dataclass
class ChannelParams:
    """Tunable knobs of the channel (the three axes of Figure 9)."""

    nsets: int = 8
    nways: int = 6
    samples: int = 5
    sender_reps: int = 3
    prime_reps: int = 1
    calibration_rounds: int = 8

    def __post_init__(self) -> None:
        if self.nsets > 16:
            raise ConfigError(
                "nsets > 16 leaves no striped sets for the zebra"
            )
        if not 1 <= self.nways <= 8:
            raise ConfigError("nways must be 1..8")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")


@dataclass
class ChannelReport:
    """Outcome of one transmission."""

    bits_sent: int
    bit_errors: int
    total_cycles: int
    freq_ghz: float
    payload_bytes: int = 0
    corrected_ok: Optional[bool] = None
    ecc_overhead: float = 1.0
    timing: Optional[ProbeTiming] = None

    @property
    def error_rate(self) -> float:
        """Raw bit error rate."""
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time of the whole transmission."""
        return self.total_cycles / (self.freq_ghz * 1e9)

    @property
    def bandwidth_kbps(self) -> float:
        """Raw channel bandwidth in Kbit/s."""
        if self.total_cycles == 0:
            return 0.0
        return self.bits_sent / self.seconds / 1e3

    @property
    def corrected_bandwidth_kbps(self) -> float:
        """Goodput after error-correction overhead, in Kbit/s."""
        return self.bandwidth_kbps / self.ecc_overhead


def _bytes_to_bits(data: bytes) -> List[int]:
    bits = []
    for byte in data:
        for i in range(8):
            bits.append((byte >> i) & 1)
    return bits


def _bits_to_bytes(bits: Sequence[int]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


class CovertChannel(AttackSession):
    """Tiger/zebra covert channel between two same-privilege code
    regions sharing an address space."""

    def __init__(
        self,
        params: Optional[ChannelParams] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.params = params or ChannelParams()
        super().__init__(config or CPUConfig.skylake(), noise)

    # ------------------------------------------------------------------

    def build_program(self):
        p = self.params
        tiger_sets = striped_sets(p.nsets)
        stride = 32 // p.nsets
        zebra_sets = striped_sets(p.nsets, offset=max(1, stride // 2))
        probe_spec = FootprintSpec(tiger_sets, p.nways, RECEIVER_ARENA)
        tiger_spec = FootprintSpec(tiger_sets, p.nways, SENDER_ARENA)
        zebra_spec = FootprintSpec(zebra_sets, p.nways, ZEBRA_ARENA)
        asm = Assembler()
        asm.reserve("probe_result", 8)
        emit_probe(asm, "probe", probe_spec, "probe_result")
        emit_chain(asm, "send_one", tiger_spec)
        emit_chain(asm, "send_zero", zebra_spec)
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("send_one", tiger_spec, "tiger"),
            ChainClaim("send_zero", zebra_spec, "zebra"),
            PairClaim("send_one", "probe", "conflict"),
            PairClaim("send_zero", "probe", "disjoint"),
        ]
        # The Trojan's secret is the *choice of entry point*: bit 1
        # runs the tiger, bit 0 the zebra.  The taint analysis takes
        # the symmetric difference of the two reachable sets as the
        # secret-dependent fetch surface.
        self._claims += [
            SecretClaim(
                name="bit", entries=("send_one", "send_zero"),
                leaks_to=("dsb", "itlb"),
            )
        ]
        return asm.assemble(entry="probe")

    def _prime(self) -> None:
        for _ in range(self.params.prime_reps):
            self._call("probe")

    def _send(self, bit: int) -> None:
        label = "send_one" if bit else "send_zero"
        for _ in range(self.params.sender_reps):
            self._call(label)

    # ------------------------------------------------------------------

    def calibrate(self) -> ProbeTiming:
        """Measure the probe in both channel states and fit a
        threshold, exactly as an attacker would during setup."""
        hits, misses = [], []
        for _ in range(self.params.calibration_rounds):
            self._prime()
            self._send(0)
            hits.append(self._probe_time())
            self._prime()
            self._send(1)
            misses.append(self._probe_time())
        return self._fit(hits, misses)

    def send_bits(self, bits: Sequence[int]) -> List[int]:
        """Transmit a bit string; returns the received bits."""
        if self.classifier is None:
            self.calibrate()
        received = []
        for bit in bits:
            samples = []
            for _ in range(self.params.samples):
                self._prime()
                self._send(bit)
                samples.append(self._probe_time())
            received.append(self.classifier.vote(samples))
        return received

    def transmit(self, payload: bytes, ecc: bool = False,
                 ecc_nsym: Optional[int] = None) -> ChannelReport:
        """Send ``payload`` over the channel and report Table-I stats.

        With ``ecc=True`` the payload is Reed-Solomon encoded first and
        the report records whether decoding recovered it exactly.
        ``ecc_nsym`` defaults to ~20% parity (the paper's inflation),
        with a floor of 4 symbols for tiny payloads.
        """
        self.total_cycles = 0
        if self.classifier is None:
            self.calibrate()
        wire = payload
        overhead = 1.0
        if ecc:
            if ecc_nsym is None:
                ecc_nsym = max(4, min(32, -(-len(payload) // 5)))
            codec = RSCodec(nsym=ecc_nsym, block=min(255, ecc_nsym + len(payload)))
            wire = codec.encode(payload)
            overhead = len(wire) / len(payload)
        sent_bits = _bytes_to_bits(wire)
        cycles_before = self.total_cycles
        received_bits = self.send_bits(sent_bits)
        errors = sum(1 for a, b in zip(sent_bits, received_bits) if a != b)
        corrected_ok = None
        if ecc:
            try:
                corrected_ok = codec.decode(_bits_to_bytes(received_bits)) == payload
            except RSDecodeError:
                corrected_ok = False
        return ChannelReport(
            bits_sent=len(sent_bits),
            bit_errors=errors,
            total_cycles=self.total_cycles - cycles_before,
            freq_ghz=self.config.freq_ghz,
            payload_bytes=len(payload),
            corrected_ok=corrected_ok,
            ecc_overhead=overhead,
            timing=self.timing,
        )


def tune(
    payload: bytes,
    nsets_values: Sequence[int] = (1, 2, 4, 8, 16),
    nways_values: Sequence[int] = (4, 5, 6, 7, 8),
    samples_values: Sequence[int] = (1, 2, 5, 10, 20),
    base: ChannelParams = None,
    noise: Optional[NoiseModel] = None,
    noise_seed: int = 7,
) -> dict:
    """Figure 9 sweep: vary one parameter at a time around the paper's
    operating point (6 ways, 8 sets, 5 samples) and record bandwidth
    and error rate for each."""
    base = base or ChannelParams()
    results = {"nsets": [], "nways": [], "samples": []}

    def run(params: ChannelParams) -> Tuple[float, float]:
        nm = noise or NoiseModel(evict_prob=0.02, jitter_sd=30.0, seed=noise_seed)
        chan = CovertChannel(params, noise=nm)
        report = chan.transmit(payload)
        return report.bandwidth_kbps, report.error_rate

    for nsets in nsets_values:
        params = ChannelParams(nsets=nsets, nways=base.nways,
                               samples=base.samples)
        bw, err = run(params)
        results["nsets"].append((nsets, bw, err))
    for nways in nways_values:
        params = ChannelParams(nsets=base.nsets, nways=nways,
                               samples=base.samples)
        bw, err = run(params)
        results["nways"].append((nways, bw, err))
    for samples in samples_values:
        params = ChannelParams(nsets=base.nsets, nways=base.nways,
                               samples=samples)
        bw, err = run(params)
        results["samples"].append((samples, bw, err))
    return results
