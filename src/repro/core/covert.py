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
from typing import Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.errors import ConfigError
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import ChannelSession

__all__ = [
    "ChannelParams",
    "CovertChannel",
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
        check_channel_params(self)


def check_channel_params(params) -> None:
    """Limits of the striped tiger/zebra layout and the vote, shared by
    every channel built on it; raises :class:`ConfigError`."""
    if params.nsets > 16:
        raise ConfigError(
            "nsets > 16 leaves no striped sets for the zebra"
        )
    if not 1 <= params.nways <= 8:
        raise ConfigError("nways must be 1..8")
    if params.samples < 1:
        raise ConfigError("samples must be >= 1")


class CovertChannel(ChannelSession):
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

    def _episode(self, bit: int) -> int:
        """Prime, send ``bit``, and time the probe."""
        self._prime()
        self._send(bit)
        return self._probe_time()

    @property
    def _votes(self) -> int:
        return self.params.samples


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
