"""Rows of the paper's evaluation tables.

- :func:`table1_row` -- bandwidth and error rate of one channel mode
  (same address space, user/kernel, cross-SMT, transient, and the
  contention suite's two extra channels), raw and with Reed-Solomon
  error correction;
- :class:`Table2Row` -- one attack of the Spectre-v1 vs
  micro-op-cache-Spectre comparison: time, LLC references/misses,
  micro-op cache miss penalty.

The tables' grids, row assembly and claims are defined once, in
:data:`repro.harness.experiments.ARTIFACTS`.  Formatting helpers
render rows as aligned text tables for the benchmarks and
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.coding.reed_solomon import RSCodec
from repro.core.covert import ChannelParams, ChannelReport, CovertChannel
from repro.core.crossdomain import CrossDomainChannel, CrossDomainParams
from repro.core.smtchannel import SMTChannel, SMTChannelParams
from repro.core.transient import UopCacheSpectreV1
from repro.cpu.noise import NoiseModel


@dataclass
class Table1Row:
    """One mode of Table I."""

    mode: str
    error_rate: float
    bandwidth_kbps: float
    corrected_bandwidth_kbps: float

    def format(self) -> str:
        """Fixed-width row rendering."""
        return (
            f"{self.mode:32s} {self.error_rate * 100:7.2f}% "
            f"{self.bandwidth_kbps:10.2f} {self.corrected_bandwidth_kbps:10.2f}"
        )


def _row(mode: str, report: ChannelReport, ecc_overhead: float = 1.2) -> Table1Row:
    corrected = report.bandwidth_kbps / ecc_overhead
    return Table1Row(mode, report.error_rate, report.bandwidth_kbps, corrected)


#: Table I channel modes, in the paper's row order.
TABLE1_MODES = (
    "Same address space",
    "Same address space (User/Kernel)",
    "Cross-thread (SMT)",
    "Transient Execution Attack",
)

#: Covert-channel modes added by the contention suite
#: (:mod:`repro.contention.channels`): the same Table-I protocol and
#: statistics, leaking through non-DSB shared resources.
CONTENTION_MODES = (
    "Cross-thread iTLB (SMT)",
    "Cross-thread store buffer (SMT)",
)


def table1_row(
    mode: str,
    payload: bytes = b"uop cache leaks!",
    noise: Optional[NoiseModel] = None,
    noise_seed: int = 17,
) -> Table1Row:
    """Regenerate one mode of Table I.

    Each row is an independent experiment (its own channel instance and
    noise stream), so the batch harness computes the rows in parallel.
    ``noise`` defaults to a mild interference model so error rates are
    realistic (the simulator is otherwise deterministic and error-free;
    see DESIGN.md).
    """
    if noise is None:
        noise = NoiseModel(evict_prob=0.01, jitter_sd=25.0, seed=noise_seed)
    if mode == "Same address space":
        chan = CovertChannel(ChannelParams(), noise=noise)
        return _row(mode, chan.transmit(payload))
    if mode == "Same address space (User/Kernel)":
        xdom = CrossDomainChannel(CrossDomainParams(), noise=noise)
        return _row(mode, xdom.transmit(payload))
    if mode == "Cross-thread (SMT)":
        smt = SMTChannel(SMTChannelParams(), noise=noise)
        return _row(mode, smt.transmit(payload))
    if mode == "Transient Execution Attack":
        attack = UopCacheSpectreV1(secret=payload, noise=noise)
        stats = attack.leak()
        return _row(mode, attack.channel_report(stats))
    if mode == "Cross-thread iTLB (SMT)":
        # Imported lazily: repro.contention builds on the session and
        # lint layers and is only needed for its own rows.
        from repro.contention.channels import ITLBChannel

        return _row(mode, ITLBChannel(noise=noise).transmit(payload))
    if mode == "Cross-thread store buffer (SMT)":
        from repro.contention.channels import StoreBufferChannel

        return _row(mode, StoreBufferChannel(noise=noise).transmit(payload))
    raise ValueError(
        f"unknown Table I mode {mode!r}; choose from "
        f"{TABLE1_MODES + CONTENTION_MODES}"
    )


@dataclass
class Table2Row:
    """One attack of Table II."""

    attack: str
    seconds: float
    llc_references: int
    llc_misses: int
    uop_cache_penalty_cycles: int
    byte_accuracy: float

    def format(self) -> str:
        """Fixed-width row rendering."""
        return (
            f"{self.attack:24s} {self.seconds:10.6f}s "
            f"{self.llc_references:12d} {self.llc_misses:12d} "
            f"{self.uop_cache_penalty_cycles:14d} {self.byte_accuracy * 100:6.1f}%"
        )


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a list of rows as an aligned text table."""
    cells = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
