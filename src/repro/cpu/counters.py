"""Performance counters.

Mirrors the hardware events the paper reads through nanoBench
(Section III) and in Table II: micro-ops delivered per source
(DSB / MITE / MSROM), DSB miss penalty cycles, LLC references and
misses, branch mispredictions, and squash accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, sub


@dataclass(slots=True)
class PerfCounters:
    """Per-thread counter block; snapshot/delta for scoped measurement."""

    uops_dsb: int = 0  # IDQ.DSB_UOPS
    uops_mite: int = 0  # IDQ.MITE_UOPS ("from the legacy decode pipeline")
    uops_msrom: int = 0  # IDQ.MS_UOPS
    dsb_miss_penalty_cycles: int = 0  # DSB2MITE_SWITCHES.PENALTY_CYCLES (+decode)
    dsb_switches: int = 0
    dsb_hits: int = 0  # region-granular
    dsb_misses: int = 0
    icache_misses: int = 0
    itlb_misses: int = 0
    fetch_blocks: int = 0
    macro_ops_decoded: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    squashes: int = 0
    squashed_uops: int = 0
    retired_uops: int = 0
    retired_instructions: int = 0
    syscalls: int = 0
    llc_refs: int = 0
    llc_misses: int = 0
    l1d_refs: int = 0
    l1d_misses: int = 0

    def snapshot(self) -> "PerfCounters":
        """Copy of the current values."""
        return PerfCounters(*_values(self))

    def delta(self, since: "PerfCounters") -> "PerfCounters":
        """Counter difference ``self - since``."""
        return PerfCounters(*map(sub, _values(self), _values(since)))

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def uops_total(self) -> int:
        """All delivered micro-ops regardless of source."""
        return self.uops_dsb + self.uops_mite + self.uops_msrom

    @property
    def uops_legacy(self) -> int:
        """Micro-ops from the legacy decode pipeline (MITE + MSROM) --
        the y-axis of Figures 3, 6 and 7."""
        return self.uops_mite + self.uops_msrom

    def as_dict(self) -> dict:
        """Plain-dict view (reporting/serialisation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Every counter of a block, in field order (what ``PerfCounters(*...)``
#: takes), read in one call by :meth:`PerfCounters.snapshot` and
#: :meth:`PerfCounters.delta`.
_values = attrgetter(*(f.name for f in fields(PerfCounters)))
