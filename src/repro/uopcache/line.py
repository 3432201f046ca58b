"""One micro-op cache line."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.isa.instruction import MicroOp


@dataclass(slots=True, eq=False)
class UopCacheLine:
    """A single way's worth of cached micro-ops.

    ``entry`` is the fetch address whose decode produced this region's
    lines (tag); ``seq`` orders the (up to three) lines of one region;
    ``slots`` counts occupied micro-op slots (<= uops_per_line, with
    64-bit-immediate micro-ops counting twice); ``hotness`` is the
    replacement-policy counter.  Lines compare by identity: a set
    removes *this* line, and a field-by-field comparison would cost a
    tuple build per way.
    """

    thread: int
    entry: int  # tag: fetch entry address of the region
    seq: int  # 0..2 within the region
    uops: Tuple[MicroOp, ...]
    slots: int
    msrom: bool = False
    hotness: int = 1
    lru_tick: int = 0
    region_lines: int = 1  # total lines in this region's packing

    @property
    def uop_count(self) -> int:
        """Number of micro-ops streamed from this line."""
        return len(self.uops)
