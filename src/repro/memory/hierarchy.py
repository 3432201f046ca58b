"""Three-level cache hierarchy (split L1, unified L2, inclusive LLC).

Latency parameters approximate Coffee Lake and only need to preserve
*ordering*: L1 hit << LLC hit << DRAM, with enough separation for an
RDTSC-granularity FLUSH+RELOAD classifier to work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.memory.cache import Cache
from repro.memory.tlb import TLB


@dataclass(slots=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    level: str  # "L1", "L2", "LLC", "DRAM"


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over an inclusive LLC over DRAM.

    ``on_l1i_evict`` lets the micro-op cache maintain its documented
    inclusion in the L1I.  LLC evictions back-invalidate the L1s
    (inclusive LLC), so an attacker evicting an LLC set also evicts L1,
    as the Spectre-v1 baseline requires.
    """

    __slots__ = ("l1i", "l1d", "l2", "llc", "dram_latency", "itlb", "dtlb")

    def __init__(
        self,
        l1_latency: int = 4,
        l2_latency: int = 14,
        llc_latency: int = 44,
        dram_latency: int = 200,
        on_l1i_evict: Optional[Callable[[int], None]] = None,
        itlb_on_flush: Optional[Callable[[], None]] = None,
        itlb_entries: int = 128,
        itlb_walk_latency: int = 30,
        dtlb: Optional[TLB] = None,
    ):
        self.l1i = Cache("L1I", sets=64, ways=8, latency=l1_latency,
                         on_evict=on_l1i_evict)
        self.l1d = Cache("L1D", sets=64, ways=8, latency=l1_latency)
        self.l2 = Cache("L2", sets=1024, ways=4, latency=l2_latency)
        self.llc = Cache("LLC", sets=8192, ways=16, latency=llc_latency,
                         on_evict=self._back_invalidate)
        self.dram_latency = dram_latency
        self.itlb = TLB(entries=itlb_entries, walk_latency=itlb_walk_latency,
                        on_flush=itlb_on_flush)
        #: Optional data-side TLB (``None`` keeps the historical
        #: dTLB-less data path and its calibrations untouched).
        self.dtlb = dtlb

    def _back_invalidate(self, line_base: int) -> None:
        # Inclusive LLC: a victim leaving the LLC leaves the L1s/L2 too.
        self.l1i.invalidate(line_base)
        self.l1d.invalidate(line_base)
        self.l2.invalidate(line_base)

    def _access(self, l1: Cache, addr: int) -> AccessResult:
        if l1.lookup(addr):
            return AccessResult(l1.latency, "L1")
        if self.l2.lookup(addr):
            l1.fill(addr)
            return AccessResult(self.l2.latency, "L2")
        if self.llc.lookup(addr):
            self.l2.fill(addr)
            l1.fill(addr)
            return AccessResult(self.llc.latency, "LLC")
        self.llc.fill(addr)
        self.l2.fill(addr)
        l1.fill(addr)
        return AccessResult(self.dram_latency, "DRAM")

    def access_data(self, addr: int) -> AccessResult:
        """Load/store reference through L1D (adds dTLB latency when a
        data TLB is modelled)."""
        if self.dtlb is None:
            return self._access(self.l1d, addr)
        extra = self.dtlb.access(addr)
        result = self._access(self.l1d, addr)
        if extra:
            return AccessResult(result.latency + extra, result.level)
        return result

    def access_inst(self, addr: int) -> AccessResult:
        """Instruction fetch reference through L1I (adds iTLB latency)."""
        extra = self.itlb.access(addr)
        result = self._access(self.l1i, addr)
        if extra:
            return AccessResult(result.latency + extra, result.level)
        return result

    def clflush(self, addr: int) -> None:
        """Evict the line containing ``addr`` from every level."""
        self.llc.invalidate(addr)  # back-invalidates L1/L2 via hook
        self.l2.invalidate(addr)
        self.l1d.invalidate(addr)
        self.l1i.invalidate(addr)

    def reset(self) -> None:
        """Empty every level and zero its counters, silently.

        ``Cache.flush()`` fires eviction hooks (L1I inclusion, LLC
        back-invalidation) and bumps flush counters; a ``Core.reset()``
        wants neither -- the post-construction state is simply "empty".
        """
        self.l1i.reset()
        self.l1d.reset()
        self.l2.reset()
        self.llc.reset()
        self.itlb.reset()
        if self.dtlb is not None:
            self.dtlb.reset()

    def probe_data_latency(self, addr: int) -> int:
        """Latency a data access *would* see, without perturbing state.

        Used by harness-side classifiers in tests; attack code itself
        always uses real accesses plus RDTSC.
        """
        if self.l1d.probe(addr):
            return self.l1d.latency
        if self.l2.probe(addr):
            return self.l2.latency
        if self.llc.probe(addr):
            return self.llc.latency
        return self.dram_latency
