"""Generic set-associative cache with true-LRU replacement.

Used for L1I, L1D, L2, LLC and (with page-granularity "lines") the
iTLB.  The micro-op cache is *not* built on this class -- its streaming
organisation, placement rules and hotness replacement are different
enough to deserve their own model (:mod:`repro.uopcache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(slots=True)
class CacheStats:
    """Reference/miss/eviction counters for one cache level."""

    refs: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def hits(self) -> int:
        """Number of hitting references."""
        return self.refs - self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all references (0.0 if never referenced)."""
        return self.misses / self.refs if self.refs else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.refs = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0


class Cache:
    """A set-associative cache storing line *tags* only.

    Data values live in :class:`~repro.memory.mainmem.MainMemory`; the
    cache tracks presence and recency, which is all timing needs.

    ``on_evict`` is called with the evicted line's base address -- the
    hook the micro-op cache uses for L1I inclusion.

    Sets are allocated on first fill: a session touches a few hundred
    of the hierarchy's 9,344 sets, so construction and :meth:`reset`
    do no per-set work.  An untouched set reads as empty, and
    :meth:`flush` and :meth:`resident_lines` walk sets in index order,
    so hook order does not depend on fill order.
    """

    __slots__ = ("name", "sets", "ways", "line_size", "latency",
                 "on_evict", "stats", "_lines")

    def __init__(
        self,
        name: str,
        sets: int,
        ways: int,
        line_size: int = 64,
        latency: int = 4,
        on_evict: Optional[Callable[[int], None]] = None,
    ):
        if sets <= 0 or (sets & (sets - 1)):
            raise ValueError(f"{name}: sets must be a power of two, got {sets}")
        if line_size <= 0 or (line_size & (line_size - 1)):
            raise ValueError(f"{name}: line_size must be a power of two")
        if ways <= 0:
            raise ValueError(f"{name}: ways must be positive")
        self.name = name
        self.sets = sets
        self.ways = ways
        self.line_size = line_size
        self.latency = latency
        self.on_evict = on_evict
        self.stats = CacheStats()
        # Set index -> line base addresses, most-recently-used last;
        # a set gets its list on first fill.
        self._lines: Dict[int, List[int]] = {}

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.sets * self.ways * self.line_size

    def _index(self, addr: int) -> int:
        return (addr // self.line_size) % self.sets

    def line_base(self, addr: int) -> int:
        """Base address of the line containing ``addr``."""
        return addr & ~(self.line_size - 1)

    def lookup(self, addr: int) -> bool:
        """Reference ``addr``: returns True on hit and updates LRU.

        A miss does *not* allocate; call :meth:`fill` for that, so the
        hierarchy controls fill ordering and eviction hooks fire at the
        right moment.
        """
        base = self.line_base(addr)
        lines = self._lines.get(self._index(addr))
        self.stats.refs += 1
        if lines is not None and base in lines:
            lines.remove(base)
            lines.append(base)
            return True
        self.stats.misses += 1
        return False

    def probe(self, addr: int) -> bool:
        """Presence check without touching LRU state or counters."""
        lines = self._lines.get(self._index(addr))
        return lines is not None and self.line_base(addr) in lines

    def fill(self, addr: int) -> Optional[int]:
        """Install the line containing ``addr``.

        Returns the base address of any line evicted to make room.
        """
        base = self.line_base(addr)
        index = self._index(addr)
        lines = self._lines.get(index)
        if lines is None:
            self._lines[index] = [base]
            return None
        if base in lines:
            lines.remove(base)
            lines.append(base)
            return None
        victim = None
        if len(lines) >= self.ways:
            victim = lines.pop(0)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        lines.append(base)
        return victim

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr`` if present (no evict hook
        recursion beyond this level -- the hierarchy coordinates)."""
        base = self.line_base(addr)
        lines = self._lines.get(self._index(addr))
        if lines is not None and base in lines:
            lines.remove(base)
            if self.on_evict is not None:
                self.on_evict(base)
            return True
        return False

    def flush(self) -> None:
        """Drop every line."""
        self.stats.flushes += 1
        if self.on_evict is not None:
            for index in sorted(self._lines):
                for base in self._lines[index]:
                    self.on_evict(base)
        self._lines.clear()

    def reset(self) -> None:
        """Restore post-construction state: empty sets, zeroed stats.

        Unlike :meth:`flush` this fires no eviction hooks and does not
        count as a flush -- it exists for ``Core.reset()``, where the
        downstream structures are being reset in the same breath.
        """
        self._lines.clear()
        self.stats.reset()

    def resident_lines(self) -> List[int]:
        """Base addresses of all resident lines (for tests/inspection)."""
        out: List[int] = []
        for index in sorted(self._lines):
            out.extend(self._lines[index])
        return out

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(lines) for lines in self._lines.values())
