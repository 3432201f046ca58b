"""The micro-op cache proper: sets, ways, streaming, partitioning."""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.isa.instruction import region_of
from repro.observe.events import DSB_EVICT, DSB_FILL, DSB_FLUSH
from repro.uopcache.line import UopCacheLine
from repro.uopcache.placement import LineSpec
from repro.uopcache.policies import HotnessPolicy, ReplacementPolicy

_line_seq = attrgetter("seq")


@dataclass
class UopCacheStats:
    """Micro-op cache event counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0  # fill *attempts* (regions)
    lines_filled: int = 0
    fill_rejects: int = 0  # lines bypassed by the wear-down policy
    evictions: int = 0
    streamed_uops: int = 0
    flushes: int = 0

    @property
    def hit_rate(self) -> float:
        """Region-granular hit rate."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for name in vars(self):
            setattr(self, name, 0)


class UopCache:
    """Set-associative streaming micro-op cache.

    Entries are tagged by *fetch entry address* and grouped per 32-byte
    region; a lookup hits only when every line of the region's packing
    is resident, and then streams them all (Section II-B's streaming
    behaviour).

    Sharing modes (Section III, "Partitioning Policy"):

    - ``"static"`` (Intel): with SMT active, each thread owns a private
      half organised as ``sets/2`` full-associativity-preserving 8-way
      sets (Figure 7's finding).  Single-threaded mode uses all sets.
    - ``"competitive"`` (AMD): both threads index the full cache and
      evict each other -- the property the cross-SMT channel needs.

    ``privilege_partition`` implements the Section VIII countermeasure:
    user and kernel code index disjoint halves.
    """

    def __init__(
        self,
        sets: int = 32,
        ways: int = 8,
        uops_per_line: int = 6,
        max_lines_per_region: int = 3,
        policy: Optional[ReplacementPolicy] = None,
        sharing: str = "static",
        privilege_partition: bool = False,
        region_bytes: int = 32,
    ):
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        if sharing not in ("static", "competitive"):
            raise ValueError(f"unknown sharing mode {sharing!r}")
        self.sets = sets
        self.ways = ways
        self.uops_per_line = uops_per_line
        self.max_lines_per_region = max_lines_per_region
        self.policy = policy if policy is not None else HotnessPolicy()
        self.sharing = sharing
        self.privilege_partition = privilege_partition
        self.region_bytes = region_bytes
        self.smt_active = False
        self.stats = UopCacheStats()
        self._sets: List[List[UopCacheLine]] = [[] for _ in range(sets)]
        self._set_state: List[Dict] = [{} for _ in range(sets)]
        #: Per set: ``(thread, entry) -> resident lines``, kept by every
        #: path that adds or drops a line.
        self._resident: List[Dict] = [{} for _ in range(sets)]
        self._tick = 0
        self._refold()
        #: Observability: an :class:`repro.observe.events.EventBus` (set
        #: by ``Core.observe()``; None means no hooks fire) plus the
        #: cycle/thread attribution hints the core refreshes before
        #: each pipeline step -- the cache itself has no clock.
        self.observer = None
        self.obs_cycle = 0
        self.obs_thread = -1

    # ------------------------------------------------------------------
    # geometry

    @property
    def capacity_uops(self) -> int:
        """Maximum micro-ops the cache can hold."""
        return self.sets * self.ways * self.uops_per_line

    @property
    def capacity_lines(self) -> int:
        """Total number of lines."""
        return self.sets * self.ways

    def set_index(self, entry: int, thread: int, privilege: int = 3) -> int:
        """Set selected for a fetch entry address.

        Base index is bits 5-9 of the address (for 32 sets / 32-byte
        regions); partitioning folds it into the thread's and/or
        privilege level's share.
        """
        mask, thread_stride, priv_stride = self._fold
        idx = (entry // self.region_bytes) & mask
        if thread & 1:
            idx += thread_stride
        if privilege:
            idx += priv_stride
        return idx

    def _refold(self) -> None:
        """Precompute :meth:`set_index`'s folding for the current SMT
        mode: the index mask of one share, and the offsets of thread
        1's half (static SMT) and of user code's half (privilege
        partition)."""
        frac = self.sets
        thread_stride = 0
        if self.smt_active and self.sharing == "static":
            frac //= 2
            thread_stride = frac
        priv_stride = 0
        if self.privilege_partition:
            frac //= 2
            priv_stride = frac
        self._fold = (frac - 1, thread_stride, priv_stride)

    # ------------------------------------------------------------------
    # SMT mode

    def set_smt_active(self, active: bool) -> None:
        """Toggle SMT mode; repartitioning flushes the structure."""
        if active != self.smt_active:
            self.smt_active = active
            self._refold()
            if self.sharing == "static":
                self.flush()

    # ------------------------------------------------------------------
    # lookup / fill

    def lookup(
        self, thread: int, entry: int, privilege: int = 3
    ) -> Optional[List[UopCacheLine]]:
        """Stream the region entered at ``entry`` if fully resident.

        Returns the ordered lines on a hit (updating replacement
        state), or ``None`` on a miss.
        """
        tick = self._tick = self._tick + 1
        stats = self.stats
        stats.lookups += 1
        mask, thread_stride, priv_stride = self._fold
        idx = (entry // self.region_bytes) & mask
        if thread & 1:
            idx += thread_stride
        if privilege:
            idx += priv_stride
        policy = self.policy
        policy.touch_set(self._sets[idx], tick, self._set_state[idx])
        lines = self._resident[idx].get((thread, entry))
        if lines is None:
            stats.misses += 1
            return None
        # (a copy: the caller must not get the index's own list)
        n = len(lines)
        lines = sorted(lines, key=_line_seq) if n > 1 else [lines[0]]
        # Lines are filled with seq 0..region_lines-1, so a lone line
        # with region_lines == 1 is a whole region: no range check.
        if n != lines[0].region_lines or (
            n > 1 and [l.seq for l in lines] != list(range(n))
        ):
            stats.misses += 1
            return None
        policy.on_hit_region(lines, tick)
        stats.hits += 1
        for line in lines:
            stats.streamed_uops += len(line.uops)
        return lines

    def fill(
        self,
        thread: int,
        entry: int,
        specs: Sequence[LineSpec],
        privilege: int = 3,
    ) -> bool:
        """Install a decoded region (from :func:`build_lines` output).

        Returns True only if *every* line was admitted; under the
        hotness policy a fill may be (partially) bypassed, wearing down
        the resident lines instead -- subsequent misses retry and
        eventually displace them.
        """
        if not specs or len(specs) > self.max_lines_per_region:
            return False
        total = len(specs)
        tick = self._tick = self._tick + 1
        stats = self.stats
        stats.fills += 1
        idx = self.set_index(entry, thread, privilege)
        ways = self._sets[idx]
        state = self._set_state[idx]
        policy = self.policy
        policy.touch_set(ways, tick, state)
        resident = self._resident[idx]
        key = (thread, entry)
        # Lines of an earlier fill at this entry are replaced in place;
        # ``region`` collects the entry's resident lines (a victim may be
        # one of them) and becomes its index entry at the end.
        region = resident.get(key) or []
        stale = tuple(region)
        obs = self.observer
        admitted = 0
        for seq, spec in enumerate(specs):
            for old in stale:
                if old.seq == seq:
                    # (unless it went as an earlier line's victim)
                    if old in region:
                        region.remove(old)
                        ways.remove(old)
                    break
            if len(ways) >= self.ways:
                victim = policy.choose_victim(ways, tick, state)
                if victim is None:
                    stats.fill_rejects += 1
                    continue
                ways.remove(victim)
                if victim.entry == entry and victim.thread == thread:
                    region.remove(victim)
                else:
                    self._unindex(resident, victim)
                policy.on_evict(victim, state)
                stats.evictions += 1
                if obs is not None and obs.wants(DSB_EVICT):
                    obs.emit(
                        DSB_EVICT,
                        self.obs_cycle,
                        self.obs_thread,
                        entry=victim.entry,
                        victim_thread=victim.thread,
                        seq=victim.seq,
                        set=idx,
                        cause="conflict",
                    )
            line = UopCacheLine(
                thread, entry, seq, spec.uops, spec.slots, spec.msrom,
                region_lines=total,
            )
            policy.on_fill(line, tick)
            ways.append(line)
            region.append(line)
            stats.lines_filled += 1
            admitted += 1
        if region:
            resident[key] = region
        else:
            resident.pop(key, None)
        if obs is not None and obs.wants(DSB_FILL):
            obs.emit(
                DSB_FILL,
                self.obs_cycle,
                self.obs_thread,
                entry=entry,
                set=idx,
                lines=total,
                admitted=admitted,
            )
        return admitted == total

    @staticmethod
    def _unindex(resident: Dict, line: UopCacheLine) -> None:
        """Drop an evicted ``line`` from its set's resident index."""
        key = (line.thread, line.entry)
        lines = resident[key]
        lines.remove(line)
        if not lines:
            del resident[key]

    def evict_random(self, rng: random.Random) -> bool:
        """Evict one uniformly random resident line.

        Models external interference (unrelated code sharing the
        structure): a random occupied set is chosen, then a random way
        within it, and the victim is retired through the replacement
        policy's ``on_evict`` bookkeeping.  This is the public path
        :class:`repro.cpu.noise.NoiseModel` uses; nothing outside this
        module should touch ``_sets`` directly.

        Returns True if a line was evicted, False if the cache is empty.
        """
        occupied = [i for i in range(self.sets) if self._sets[i]]
        if not occupied:
            return False
        idx = rng.choice(occupied)
        ways = self._sets[idx]
        victim = ways.pop(rng.randrange(len(ways)))
        self._unindex(self._resident[idx], victim)
        self.policy.on_evict(victim, self._set_state[idx])
        self.stats.evictions += 1
        obs = self.observer
        if obs is not None and obs.wants(DSB_EVICT):
            obs.emit(
                DSB_EVICT,
                self.obs_cycle,
                self.obs_thread,
                entry=victim.entry,
                victim_thread=victim.thread,
                seq=victim.seq,
                set=idx,
                cause="noise",
            )
        return True

    # ------------------------------------------------------------------
    # invalidation / inclusion

    def flush(self) -> None:
        """Drop every line (iTLB flush / domain-crossing mitigation)."""
        self.stats.flushes += 1
        dropped = sum(len(ways) for ways in self._sets)
        for ways in self._sets:
            ways.clear()
        for state in self._set_state:
            state.clear()
        for resident in self._resident:
            resident.clear()
        obs = self.observer
        if obs is not None and obs.wants(DSB_FLUSH):
            obs.emit(
                DSB_FLUSH, self.obs_cycle, self.obs_thread, dropped=dropped
            )

    def reset(self) -> None:
        """Restore post-construction state: empty sets, zeroed stats.

        Unlike :meth:`flush` this does not count as a flush event and
        also rewinds the replacement tick and SMT mode -- it exists for
        ``Core.reset()``, where the whole structure must be
        indistinguishable from a freshly built one.
        """
        for ways in self._sets:
            ways.clear()
        for state in self._set_state:
            state.clear()
        for resident in self._resident:
            resident.clear()
        self._tick = 0
        self.smt_active = False
        self._refold()
        self.stats.reset()

    def invalidate_code_range(self, start: int, end: int) -> int:
        """Evict lines whose region overlaps [start, end).

        Called by the L1I eviction hook to maintain the documented
        inclusion property.  Returns the number of lines dropped.
        """
        dropped = 0
        lo = region_of(start, self.region_bytes)
        for idx, ways in enumerate(self._sets):
            keep = [
                line
                for line in ways
                if not lo <= region_of(line.entry, self.region_bytes) < end
            ]
            if len(keep) != len(ways):
                dropped += len(ways) - len(keep)
                ways[:] = keep
                resident = self._resident[idx]
                resident.clear()
                for line in keep:
                    resident.setdefault((line.thread, line.entry), []).append(line)
        if dropped:
            obs = self.observer
            if obs is not None and obs.wants(DSB_EVICT):
                obs.emit(
                    DSB_EVICT,
                    self.obs_cycle,
                    self.obs_thread,
                    cause="inclusion",
                    dropped=dropped,
                    start=start,
                    end=end,
                )
        return dropped

    # ------------------------------------------------------------------
    # inspection (tests and characterization)

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(ways) for ways in self._sets)

    def resident_entries(self, thread: Optional[int] = None) -> List[int]:
        """Distinct resident entry addresses (optionally one thread's)."""
        seen = set()
        for ways in self._sets:
            for line in ways:
                if thread is None or line.thread == thread:
                    seen.add(line.entry)
        return sorted(seen)

    def set_occupancy(self, idx: int) -> int:
        """Valid lines in set ``idx``."""
        return len(self._sets[idx])

    def lines_in_set(self, idx: int) -> List[UopCacheLine]:
        """Copy of the lines in set ``idx`` (inspection only)."""
        return list(self._sets[idx])
