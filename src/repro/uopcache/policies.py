"""Replacement policies for the micro-op cache.

The paper's Figure 5 experiment shows the real policy is driven by
*hotness*, not recency: an evicting loop only displaces a resident loop
once its iteration count is commensurate with the resident loop's, and
displacement is gradual rather than all-at-once.  The mechanism is
undocumented; :class:`HotnessPolicy` is our hypothesis that reproduces
the observed matrix (see DESIGN.md): saturating per-line access
counters worn down by a rotating decrement hand on misses, with
eviction only of fully-cooled lines.  :class:`LRUPolicy` exists for the
ablation benchmark, and demonstrates how much *more* a hotness policy
leaks -- occupancy under hotness encodes access *counts*, not just
access facts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.uopcache.line import UopCacheLine


class ReplacementPolicy:
    """Interface: decides hit bookkeeping and victims for fills.

    ``state`` is a per-set scratch dict owned by the policy (e.g. the
    CLOCK hand); the cache passes the same dict for every call about
    one set.  A policy whose line ``hotness`` should age sets
    ``decay_interval``: the cache then halves every line's hotness
    once per that many accesses to its set (0: no aging).
    """

    name = "abstract"
    decay_interval = 0

    def on_hit_region(self, lines: List[UopCacheLine], tick: int) -> None:
        """Bookkeeping when a region's ``lines`` are streamed (one call
        per hit, not per line)."""
        raise NotImplementedError

    def on_fill(self, line: UopCacheLine, tick: int) -> None:
        """Bookkeeping when ``line`` is installed."""
        raise NotImplementedError

    def choose_victim(
        self, ways: List[UopCacheLine], tick: int, state: Dict
    ) -> Optional[UopCacheLine]:
        """Pick a line to evict from a full set.

        Returning ``None`` means "refuse this fill for now"; the policy
        may still age the set as a side effect, which is how wear-down
        works.
        """
        raise NotImplementedError

    def on_evict(self, line: UopCacheLine, state: Dict) -> None:
        """Bookkeeping when ``line`` leaves the set -- whether as a
        fill victim or through external interference
        (:meth:`UopCache.evict_random`).

        The default is a no-op: both bundled policies keep per-line
        state on the line itself, and the CLOCK hand is taken modulo
        the live way count, so a disappearing way needs no repair.
        Stateful policies (e.g. tree-PLRU over way indices) override
        this to keep their ``state`` dict consistent.
        """


class HotnessPolicy(ReplacementPolicy):
    """Saturating-counter hotness replacement with rotating wear-down.

    - every streaming hit increments the line's counter (saturating at
      ``cap``);
    - a conflicting fill first looks for a fully-cooled line
      (counter 0) and evicts the stalest one if found;
    - otherwise it decrements the line under a per-set rotating hand
      and *bypasses* the fill;
    - every ``decay_interval`` accesses to a set halve its counters
      (the cache applies this, lazily per set), so hotness reflects
      *recent* streaming frequency rather than all-time totals.

    The rotation distributes wear across all ways, so an evicting loop
    with E iterations removes a resident loop of M iterations only as
    E approaches M -- the diagonal structure of Figure 5.  It also
    means occupancy after an attack encodes *how many times* the victim
    executed, the amplified leak the paper highlights.
    """

    name = "hotness"

    def __init__(self, cap: int = 8, initial: int = 1,
                 decay_interval: int = 96):
        self.cap = cap
        self.initial = initial
        self.decay_interval = decay_interval

    def on_hit_region(self, lines: List[UopCacheLine], tick: int) -> None:
        """Streaming hit: bump each line's saturating counter."""
        cap = self.cap
        for line in lines:
            hotness = line.hotness + 1
            line.hotness = hotness if hotness < cap else cap
            line.lru_tick = tick

    def on_fill(self, line: UopCacheLine, tick: int) -> None:
        """Fresh fill: start at the initial hotness."""
        line.hotness = self.initial
        line.lru_tick = tick

    def choose_victim(
        self, ways: List[UopCacheLine], tick: int, state: Dict
    ) -> Optional[UopCacheLine]:
        """Evict the stalest cooled line (the first, on a tie), else
        wear one down and refuse the fill."""
        victim = None
        for line in ways:
            if line.hotness <= 0 and (
                victim is None or line.lru_tick < victim.lru_tick
            ):
                victim = line
        if victim is not None:
            return victim
        hand = state.get("hand", 0)
        ways[hand % len(ways)].hotness -= 1
        state["hand"] = hand + 1
        return None


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement (ablation baseline).

    Always admits the fill, evicting the least recently streamed line.
    Under LRU a *single* conflicting fetch evicts a resident line, so a
    probe only learns "was it accessed", not "how many times".
    """

    name = "lru"

    def on_hit_region(self, lines: List[UopCacheLine], tick: int) -> None:
        """Refresh recency."""
        for line in lines:
            line.lru_tick = tick

    def on_fill(self, line: UopCacheLine, tick: int) -> None:
        """Record insertion recency."""
        line.lru_tick = tick

    def choose_victim(
        self, ways: List[UopCacheLine], tick: int, state: Dict
    ) -> Optional[UopCacheLine]:
        """Always evict the least recently streamed line."""
        return min(ways, key=lambda l: l.lru_tick)


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Factory: ``"hotness"`` or ``"lru"``."""
    if name == "hotness":
        return HotnessPolicy(**kwargs)
    if name == "lru":
        return LRUPolicy(**kwargs)
    raise ValueError(f"unknown replacement policy {name!r}")
