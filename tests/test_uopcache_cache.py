"""Micro-op cache organisation tests: lookup/fill, streaming tags,
partitioning geometry, inclusion, and replacement policies."""

import random

import pytest

from repro.isa import encodings as enc
from repro.uopcache.cache import UopCache
from repro.uopcache.placement import LineSpec, build_lines
from repro.uopcache.policies import HotnessPolicy, LRUPolicy, make_policy


def specs_for(n_uops: int):
    """Pack ``n_uops`` one-byte NOPs into line specs."""
    macros = [enc.nop(1) for _ in range(n_uops)]
    addr = 0
    for m in macros:
        m.bind(addr)
        addr += 1
    return build_lines(macros)


def entry_for_set(set_idx: int, way: int = 0, sets: int = 32) -> int:
    return 0x40_0000 + way * sets * 32 + set_idx * 32


class TestLookupFill:
    def test_miss_then_hit(self):
        uc = UopCache()
        entry = entry_for_set(3)
        assert uc.lookup(0, entry) is None
        assert uc.fill(0, entry, specs_for(4))
        lines = uc.lookup(0, entry)
        assert lines is not None
        assert sum(l.uop_count for l in lines) == 4

    def test_multi_line_region_all_or_nothing(self):
        uc = UopCache()
        entry = entry_for_set(0)
        specs = specs_for(14)  # 3 lines
        assert len(specs) == 3
        uc.fill(0, entry, specs)
        assert uc.lookup(0, entry) is not None
        # noise drops one of the region's lines -> whole region must miss
        assert uc.evict_random(random.Random(0))
        assert uc.occupancy() == 2
        assert uc.lookup(0, entry) is None

    def test_distinct_entries_same_region_have_distinct_tags(self):
        uc = UopCache()
        uc.fill(0, 0x40_0000, specs_for(3))
        assert uc.lookup(0, 0x40_0001) is None

    def test_refill_replaces_in_place(self):
        uc = UopCache()
        entry = entry_for_set(5)
        uc.fill(0, entry, specs_for(3))
        uc.fill(0, entry, specs_for(3))
        assert uc.set_occupancy(uc.set_index(entry, 0)) == 1

    def test_refill_evicting_its_own_stale_line_hits(self):
        uc = UopCache(policy=LRUPolicy())
        entry = entry_for_set(0)
        uc.fill(0, entry, specs_for(7))  # seq 0 and seq 1
        for way in range(1, 8):  # fill the set; the last evicts seq 0
            uc.fill(0, entry_for_set(0, way), specs_for(1))
        assert [l.seq for l in uc.lines_in_set(0) if l.entry == entry] == [1]
        # The refill's victim is the leftover seq 1 of the same entry.
        assert uc.fill(0, entry, specs_for(1))
        assert [l.seq for l in uc.lines_in_set(0) if l.entry == entry] == [0]
        assert uc.lookup(0, entry) is not None

    def test_rejects_oversized_region(self):
        uc = UopCache()
        assert not uc.fill(0, 0x40_0000, [LineSpec((), 6)] * 4)

    def test_capacity_numbers(self):
        uc = UopCache()
        assert uc.capacity_lines == 256
        assert uc.capacity_uops == 1536


class TestSetIndex:
    def test_bits_5_to_9(self):
        uc = UopCache()
        assert uc.set_index(0x40_0000, 0) == 0
        assert uc.set_index(0x40_0020, 0) == 1
        assert uc.set_index(0x40_0000 + 31 * 32, 0) == 31
        assert uc.set_index(0x40_0400, 0) == 0  # wraps at 1024

    def test_static_smt_halves_sets(self):
        uc = UopCache(sharing="static")
        uc.set_smt_active(True)
        idx_t0 = uc.set_index(entry_for_set(20), 0)
        idx_t1 = uc.set_index(entry_for_set(20), 1)
        assert idx_t0 < 16 <= idx_t1
        assert idx_t0 == 20 % 16

    def test_competitive_smt_shares_all_sets(self):
        uc = UopCache(sharing="competitive")
        uc.set_smt_active(True)
        assert uc.set_index(entry_for_set(20), 0) == 20
        assert uc.set_index(entry_for_set(20), 1) == 20

    def test_privilege_partition(self):
        uc = UopCache(privilege_partition=True)
        user = uc.set_index(entry_for_set(5), 0, privilege=3)
        kern = uc.set_index(entry_for_set(5), 0, privilege=0)
        assert user != kern
        assert {user, kern} == {5 % 16, 5 % 16 + 16}


class TestSMTMode:
    def test_toggle_flushes_static(self):
        uc = UopCache(sharing="static")
        uc.fill(0, entry_for_set(0), specs_for(3))
        uc.set_smt_active(True)
        assert uc.occupancy() == 0

    def test_toggle_preserves_competitive(self):
        uc = UopCache(sharing="competitive")
        uc.fill(0, entry_for_set(0), specs_for(3))
        uc.set_smt_active(True)
        assert uc.occupancy() == 1

    def test_static_threads_cannot_evict_each_other(self):
        uc = UopCache(sharing="static")
        uc.set_smt_active(True)
        for way in range(8):
            assert uc.fill(0, entry_for_set(0, way), specs_for(6))
        occupancy_before = uc.occupancy()
        for way in range(8):
            uc.fill(1, entry_for_set(0, way), specs_for(6))
        # thread 0's lines are all still resident
        for way in range(8):
            assert uc.lookup(0, entry_for_set(0, way)) is not None
        assert uc.occupancy() == occupancy_before + 8

    def test_competitive_threads_do_evict_each_other(self):
        uc = UopCache(sharing="competitive", policy=LRUPolicy())
        uc.set_smt_active(True)
        for way in range(8):
            uc.fill(0, entry_for_set(0, way), specs_for(6))
        for way in range(8):
            uc.fill(1, entry_for_set(0, way), specs_for(6))
        survivors = sum(
            1 for way in range(8)
            if uc.lookup(0, entry_for_set(0, way)) is not None
        )
        assert survivors == 0


class TestInclusion:
    def test_invalidate_code_range(self):
        uc = UopCache()
        uc.fill(0, 0x40_0000, specs_for(3))
        uc.fill(0, 0x40_0020, specs_for(3))
        uc.fill(0, 0x40_0040, specs_for(3))
        dropped = uc.invalidate_code_range(0x40_0000, 0x40_0040)
        assert dropped == 2
        assert uc.lookup(0, 0x40_0000) is None
        assert uc.lookup(0, 0x40_0040) is not None

    def test_flush(self):
        uc = UopCache()
        uc.fill(0, 0x40_0000, specs_for(3))
        uc.flush()
        assert uc.occupancy() == 0
        assert uc.stats.flushes == 1


class TestHotnessPolicy:
    def test_fill_bypassed_until_worn(self):
        uc = UopCache(policy=HotnessPolicy(decay_interval=0))
        for way in range(8):
            uc.fill(0, entry_for_set(0, way), specs_for(6))
        # heat the residents
        for _ in range(4):
            for way in range(8):
                uc.lookup(0, entry_for_set(0, way))
        filled = uc.fill(0, entry_for_set(0, 9), specs_for(6))
        assert not filled  # first conflicting fill is bypassed
        assert uc.stats.fill_rejects >= 1

    def test_wear_down_eventually_evicts(self):
        uc = UopCache(policy=HotnessPolicy(decay_interval=0))
        for way in range(8):
            uc.fill(0, entry_for_set(0, way), specs_for(6))
        for attempt in range(100):
            if uc.fill(0, entry_for_set(0, 9), specs_for(6)):
                break
        else:
            pytest.fail("wear-down never admitted the fill")
        assert uc.lookup(0, entry_for_set(0, 9)) is not None

    def test_hot_lines_survive_longer(self):
        def evictions_until_displaced(heat: int) -> int:
            uc = UopCache(policy=HotnessPolicy(decay_interval=0))
            for way in range(8):
                uc.fill(0, entry_for_set(0, way), specs_for(6))
            for _ in range(heat):
                for way in range(8):
                    uc.lookup(0, entry_for_set(0, way))
            target = entry_for_set(0, 0)
            attempts = 0
            # passive residency check: lookup() would re-heat the line
            while any(l.entry == target for l in uc.lines_in_set(0)):
                attempts += 1
                uc.fill(0, entry_for_set(0, 8 + attempts), specs_for(6))
                if attempts > 500:
                    break
            return attempts

        assert evictions_until_displaced(6) > evictions_until_displaced(1)

    def test_decay_cools_lines(self):
        policy = HotnessPolicy(cap=8, decay_interval=4)
        uc = UopCache(policy=policy)
        uc.fill(0, entry_for_set(0, 0), specs_for(6))
        for _ in range(8):
            uc.lookup(0, entry_for_set(0, 0))
        line = uc.lines_in_set(0)[0]
        hot_before = line.hotness
        # touch other sets to advance the global tick
        for i in range(1, 30):
            uc.fill(0, entry_for_set(i), specs_for(3))
        uc.lookup(0, entry_for_set(0, 0))
        assert line.hotness <= hot_before


class TestLRUPolicy:
    def test_single_fill_evicts(self):
        uc = UopCache(policy=LRUPolicy())
        for way in range(8):
            uc.fill(0, entry_for_set(0, way), specs_for(6))
        for _ in range(10):  # heat them; LRU must not care
            for way in range(8):
                uc.lookup(0, entry_for_set(0, way))
        assert uc.fill(0, entry_for_set(0, 9), specs_for(6))

    def test_evicts_least_recently_streamed(self):
        uc = UopCache(policy=LRUPolicy())
        for way in range(8):
            uc.fill(0, entry_for_set(0, way), specs_for(6))
        for way in range(1, 8):
            uc.lookup(0, entry_for_set(0, way))  # way 0 now LRU
        uc.fill(0, entry_for_set(0, 9), specs_for(6))
        assert uc.lookup(0, entry_for_set(0, 0)) is None


def test_make_policy_factory():
    assert isinstance(make_policy("hotness"), HotnessPolicy)
    assert isinstance(make_policy("lru"), LRUPolicy)
    with pytest.raises(ValueError):
        make_policy("random")


def test_stats_accounting():
    uc = UopCache()
    entry = entry_for_set(0)
    uc.lookup(0, entry)
    uc.fill(0, entry, specs_for(3))
    uc.lookup(0, entry)
    assert uc.stats.lookups == 2
    assert uc.stats.misses == 1
    assert uc.stats.hits == 1
    assert uc.stats.lines_filled == 1
    assert 0 < uc.stats.hit_rate < 1
