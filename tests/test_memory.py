"""Tests for caches, main memory, the TLB, and the hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import PAGE_SIZE, MainMemory
from repro.memory.tlb import TLB


class TestCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", sets=3, ways=2)
        with pytest.raises(ValueError):
            Cache("bad", sets=4, ways=0)
        with pytest.raises(ValueError):
            Cache("bad", sets=4, ways=2, line_size=48)

    def test_miss_then_hit(self):
        cache = Cache("t", sets=4, ways=2)
        assert not cache.lookup(0x100)
        cache.fill(0x100)
        assert cache.lookup(0x100)
        assert cache.stats.refs == 2
        assert cache.stats.misses == 1

    def test_same_line_aliases(self):
        cache = Cache("t", sets=4, ways=2, line_size=64)
        cache.fill(0x100)
        assert cache.lookup(0x13F)  # same 64-byte line
        assert not cache.lookup(0x140)

    def test_lru_eviction_order(self):
        cache = Cache("t", sets=1, ways=2, line_size=64)
        cache.fill(0x000)
        cache.fill(0x040)
        cache.lookup(0x000)  # make 0x000 most recent
        victim = cache.fill(0x080)
        assert victim == 0x040

    def test_evict_hook_fires(self):
        evicted = []
        cache = Cache("t", sets=1, ways=1, line_size=64,
                      on_evict=evicted.append)
        cache.fill(0x000)
        cache.fill(0x040)
        assert evicted == [0x000]

    def test_invalidate(self):
        cache = Cache("t", sets=4, ways=2)
        cache.fill(0x100)
        assert cache.invalidate(0x100)
        assert not cache.probe(0x100)
        assert not cache.invalidate(0x100)

    def test_flush_clears_everything(self):
        cache = Cache("t", sets=4, ways=2)
        for i in range(8):
            cache.fill(i * 64)
        cache.flush()
        assert cache.occupancy() == 0

    def test_probe_does_not_perturb(self):
        cache = Cache("t", sets=1, ways=2, line_size=64)
        cache.fill(0x000)
        cache.fill(0x040)
        refs = cache.stats.refs
        cache.probe(0x000)  # must NOT refresh LRU or count a ref
        assert cache.stats.refs == refs
        victim = cache.fill(0x080)
        assert victim == 0x000

    # Sets are allocated on first fill; these pin the order the lazy
    # layout must keep (set index, never fill order).

    def test_flush_fires_evict_hook_in_set_order(self):
        evicted = []
        cache = Cache("t", sets=8, ways=2, line_size=64,
                      on_evict=evicted.append)
        fills = [0x1C0, 0x040, 0x380, 0x100, 0x000, 0x240]
        for addr in fills:
            cache.fill(addr)
        cache.flush()
        assert evicted == sorted(fills, key=lambda a: ((a // 64) % 8, a))
        assert cache.occupancy() == 0
        assert cache.resident_lines() == []

    def test_resident_lines_in_set_order(self):
        cache = Cache("t", sets=4, ways=2, line_size=64)
        for addr in (0x0C0, 0x000, 0x080, 0x100):  # sets 3, 0, 2, 0
            cache.fill(addr)
        # set 0 holds 0x000 then 0x100 (MRU last), then sets 2 and 3
        assert cache.resident_lines() == [0x000, 0x100, 0x080, 0x0C0]

    def test_reset_empties_every_set(self):
        cache = Cache("t", sets=4, ways=2)
        for i in range(8):
            cache.fill(i * 64)
        cache.lookup(0)
        cache.reset()
        assert cache.occupancy() == 0
        assert cache.resident_lines() == []
        assert cache.stats.refs == 0
        assert cache.stats.flushes == 0

    def test_untouched_sets_are_not_allocated(self):
        cache = Cache("t", sets=1024, ways=4)
        assert not cache.lookup(0x4000)
        assert not cache.probe(0x8040)
        assert not cache.invalidate(0xC080)
        assert cache._lines == {}
        cache.fill(0x4000)
        assert list(cache._lines) == [cache._index(0x4000)]
        assert cache.stats.refs == 1 and cache.stats.misses == 1

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 16), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache("t", sets=4, ways=2, line_size=64)
        for addr in addrs:
            if not cache.lookup(addr):
                cache.fill(addr)
            assert cache.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 12), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_most_recent_fill_always_resident(self, addrs):
        cache = Cache("t", sets=2, ways=2, line_size=64)
        for addr in addrs:
            cache.fill(addr)
            assert cache.probe(addr)


class TestMainMemory:
    def test_sparse_zero_default(self):
        mem = MainMemory()
        assert mem.read(0x12345, 8) == 0

    def test_little_endian_roundtrip(self):
        mem = MainMemory()
        mem.write(0x100, 0x0123456789ABCDEF, 8)
        assert mem.read(0x100, 8) == 0x0123456789ABCDEF
        assert mem.read(0x100, 1) == 0xEF
        assert mem.read(0x107, 1) == 0x01

    def test_partial_overwrite(self):
        mem = MainMemory()
        mem.write(0x100, 0xFFFFFFFFFFFFFFFF, 8)
        mem.write(0x102, 0x00, 1)
        assert mem.read(0x100, 8) == 0xFFFFFFFFFF00FFFF

    def test_load_image(self):
        mem = MainMemory()
        mem.load_image(0x200, b"\x01\x02\x03")
        assert mem.read_bytes(0x200, 3) == b"\x01\x02\x03"

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=255),
            max_size=64,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_model(self, writes):
        mem = MainMemory()
        for addr, val in writes.items():
            mem.write(addr, val, 1)
        for addr, val in writes.items():
            assert mem.read(addr, 1) == val


#: Addresses within 16 bytes either side of a page boundary, half of
#: them in the last 8 bytes of a page, where a wide access straddles.
_NEAR_PAGE_EDGE = st.builds(
    lambda page, delta: page * PAGE_SIZE + delta,
    st.sampled_from([1, 2, 3]),
    st.one_of(st.sampled_from(range(-8, 0)), st.sampled_from(range(-16, 17))),
)

#: 72-bit values, wider than any access; XOR-ed with a pattern so the
#: small values Hypothesis favours still have no zero bytes to hide a
#: lost one.
_WIDE_VALUE = st.integers(min_value=0, max_value=2**72 - 1).map(
    lambda v: v ^ 0x5A_A55A_A55A_A55A_A55A)

_WRITE = st.tuples(st.just("write"), _NEAR_PAGE_EDGE,
                   st.sampled_from([1, 2, 4, 8]), _WIDE_VALUE)
_IMAGE = st.tuples(st.just("image"), _NEAR_PAGE_EDGE,
                   st.integers(min_value=1, max_value=2 * PAGE_SIZE + 40),
                   st.integers(min_value=0, max_value=255))
_READ = st.tuples(st.just("read"), _NEAR_PAGE_EDGE,
                  st.sampled_from([1, 2, 4, 8]))

#: Mostly writes, so most examples hold a word that straddles a page.
_MEMORY_OPS = st.lists(
    st.one_of(_WRITE, _WRITE, _WRITE, _IMAGE, _READ,
              st.tuples(st.just("clear"))),
    min_size=4, max_size=30,
)


class TestMainMemoryPages:
    """The page-backed memory against a plain byte dict, at page edges."""

    @staticmethod
    def _read(ref, addr, size):
        return sum(ref.get(addr + i, 0) << (8 * i) for i in range(size))

    @given(_MEMORY_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_byte_dict_across_pages(self, ops):
        mem, ref = MainMemory(), {}
        touched = set()
        for op in ops:
            if op[0] == "write":
                _, addr, size, value = op
                mem.write(addr, value, size)
                for i in range(size):
                    ref[addr + i] = (value >> (8 * i)) & 0xFF
                touched.add(addr)
            elif op[0] == "image":
                _, addr, length, salt = op
                payload = bytes((salt + 7 * i) & 0xFF for i in range(length))
                mem.load_image(addr, payload)
                for i, b in enumerate(payload):
                    ref[addr + i] = b
                touched.update((addr, addr + length - 4))
            elif op[0] == "read":
                _, addr, size = op
                assert mem.read(addr, size) == self._read(ref, addr, size)
            else:
                mem.clear()
                ref.clear()
        for page in range(1, 4):
            touched.update(page * PAGE_SIZE + d for d in (-9, -4, -1, 0, 3))
        for addr in sorted(touched):
            for size in (1, 2, 4, 8):
                assert mem.read(addr, size) == self._read(ref, addr, size)
            expected = bytes(ref.get(addr + i, 0) for i in range(24))
            assert mem.read_bytes(addr, 24) == expected

    def test_straddling_word_splits_across_pages(self):
        mem = MainMemory()
        mem.write(PAGE_SIZE - 3, 0x1122334455667788, 8)
        assert mem.read(PAGE_SIZE - 3, 3) == 0x667788
        assert mem.read(PAGE_SIZE, 5) == 0x1122334455
        assert mem.read(PAGE_SIZE - 3, 8) == 0x1122334455667788

    def test_multi_page_image_then_clear(self):
        mem = MainMemory()
        payload = bytes(range(256)) * 40  # 10 KiB over three pages
        mem.load_image(PAGE_SIZE - 100, payload)
        assert mem.read_bytes(PAGE_SIZE - 100, len(payload)) == payload
        mem.clear()
        assert mem.read_bytes(PAGE_SIZE - 100, len(payload)) == bytes(
            len(payload))


class TestTLB:
    def test_miss_costs_walk(self):
        tlb = TLB(entries=2, walk_latency=30)
        assert tlb.access(0x1000) == 30
        assert tlb.access(0x1234) == 0  # same page

    def test_capacity_lru(self):
        tlb = TLB(entries=2)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # refresh page 0
        tlb.access(0x2000)  # evicts page 1
        assert tlb.access(0x0500) == 0
        assert tlb.access(0x1800) == tlb.walk_latency

    def test_flush_triggers_callback(self):
        fired = []
        tlb = TLB(on_flush=lambda: fired.append(True))
        tlb.access(0x1000)
        tlb.flush()
        assert fired == [True]
        assert tlb.access(0x1000) == tlb.walk_latency

    @given(
        entries=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("access"), st.integers(0, 9 * 4096 - 1)),
                st.tuples(st.sampled_from(["flush", "reset"])),
            ),
            max_size=80,
        ),
    )
    def test_matches_list_lru_reference(self, entries, ops):
        """Latency, ``refs``, ``misses``, ``flushes`` and the resident
        pages in eviction order match a plain-list LRU: a hit moves the
        page to the back, a miss at capacity drops the front one."""
        flushed = []
        tlb = TLB(entries=entries, walk_latency=30,
                  on_flush=lambda: flushed.append(True))
        pages, refs, misses, flushes = [], 0, 0, 0
        for op in ops:
            if op[0] == "access":
                page = op[1] // 4096
                refs += 1
                if page in pages:
                    pages.remove(page)
                    want = 0
                else:
                    misses += 1
                    if len(pages) >= entries:
                        pages.pop(0)
                    want = 30
                pages.append(page)
                assert tlb.access(op[1]) == want
            elif op[0] == "flush":
                tlb.flush()
                pages.clear()
                flushes += 1
            else:
                tlb.reset()
                pages, refs, misses, flushes = [], 0, 0, 0
            assert list(tlb._pages) == pages  # oldest (next victim) first
            assert (tlb.refs, tlb.misses, tlb.flushes) == (refs, misses, flushes)
        assert len(flushed) == sum(op[0] == "flush" for op in ops)


class TestHierarchy:
    def test_latency_ordering(self):
        h = MemoryHierarchy()
        first = h.access_data(0x1000)
        assert first.level == "DRAM"
        second = h.access_data(0x1000)
        assert second.level == "L1"
        assert second.latency < first.latency

    def test_fill_propagates_down(self):
        h = MemoryHierarchy()
        h.access_data(0x1000)
        assert h.l1d.probe(0x1000)
        assert h.l2.probe(0x1000)
        assert h.llc.probe(0x1000)

    def test_clflush_removes_everywhere(self):
        h = MemoryHierarchy()
        h.access_data(0x1000)
        h.clflush(0x1000)
        assert not h.l1d.probe(0x1000)
        assert not h.l2.probe(0x1000)
        assert not h.llc.probe(0x1000)
        assert h.access_data(0x1000).level == "DRAM"

    def test_llc_back_invalidates_l1(self):
        h = MemoryHierarchy()
        h.access_data(0x1000)
        h.llc.invalidate(0x1000)
        assert not h.l1d.probe(0x1000)

    def test_l1i_evict_hook(self):
        evicted = []
        h = MemoryHierarchy(on_l1i_evict=evicted.append)
        h.access_inst(0x1000)
        h.l1i.invalidate(0x1000)
        assert 0x1000 in evicted

    def test_inst_and_data_paths_are_split(self):
        h = MemoryHierarchy()
        h.access_inst(0x1000)
        assert h.l1i.probe(0x1000)
        assert not h.l1d.probe(0x1000)

    def test_itlb_miss_adds_latency(self):
        h = MemoryHierarchy()
        warm = h.access_inst(0x1000)  # walks the page
        h.l1i.invalidate(0x1000)
        h.l2.invalidate(0x1000)
        h.llc.invalidate(0x1000)
        cold_tlb_hit = h.access_inst(0x1000)
        assert warm.latency > cold_tlb_hit.latency  # first had the walk

    def test_probe_data_latency_is_passive(self):
        h = MemoryHierarchy()
        assert h.probe_data_latency(0x1000) == h.dram_latency
        h.access_data(0x1000)
        assert h.probe_data_latency(0x1000) == h.l1d.latency
