"""CPU configuration, counters and noise-model tests."""

from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from repro.cpu.config import CPUConfig
from repro.cpu.counters import PerfCounters
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.uopcache.cache import UopCache

COUNTER_FIELDS = [f.name for f in fields(PerfCounters)]


class TestConfig:
    def test_skylake_defaults(self):
        c = CPUConfig.skylake()
        assert c.uop_cache_sets == 32
        assert c.uop_cache_ways == 8
        assert c.uops_per_line == 6
        assert c.uop_cache_capacity == 1536
        assert c.uop_cache_sharing == "static"

    def test_zen_preset(self):
        c = CPUConfig.zen()
        assert c.decode_style == "zen"
        assert c.msrom_threshold == 2
        assert c.uop_cache_sharing == "competitive"
        assert c.uop_cache_capacity == 2048

    def test_sunny_cove_is_one_point_five_x(self):
        skl = CPUConfig.skylake()
        snc = CPUConfig.sunny_cove()
        assert snc.uop_cache_capacity == pytest.approx(
            1.5 * skl.uop_cache_capacity
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            CPUConfig(decode_style="arm")
        with pytest.raises(ConfigError):
            CPUConfig(uop_cache_sharing="round-robin")
        with pytest.raises(ConfigError):
            CPUConfig(uop_cache_sets=33)

    def test_with_options(self):
        base = CPUConfig.skylake()
        derived = base.with_options(uop_cache_policy="lru")
        assert derived.uop_cache_policy == "lru"
        assert base.uop_cache_policy == "hotness"

    def test_cycles_to_seconds(self):
        c = CPUConfig.skylake()
        assert c.cycles_to_seconds(int(2.7e9)) == pytest.approx(1.0)


class TestCounters:
    def test_snapshot_delta(self):
        c = PerfCounters()
        c.uops_dsb = 10
        snap = c.snapshot()
        c.uops_dsb = 25
        c.uops_mite = 5
        delta = c.delta(snap)
        assert delta.uops_dsb == 15
        assert delta.uops_mite == 5

    @given(
        now=st.lists(st.integers(-2**40, 2**40), min_size=len(COUNTER_FIELDS),
                     max_size=len(COUNTER_FIELDS)),
        then=st.lists(st.integers(-2**40, 2**40), min_size=len(COUNTER_FIELDS),
                      max_size=len(COUNTER_FIELDS)),
    )
    def test_snapshot_and_delta_cover_every_field(self, now, then):
        c = PerfCounters(**dict(zip(COUNTER_FIELDS, now)))
        since = PerfCounters(**dict(zip(COUNTER_FIELDS, then)))
        snap = c.snapshot()
        assert snap is not c
        assert [getattr(snap, name) for name in COUNTER_FIELDS] == now
        delta = c.delta(since)
        assert [getattr(delta, name) for name in COUNTER_FIELDS] == [
            a - b for a, b in zip(now, then)]
        # Neither call changed its operands, and the snapshot is a copy.
        assert [getattr(c, name) for name in COUNTER_FIELDS] == now
        assert [getattr(since, name) for name in COUNTER_FIELDS] == then
        for name in COUNTER_FIELDS:
            setattr(c, name, getattr(c, name) + 1)
        assert [getattr(snap, name) for name in COUNTER_FIELDS] == now

    def test_derived_views(self):
        c = PerfCounters(uops_dsb=10, uops_mite=3, uops_msrom=2)
        assert c.uops_total == 15
        assert c.uops_legacy == 5

    def test_reset_and_dict(self):
        c = PerfCounters(uops_dsb=7)
        c.reset()
        assert c.uops_dsb == 0
        assert "uops_dsb" in c.as_dict()


class TestNoise:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(evict_prob=1.5)

    def test_deterministic_by_seed(self):
        a = NoiseModel(jitter_sd=10.0, seed=42)
        b = NoiseModel(jitter_sd=10.0, seed=42)
        assert [a.rdtsc_jitter() for _ in range(10)] == [
            b.rdtsc_jitter() for _ in range(10)
        ]

    def test_zero_noise_is_silent(self):
        nm = NoiseModel()
        assert nm.rdtsc_jitter() == 0
        uc = UopCache()
        nm.maybe_evict(uc)  # no-op on empty cache, no crash

    def test_eviction_reduces_occupancy(self):
        from tests.test_uopcache_cache import entry_for_set, specs_for

        nm = NoiseModel(evict_prob=1.0, seed=1)
        uc = UopCache()
        uc.fill(0, entry_for_set(0), specs_for(3))
        nm.maybe_evict(uc)
        assert uc.occupancy() == 0
