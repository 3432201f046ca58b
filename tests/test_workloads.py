"""Workload-suite tests, including the paper's cited micro-op cache
hit-rate behaviour (~80% average, ~100% for hotspots)."""

import pytest

from repro.cpu.config import CPUConfig
from repro.workloads import WORKLOADS, build_workload, run_workload


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_runs(self, name):
        result = run_workload(name, scale=1)
        assert result.cycles > 0
        assert result.counters.retired_uops > 0

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_workload("quake3")


class TestHitRates:
    @pytest.fixture(scope="class")
    def suite(self):
        return {name: run_workload(name) for name in sorted(WORKLOADS)}

    def test_hotspots_stream_entirely_from_dsb(self, suite):
        """Paper (II-B): 'close to 100% for hotspots or tight loops'."""
        for name in ("hot_loop", "hash_loop", "matvec"):
            assert suite[name].dsb_hit_rate > 0.95, name

    def test_capacity_bound_code_misses(self, suite):
        assert suite["large_code"].dsb_hit_rate < 0.20

    def test_average_hit_rate_is_high_but_not_perfect(self, suite):
        """Paper (II-B): ~80% average hit rate across workloads."""
        avg = sum(r.dsb_hit_rate for r in suite.values()) / len(suite)
        assert 0.6 < avg < 1.0

    def test_pointer_chase_is_memory_bound(self, suite):
        r = suite["pointer_chase"]
        assert r.ipc < 1.0
        assert r.counters.l1d_misses > 0

    def test_branchy_mispredicts(self, suite):
        assert suite["branchy"].mispredict_rate > 0.02


class TestMitigationCostOnWorkloads:
    def test_flush_hurts_syscall_heavy_most(self):
        """Section VIII: frequent flushing 'could severely degrade
        performance' -- quantified on real-ish code."""
        base = CPUConfig.skylake()
        flush = CPUConfig.skylake(flush_uop_cache_on_domain_crossing=True)
        slowdowns = {}
        for name in ("hot_loop", "syscall_heavy"):
            cycles_base = run_workload(name, base).cycles
            cycles_flush = run_workload(name, flush).cycles
            slowdowns[name] = cycles_flush / cycles_base
        assert slowdowns["syscall_heavy"] > 1.5
        assert slowdowns["hot_loop"] < 1.05  # no crossings, no cost

    def test_privilege_partition_costs_capacity(self):
        """Halving the user partition hurts code near the capacity
        knee."""
        base = run_workload("large_code", CPUConfig.skylake())
        part = run_workload(
            "large_code",
            CPUConfig.skylake(privilege_partition_uop_cache=True),
        )
        assert part.dsb_hit_rate <= base.dsb_hit_rate + 0.01


class TestDeterminism:
    def test_workloads_are_deterministic(self):
        a = run_workload("interpreter")
        b = run_workload("interpreter")
        assert a.cycles == b.cycles
        assert a.counters.retired_uops == b.counters.retired_uops
