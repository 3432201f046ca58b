"""Harness acceptance benchmarks: parallel speedup and warm-cache
replay.

- A ``--jobs 4`` characterize sweep must beat serial wall-clock on a
  multi-core runner (skipped gracefully on a single-CPU box).
- An immediately repeated run against the same cache must execute
  **zero** simulations -- everything replayed from the store.
"""

import os
import time

import pytest

from benchmarks.conftest import banner, run_once
from repro.harness import ResultCache, run_jobs
from repro.harness.experiments import characterize_sweeps


def _fig3a_jobs():
    # Enough work per job for pool overheads to amortise.
    return characterize_sweeps(fast=False)["fig3a_size"].jobs()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs >= 2 CPUs",
)
def test_parallel_beats_serial(benchmark):
    jobs = _fig3a_jobs()

    start = time.monotonic()
    serial_outcomes, _ = run_jobs(jobs, workers=1, cache=None)
    serial_seconds = time.monotonic() - start

    def parallel():
        return run_jobs(jobs, workers=4, cache=None)

    parallel_outcomes, summary = run_once(benchmark, parallel)
    parallel_seconds = summary.wall_seconds

    banner("Harness speedup -- Figure 3a sweep, serial vs 4 workers")
    print(f"  serial:   {serial_seconds:8.2f}s for {len(jobs)} jobs")
    print(f"  parallel: {parallel_seconds:8.2f}s "
          f"({serial_seconds / max(parallel_seconds, 1e-9):.2f}x)")

    assert [o.result for o in parallel_outcomes] == [
        o.result for o in serial_outcomes
    ]
    assert parallel_seconds < serial_seconds
    benchmark.extra_info["speedup"] = serial_seconds / parallel_seconds


def test_warm_cache_executes_nothing(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    jobs = _fig3a_jobs()

    _, cold = run_jobs(jobs, workers=2, cache=cache)
    assert cold.executed == len(jobs)

    warm_outcomes, warm = run_once(
        benchmark, lambda: run_jobs(jobs, workers=2, cache=cache)
    )
    banner("Harness warm-cache replay -- Figure 3a sweep")
    print(f"  cold: {cold.format()}")
    print(f"  warm: {warm.format()}")

    assert warm.executed == 0, "warm re-run must run zero simulations"
    assert warm.cached == len(jobs)
    assert warm.failed == 0
    assert all(o.from_cache for o in warm_outcomes)
    assert warm.wall_seconds < max(1.0, cold.wall_seconds / 5)
