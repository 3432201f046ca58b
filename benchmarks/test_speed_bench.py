"""Simulator speed suite, emitted as a tracked JSON artifact.

``BENCH_speed.json`` (next to this file) is committed to the
repository so the simulation-speed trajectory is visible across PRs.
It records cold (construct + first trial) and warm (steady-state
reset-loop) trial throughput on the covert-channel receiver workload.
Regenerate with ``pytest benchmarks/test_speed_bench.py --benchmark-only -s``.

Timings are rounded coarsely in the artifact: unlike the simulator's
deterministic cycle counts, host seconds vary run to run, and the
file should churn only when simulation speed changes materially.
"""

import json
import pathlib
import time

from benchmarks.conftest import banner, run_once
from repro.core.covert import ChannelParams, CovertChannel

ARTIFACT = pathlib.Path(__file__).with_name("BENCH_speed.json")

WARM_TRIALS = 60


def _trial(chan: CovertChannel) -> int:
    """One receiver episode: prime, then the timed probe pass."""
    chan._prime()
    return chan._probe_time()


def _measure() -> dict:
    """Cold + warm throughput of the receiver loop."""
    start = time.monotonic()
    chan = CovertChannel(ChannelParams())
    first = _trial(chan)
    cold_seconds = time.monotonic() - start

    start = time.monotonic()
    results = []
    for _ in range(WARM_TRIALS):
        chan.reset()
        results.append(_trial(chan))
    warm_seconds = time.monotonic() - start

    # Reset parity: every warm trial repeats the first bit-identically.
    assert all(r == first for r in results)
    return {
        "cold_seconds": cold_seconds,
        "warm_trials_per_sec": WARM_TRIALS / warm_seconds,
    }


def test_speed_artifact(benchmark):
    m = run_once(benchmark, _measure)
    banner("Simulator speed -- covert receiver loop, cold + warm")
    print(f"  cold {m['cold_seconds']:6.2f}s   "
          f"warm {m['warm_trials_per_sec']:9.1f} trials/s")

    doc = {
        "workload": f"covert receiver loop, {WARM_TRIALS} warm trials",
        "reference": {
            "cold_seconds": round(m["cold_seconds"], 2),
            "warm_trials_per_sec": round(m["warm_trials_per_sec"], -1),
        },
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {ARTIFACT}")

    benchmark.extra_info["warm_trials_per_sec"] = m["warm_trials_per_sec"]
