"""Simulator speed and session reuse, emitted as a tracked JSON artifact.

The attack-session layer reuses one ``Core`` across trials via
``reset()`` -- keeping the assembled program and the front end's
decode memos -- instead of re-assembling and rebuilding per trial.
On the covert-channel receiver loop (prime the tiger footprint, run
the timed probe) the reuse path must deliver at least **2x** the
trial throughput of a rebuild-per-trial loop, while producing
bit-identical measurements (reset parity is the oracle that makes
the comparison fair).

``BENCH_speed.json`` (next to this file) is committed to the
repository so the simulation-speed trajectory is visible across
changes.  It records the cold cost (construct + first trial) and the
rebuild and reset-reuse trial throughputs.  Regenerate with
``pytest benchmarks/test_speed_bench.py --benchmark-only -s``.

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

TRIALS = 60


def _trial(chan: CovertChannel) -> int:
    """One receiver episode: prime, then the timed probe pass."""
    chan._prime()
    return chan._probe_time()


def test_reset_reuse_beats_rebuild(benchmark):
    params = ChannelParams()

    start = time.monotonic()
    chan = CovertChannel(params)
    rebuild_results = [_trial(chan)]
    cold_seconds = time.monotonic() - start
    for _ in range(TRIALS - 1):
        chan = CovertChannel(params)
        rebuild_results.append(_trial(chan))
    rebuild_seconds = time.monotonic() - start

    def reuse_loop():
        results = []
        for _ in range(TRIALS):
            chan.reset()
            results.append(_trial(chan))
        return results

    # Same clock as the rebuild loop: ``benchmark.stats`` is None under
    # ``--benchmark-disable``.
    start = time.monotonic()
    reuse_results = run_once(benchmark, reuse_loop)
    reuse_seconds = time.monotonic() - start

    speedup = rebuild_seconds / max(reuse_seconds, 1e-9)
    rebuild_rate = TRIALS / rebuild_seconds
    reuse_rate = TRIALS / max(reuse_seconds, 1e-9)
    banner("Simulator speed -- covert receiver loop, "
           "rebuild vs reset-reuse")
    print(f"  cold (construct + first trial): {cold_seconds:6.3f}s")
    print(f"  rebuild/trial: {TRIALS} trials in {rebuild_seconds:6.2f}s "
          f"({rebuild_rate:7.1f} trials/s)")
    print(f"  reset-reuse:   {TRIALS} trials in {reuse_seconds:6.2f}s "
          f"({reuse_rate:7.1f} trials/s)")
    print(f"  speedup:       {speedup:.2f}x")

    # Reset parity makes the comparison apples-to-apples: every trial
    # starts from the identical post-construction state on both paths.
    assert reuse_results == rebuild_results
    assert speedup >= 2.0, (
        f"reset-reuse must at least double trial throughput "
        f"(got {speedup:.2f}x)"
    )

    doc = {
        "workload": f"covert receiver loop, {TRIALS} trials per path",
        "reference": {
            "cold_seconds": round(cold_seconds, 2),
            "rebuild_trials_per_sec": round(rebuild_rate, -1),
            "warm_trials_per_sec": round(reuse_rate, -1),
        },
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {ARTIFACT}")

    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["rebuild_seconds"] = rebuild_seconds
    benchmark.extra_info["reuse_seconds"] = reuse_seconds
    benchmark.extra_info["warm_trials_per_sec"] = reuse_rate
