"""Session-layer acceptance benchmark: trial throughput.

The attack-session layer reuses one ``Core`` across trials via
``reset()`` -- keeping the assembled program and the front end's
decode memos -- instead of re-assembling and rebuilding per trial.
On the covert-channel receiver loop (prime the tiger footprint, run
the timed probe) the reuse path must deliver at least **2x** the
trial throughput of a rebuild-per-trial loop, while producing
bit-identical measurements (reset parity is the oracle that makes
the comparison fair).
"""

import time

from benchmarks.conftest import banner, run_once
from repro.core.covert import ChannelParams, CovertChannel

TRIALS = 40


def _trial(chan: CovertChannel) -> int:
    """One receiver episode: prime, then the timed probe pass."""
    chan._prime()
    return chan._probe_time()


def test_reset_reuse_beats_rebuild(benchmark):
    params = ChannelParams()

    start = time.monotonic()
    rebuild_results = []
    for _ in range(TRIALS):
        chan = CovertChannel(params)
        rebuild_results.append(_trial(chan))
    rebuild_seconds = time.monotonic() - start

    chan = CovertChannel(params)

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
    banner("Session throughput -- covert receiver loop, "
           "rebuild vs reset-reuse")
    print(f"  rebuild/trial: {TRIALS} trials in {rebuild_seconds:6.2f}s "
          f"({TRIALS / rebuild_seconds:7.1f} trials/s)")
    print(f"  reset-reuse:   {TRIALS} trials in {reuse_seconds:6.2f}s "
          f"({TRIALS / reuse_seconds:7.1f} trials/s)")
    print(f"  speedup:       {speedup:.2f}x")

    # Reset parity makes the comparison apples-to-apples: every trial
    # starts from the identical post-construction state on both paths.
    assert reuse_results == rebuild_results
    assert speedup >= 2.0, (
        f"reset-reuse must at least double trial throughput "
        f"(got {speedup:.2f}x)"
    )
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["rebuild_seconds"] = rebuild_seconds
    benchmark.extra_info["reuse_seconds"] = reuse_seconds
