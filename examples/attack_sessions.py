#!/usr/bin/env python3
"""Attack sessions: one driver API, reusable cores.

Every attack driver subclasses ``repro.session.AttackSession``, which
owns the shared lifecycle: build the program, construct the core,
calibrate, classify.  ``session.reset()`` restores the exact
post-construction state without re-assembling anything -- so repeated
trials are byte-identical *and* cheaper than rebuilding a core per
trial.

Run:  python examples/attack_sessions.py
"""

import time

from repro.core.covert import ChannelParams, CovertChannel
from repro.cpu.noise import NoiseModel

TRIALS = 8


def _noise():
    return NoiseModel(evict_prob=0.01, jitter_sd=20.0, seed=7)


def main(argv=None):
    chan = CovertChannel(ChannelParams(), noise=_noise())

    # run_trials resets the session before each trial, so every trial
    # starts from the identical post-construction state: same noise
    # stream (the seeded model rewinds on reset), same cold caches,
    # same fitted thresholds.
    timings = chan.run_trials(lambda c: c.calibrate(), 3)
    print("three calibration trials on one reused core:")
    for i, t in enumerate(timings):
        print(f"  trial {i}: hit mean {t.hit_mean:7.1f}  "
              f"miss mean {t.miss_mean:7.1f}  threshold {t.threshold:7.1f}")
    assert timings[0].hit_times == timings[1].hit_times
    assert timings[0].miss_times == timings[2].miss_times
    print("  -> byte-identical (reset parity)")

    # The point of reuse: reset keeps the assembled program and the
    # front end's decode memos, so a trial pays for simulation only.
    # (Short trials make the fixed per-trial cost visible; the 2x
    # acceptance benchmark lives in benchmarks/test_speed_bench.py.)
    fast = ChannelParams(calibration_rounds=1)
    start = time.monotonic()
    for _ in range(TRIALS):
        fresh = CovertChannel(fast, noise=_noise())
        fresh.calibrate()
    rebuild = time.monotonic() - start

    chan = CovertChannel(fast, noise=_noise())
    start = time.monotonic()
    for _ in range(TRIALS):
        chan.reset()
        chan.calibrate()
    reuse = time.monotonic() - start

    print(f"{TRIALS} calibration trials, rebuild-per-trial: {rebuild:.2f}s")
    print(f"{TRIALS} calibration trials, reset-reuse:       {reuse:.2f}s "
          f"({rebuild / max(reuse, 1e-9):.2f}x)")
    assert reuse < rebuild, "reset-reuse must beat rebuilding"


if __name__ == "__main__":
    main()
