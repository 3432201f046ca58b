#!/usr/bin/env python3
"""Section VIII mitigations in action: flushing the micro-op cache at
domain crossings and privilege-level partitioning both close the
user/kernel channel (at a cost) -- but privilege partitioning does NOT
stop the variant-1 attack, whose priming and probing are entirely
user-mode.  A counter-based monitor detects loud attacks and misses
throttled ones.

The channel and variant-1 numbers are the ``mitigations`` artifact
(``python -m repro batch mitigations`` checks the paper's claims about
them).

Run:  python examples/mitigations_demo.py
"""

from repro.core.mitigations import UopCacheMonitor
from repro.harness.experiments import artifact_sweeps, run_sweeps


def main(argv=None):
    artifacts, _, _ = run_sweeps(artifact_sweeps(["mitigations"]))
    result = artifacts["mitigations"]

    print("=== user/kernel channel vs mitigations ===")
    outcomes = result["crossdomain"]
    baseline_cycles = outcomes["baseline"]["kernel_cycles"]
    for name, o in outcomes.items():
        slowdown = o["kernel_cycles"] / baseline_cycles
        closed = o["error_rate"] >= 0.25  # indistinguishable from guessing
        print(f"  {name:22s} signal={o['signal_delta']:8.1f} cyc  "
              f"error={o['error_rate'] * 100:5.1f}%  "
              f"closed={str(closed):5s}  "
              f"cost={slowdown:.2f}x")

    print("\n=== variant-1 vs privilege partitioning ===")
    v1 = result["variant1"]
    print(f"  baseline accuracy:              {v1['baseline'] * 100:.0f}%")
    print(f"  privilege-partitioned accuracy: "
          f"{v1['privilege-partition'] * 100:.0f}%")
    print("  -> the attack adapts its tiger geometry to the halved "
          "user partition and still leaks (paper, Section VIII)")

    print("\n=== performance-counter monitoring ===")
    monitor = UopCacheMonitor(sigma=3.0)
    benign = [12, 14, 11, 13, 15, 12, 10, 14, 13, 12]
    loud_attack = [240, 310, 280, 260]
    stealthy_attack = [15, 16, 14, 15]
    loud = monitor.evaluate(benign, loud_attack)
    print(f"  loud attack:     {loud.detection_rate * 100:.0f}% of windows "
          f"flagged (threshold {loud.threshold:.1f} misses/window)")
    stealth = monitor.evaluate(benign, stealthy_attack)
    print(f"  throttled attack: {stealth.detection_rate * 100:.0f}% flagged "
          "-- mimicry evades counter-based detection (the paper's caveat)")


if __name__ == "__main__":
    main()
