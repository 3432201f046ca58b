#!/usr/bin/env python3
"""Variant-2 transient attack (Section VI-B): a secret-dependent
indirect call leaves its predicted target's footprint in the micro-op
cache *before dispatch*, leaking across Intel's recommended LFENCE.
CPUID -- which stalls fetch itself -- is the control that kills the
signal (Figure 10).

Run:  python examples/lfence_bypass.py
"""

from repro.core.transient import LfenceBypass


def main(argv=None):
    attack = LfenceBypass()
    print("victim: authorization check, then `call fun[secret]()`")
    print("training: legitimate authorised calls encode the secret-")
    print("dependent target in the indirect branch predictor\n")

    signals = {name: attack.measure(fence, rounds=8) for name, fence in
               (("none", "nf"), ("lfence", "lf"), ("cpuid", "cp"))}
    print(f"{'fence':8s} {'secret=0':>10s} {'secret=1':>10s} {'signal':>9s}")
    for name in ("none", "lfence", "cpuid"):
        sig = signals[name]
        print(f"{name:8s} {sig.timing.hit_mean:9.0f}c {sig.timing.miss_mean:9.0f}c "
              f"{sig.signal:8.0f}c")

    print()
    if signals["lfence"].signal > 100:
        print("LFENCE bypassed: the transmitter's footprint appears in the")
        print("micro-op cache even though it never dispatched to execution.")
    if abs(signals["cpuid"].signal) < 50:
        print("CPUID blocks the leak: fetch of younger instructions stalls")
        print("until it completes, so the indirect call is never fetched.")


if __name__ == "__main__":
    main()
