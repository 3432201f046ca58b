"""Figure 10: the micro-op cache timing signal under CPUID, LFENCE and
no fencing at the authorization check.

Paper result: a clear signal with no fence, a *persisting* signal with
LFENCE (the variant-2 bypass), and no signal with CPUID.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig10_fence_comparison(benchmark):
    signals = regenerate(benchmark, "fig10_lfence")
    banner("Figure 10 -- variant-2 signal vs synchronisation primitive")
    for name in ("none", "lfence", "cpuid"):
        print(f"  {name:7s}: secret=1 vs secret=0 probe separation "
              f"{signals[name]:8.1f} cyc")
    check_paper_claims("fig10_lfence", signals)
    benchmark.extra_info["signal_none"] = signals["none"]
    benchmark.extra_info["signal_lfence"] = signals["lfence"]
    benchmark.extra_info["signal_cpuid"] = signals["cpuid"]
