"""Section IV: the tiger/zebra timing signal.

Paper result: the generated exploit code yields a cleanly separable
binary signal -- mean hit/miss difference of 218.4 cycles with a
standard deviation of 27.8 on their hardware.  We report the analogous
statistics of our simulated probe.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_sec4_probe_signal(benchmark):
    timing = regenerate(benchmark, "sec4_signal")
    banner("Section IV -- tiger probe timing signal")
    print(f"  hit mean:  {timing['hit_mean']:8.1f} cycles")
    print(f"  miss mean: {timing['miss_mean']:8.1f} cycles")
    print(f"  delta:     {timing['delta']:8.1f} cycles "
          f"(paper: 218.4)")
    print(f"  std dev:   {timing['delta_sd']:8.1f} cycles (paper: 27.8)")
    print(f"  separable: {timing['separable']}")
    check_paper_claims("sec4_signal", timing)
    benchmark.extra_info["delta_cycles"] = timing["delta"]
    benchmark.extra_info["delta_sd"] = timing["delta_sd"]
