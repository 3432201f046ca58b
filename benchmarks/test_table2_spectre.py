"""Table II: tracing Spectre variants with performance counters.

Paper result (leaking the same secret):

    Spectre (original)   1.2046s  16.4M LLC refs  11.0M LLC misses  5.3M uop-penalty cycles
    Spectre (uop cache)  0.4591s   3.8M LLC refs   3.8M LLC misses 74.7M uop-penalty cycles

Shape: the micro-op cache variant is ~2.6x faster, makes ~5x/3x fewer
LLC references/misses, and shifts the timing signal into the micro-op
cache miss penalty (~15x more penalty cycles).
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_table2_spectre_comparison(benchmark):
    rows = regenerate(benchmark, "table2")
    banner("Table II -- Spectre-v1 vs micro-op cache Spectre (simulated)")
    print(f"  {'Attack':24s} {'Time':>11s} {'LLC refs':>12s} "
          f"{'LLC miss':>12s} {'uop penalty':>14s} {'Acc':>7s}")
    for row in rows:
        print("  " + row.format())

    classic, uop = rows
    speedup = classic.seconds / uop.seconds
    llc_ratio = classic.llc_references / max(uop.llc_references, 1)
    penalty_ratio = uop.uop_cache_penalty_cycles / max(
        classic.uop_cache_penalty_cycles, 1
    )
    print(f"  speedup: {speedup:.2f}x (paper: 2.6x)")
    print(f"  LLC reference reduction: {llc_ratio:.1f}x (paper: ~5x)")
    print(f"  uop-cache penalty increase: {penalty_ratio:.1f}x (paper: ~15x)")
    check_paper_claims("table2", rows)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["llc_ratio"] = llc_ratio
    benchmark.extra_info["penalty_ratio"] = penalty_ratio
