"""Figure 3: micro-op cache size (3a) and associativity (3b).

Paper result: legacy-decode micro-ops jump once the loop exceeds 256
32-byte regions (=> 256 lines), and once more than 8 same-set regions
contend (=> 8 ways, hence 32 sets).
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig3a_cache_size(benchmark):
    result = regenerate(benchmark, "fig3a_size")
    banner("Figure 3a -- micro-op cache size "
           "(legacy-decode uops/iteration vs loop regions)")
    for x, y in zip(result.x, result.y):
        print(f"  regions={x:4d}  legacy uops/iter={y:10.1f}")
    knee = result.knee()
    print(f"  measured capacity knee: {knee} regions (paper: 256)")
    benchmark.extra_info["knee_regions"] = knee
    check_paper_claims("fig3a_size", result)


def test_fig3b_associativity(benchmark):
    result = regenerate(benchmark, "fig3b_associativity")
    banner("Figure 3b -- associativity "
           "(legacy-decode uops/iteration vs same-set regions)")
    for x, y in zip(result.x, result.y):
        print(f"  ways={x:3d}  legacy uops/iter={y:8.2f}")
    below = max(y for x, y in zip(result.x, result.y) if x <= 8)
    above = min(y for x, y in zip(result.x, result.y) if x >= 10)
    print(f"  <=8 ways: {below:.2f}/iter, >=10 ways: {above:.2f}/iter "
          "(paper: rises past 8)")
    benchmark.extra_info["max_below_8"] = below
    benchmark.extra_info["min_above_9"] = above
    check_paper_claims("fig3b_associativity", result)
