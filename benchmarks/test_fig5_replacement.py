"""Figure 5: replacement policy heatmap.

Paper result: the eviction decision is hotness-driven -- the evicting
loop displaces the main loop only when its iteration count rivals the
main loop's, producing a diagonal retention structure (and leaking
access *counts*, not just accesses).
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig5_replacement_matrix(benchmark):
    result = regenerate(benchmark, "fig5_replacement")
    banner("Figure 5 -- replacement heatmap "
           "(DSB uops per main-loop pass; 48 = fully resident)")
    print("  main\\evict " + "".join(f"{e:5d}" for e in result.evict_iters))
    for m in result.main_iters:
        row = "".join(f"{result.cell(m, e):5.0f}" for e in result.evict_iters)
        print(f"  M={m:2d}      {row}")
    check_paper_claims("fig5_replacement", result)
    benchmark.extra_info["cell_m8_e4"] = result.cell(8, 4)
    benchmark.extra_info["cell_m1_e4"] = result.cell(1, 4)
