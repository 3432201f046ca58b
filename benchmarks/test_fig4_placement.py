"""Figure 4: placement rules.

Paper result: a 32-byte region may hold at most 18 micro-ops (3 lines
x 6 slots); 2-region loops stream up to 18 uops/region then fall off a
cliff; 4-region loops cap at 12, 8-region loops at 6.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig4_placement_rules(benchmark):
    result = regenerate(benchmark, "fig4_placement")
    banner("Figure 4 -- placement rules (DSB uops/iter vs uops/region)")
    header = "  uops/region " + "".join(
        f"{n:>12d}-regions" for n in result.regions
    )
    print(header)
    for i, uops in enumerate(result.uops_per_region):
        row = "".join(
            f"{result.dsb_uops[n][i]:20.1f}" for n in result.regions
        )
        print(f"  {uops:11d} {row}")
    check_paper_claims("fig4_placement", result)
    benchmark.extra_info["cliff_2regions"] = 18
