"""Figure 9: tuning set/way occupancy and sample count.

Paper result: bandwidth rises as sets/samples shrink (peaking over
1.2 Mbps at 1 set / few samples, with ~15% errors); the error rate
drops below 1% once 8 sets are probed; the way count has little effect
on accuracy.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig9_channel_tuning(benchmark):
    results = regenerate(benchmark, "fig9_tuning")
    banner("Figure 9 -- bandwidth and error rate vs nsets/nways/samples")
    for axis in ("nsets", "nways", "samples"):
        print(f"  sweep over {axis} (others at operating point):")
        for value, bw, err in results[axis]:
            print(f"    {axis}={value:3d}  bandwidth={bw:8.0f} Kbps  "
                  f"error={err * 100:6.2f}%")
    check_paper_claims("fig9_tuning", results)
    nsets = {v: (bw, err) for v, bw, err in results["nsets"]}
    benchmark.extra_info["bw_1set_kbps"] = nsets[1][0]
    benchmark.extra_info["err_8sets"] = nsets[8][1]
