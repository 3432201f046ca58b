"""Figure 6: SMT partitioning of the Intel micro-op cache.

Paper result: with a co-resident SMT thread, T1's usable capacity is
exactly half the physical size, regardless of whether T2 executes
PAUSE or pointer-chasing loads.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def _report(benchmark, name, title):
    result = regenerate(benchmark, name)
    banner(title)
    for size, st, smt in zip(result.sizes, result.single_thread, result.smt):
        print(f"  regions={size:4d}  single={st:9.1f}  smt={smt:9.1f}")
    print(f"  capacity knee: single-thread {result.knee_single()}, "
          f"SMT {result.knee_smt()} regions (paper: 256 vs 128)")
    benchmark.extra_info["smt_knee_regions"] = result.knee_smt()
    check_paper_claims(name, result)


def test_fig6a_t2_pause(benchmark):
    _report(benchmark, "fig6_smt",
            "Figure 6a -- T1 capacity with T2 executing PAUSE")


def test_fig6b_t2_pointer_chasing(benchmark):
    # identical partition no matter what T2 runs: static partitioning
    _report(benchmark, "fig6_smt_chase",
            "Figure 6b -- T1 capacity with T2 pointer-chasing")
