"""Figure 7: deconstructing the SMT partitioning mechanism.

Paper result: (a) both threads keep full 8-way associativity wherever
T1 probes -- so the cache is not way-partitioned; (b) each thread can
stream exactly 16 8-way groups in SMT mode (32 single-threaded), so the
partition is 16 private 8-way sets per thread.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_fig7_partition_geometry(benchmark):
    result = regenerate(benchmark, "fig7_geometry")
    banner("Figure 7a -- T1 sweeping sets vs T2 pinned to set 0 "
           "(legacy uops/iter; ~0 everywhere = no contention)")
    for s, t1, t2 in zip(result.sweep_sets, result.sweep_t1_mite,
                         result.sweep_t2_mite):
        print(f"  t1-set={s:3d}  t1={t1:7.1f}  t2={t2:7.1f}")

    banner("Figure 7b -- 8-way groups streamable "
           "(single-thread vs SMT; knee 32 vs 16)")
    for n, st, smt in zip(result.group_counts, result.groups_single,
                          result.groups_smt):
        print(f"  groups={n:3d}  single={st:9.1f}  smt={smt:9.1f}")
    check_paper_claims("fig7_geometry", result)
