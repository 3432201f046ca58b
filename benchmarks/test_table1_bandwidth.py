"""Table I: bandwidth and error-rate comparison of the four channels.

Paper numbers (Coffee Lake / Zen hardware):

    Same address space               0.22%   965.59 Kbps  (785.56 ECC)
    Same address space (User/Kernel) 3.27%   110.96 Kbps  ( 85.20 ECC)
    Cross-thread (SMT)               5.59%   250.00 Kbps  (168.58 ECC)
    Transient Execution Attack       0.72%    17.60 Kbps  ( 14.64 ECC)

Expected shape: same-address-space is fastest; the kernel and SMT
channels are slower and noisier; the transient channel is the slowest.
"""

from benchmarks.conftest import banner, check_paper_claims, regenerate


def test_table1_channel_comparison(benchmark):
    rows = regenerate(benchmark, "table1")
    banner("Table I -- bandwidth and error rate (simulated)")
    print(f"  {'Mode':32s} {'BitErr':>8s} {'Kbit/s':>10s} {'w/ECC':>10s}")
    for row in rows:
        print("  " + row.format())

    # The claims mirror the paper's ordering.  One recorded divergence
    # (EXPERIMENTS.md): the paper's transient channel is its slowest
    # mode (17.6 Kbps) because real hardware needs many noisy retries
    # per bit; our deterministic simulator resolves each transient bit
    # in a handful of episodes, so its rate is not compared with the
    # others.
    check_paper_claims("table1", rows)
    by_mode = {r.mode: r for r in rows}
    benchmark.extra_info["same_as_kbps"] = by_mode["Same address space"].bandwidth_kbps
    benchmark.extra_info["kernel_kbps"] = by_mode[
        "Same address space (User/Kernel)"].bandwidth_kbps
    benchmark.extra_info["smt_kbps"] = by_mode["Cross-thread (SMT)"].bandwidth_kbps
    benchmark.extra_info["transient_kbps"] = by_mode[
        "Transient Execution Attack"].bandwidth_kbps
