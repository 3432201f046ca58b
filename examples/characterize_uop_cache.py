#!/usr/bin/env python3
"""Reproduce the Section III characterization study: size,
associativity, placement rules, replacement policy and SMT
partitioning of the micro-op cache (Figures 3-7).  The paper's claims
about each figure are checked by ``python -m repro batch characterize``.

Run:  python examples/characterize_uop_cache.py [--fast]
"""

import argparse

from repro.harness.experiments import characterize_sweeps, run_sweeps


def ascii_bar(value, scale=1.0, width=40):
    n = min(width, int(value * scale))
    return "#" * n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="the smoke-sized grid instead of the paper's "
                             "resolution")
    args = parser.parse_args(argv)
    figures, _, _ = run_sweeps(characterize_sweeps(fast=args.fast))

    print("=== Figure 3a: micro-op cache size ===")
    result = figures["fig3a_size"]
    for x, y in zip(result.x, result.y):
        print(f"  {x:4d} regions | {y:8.1f} legacy uops/iter "
              f"{ascii_bar(y, 0.08)}")
    print(f"  -> capacity knee at {result.knee()} regions "
          "(paper: 256 lines)\n")

    print("=== Figure 3b: associativity ===")
    result = figures["fig3b_associativity"]
    for x, y in zip(result.x, result.y):
        print(f"  {x:3d} ways | {y:7.2f} legacy uops/iter {ascii_bar(y, 3)}")
    print("  -> rises past 8 ways (paper: 8-way sets)\n")

    print("=== Figure 4: placement rules ===")
    placement = figures["fig4_placement"]
    print("  uops/region |   2 regions |   4 regions |   8 regions")
    for i, uops in enumerate(placement.uops_per_region):
        cells = " | ".join(
            f"{placement.dsb_uops[n][i]:11.1f}" for n in placement.regions
        )
        print(f"  {uops:11d} | {cells}")
    print("  -> cliffs at 18/12/6 uops per region "
          "(3 lines x 6 slots, <= 3 ways/region)\n")

    print("=== Figure 5: replacement policy (hotness diagonal) ===")
    rep = figures["fig5_replacement"]
    print("  main\\evict " + "".join(f"{e:6d}" for e in rep.evict_iters))
    for m in rep.main_iters:
        row = "".join(f"{rep.cell(m, e):6.0f}" for e in rep.evict_iters)
        print(f"  M={m:2d}      {row}")
    print("  -> hot loops survive eviction pressure in proportion to "
          "their own iteration count\n")

    print("=== Figure 6: SMT partitioning ===")
    for name, t2 in (("fig6_smt", "PAUSE"), ("fig6_smt_chase", "chase")):
        if name not in figures:  # the fast grid has no chase panel
            continue
        smt = figures[name]
        print(f"  T2 runs {t2}:")
        for size, st_val, smt_val in zip(smt.sizes, smt.single_thread,
                                         smt.smt):
            print(f"  {size:4d} regions | single {st_val:8.1f} | "
                  f"SMT {smt_val:8.1f}")
    print("  -> capacity halves with a co-resident thread "
          "(static partitioning)\n")

    print("=== Figure 7: partition geometry ===")
    geo = figures["fig7_geometry"]
    print("  7a: T1 sweeping sets vs T2 at set 0 "
          f"(max contention t1={max(geo.sweep_t1_mite):.1f}, "
          f"t2={max(geo.sweep_t2_mite):.1f} -> none)")
    print("  7b: 8-way groups streamable:")
    for n, st_val, smt_val in zip(geo.group_counts, geo.groups_single,
                                  geo.groups_smt):
        print(f"    {n:3d} groups | single {st_val:8.1f} | SMT {smt_val:8.1f}")
    print("  -> 32 groups single-threaded, 16 in SMT: the partition is "
          "16 private 8-way sets per thread")


if __name__ == "__main__":
    main()
