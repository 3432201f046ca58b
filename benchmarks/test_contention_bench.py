"""Contention suite: the resource x sharing-mode slowdown matrix and
the two non-DSB covert channels, emitted as a tracked JSON artifact.

``BENCH_contention.json`` (next to this file) is committed to the
repository so the performance trajectory of the contention suite is
visible across PRs: the simulator is deterministic, so every field in
the artifact is stable until a template or a latency model changes --
and then the diff shows exactly which cells moved.  Run with
``pytest benchmarks/test_contention_bench.py --benchmark-only -s`` to
regenerate it.
"""

import dataclasses
import json
import pathlib

from benchmarks.conftest import banner, check_paper_claims, run_once
from repro.core.report import CONTENTION_MODES, table1_row
from repro.harness.contention import format_matrix
from repro.harness.experiments import artifact_sweeps, run_sweeps

ARTIFACT = pathlib.Path(__file__).with_name("BENCH_contention.json")


def _regenerate():
    # The full grid at one trial per cell (no noise model: every trial
    # measures the same cycles).
    sweeps = {name: dataclasses.replace(sweep,
                                        base={**sweep.base, "trials": 1})
              for name, sweep in artifact_sweeps(["contention"]).items()}
    artifacts, _, _ = run_sweeps(sweeps, cache=None)
    rows = [table1_row(mode) for mode in CONTENTION_MODES]
    return artifacts["contention"], rows


def test_contention_matrix_and_channels(benchmark):
    matrix, rows = run_once(benchmark, _regenerate)

    banner("Contention matrix -- signed slowdown per cell")
    print(format_matrix(matrix))
    banner("Non-DSB covert channels -- Table-I-format rows")
    print(f"  {'Mode':32s} {'BitErr':>8s} {'Kbit/s':>10s} {'w/ECC':>10s}")
    for row in rows:
        print("  " + row.format())

    # Shape: every conflict diagonal has a clearly positive mode and
    # every disjoint negative control stays near zero.
    check_paper_claims("contention", matrix)
    for row in rows:
        assert row.error_rate < 0.15
        assert row.bandwidth_kbps > 100

    # The tracked artifact: deterministic fields only, so the file
    # churns exactly when the measured physics does.
    doc = {
        "matrix": {
            resource: {
                mode: {
                    variant: {
                        "baseline_cycles": cell["baseline_cycles"],
                        "contended_cycles": cell["contended_cycles"],
                        "slowdown": round(cell["slowdown"], 4),
                    }
                    for variant, cell in cells.items()
                }
                for mode, cells in per_mode.items()
            }
            for resource, per_mode in matrix.items()
        },
        "channels": [
            {
                "mode": row.mode,
                "error_rate": round(row.error_rate, 4),
                "bandwidth_kbps": round(row.bandwidth_kbps, 2),
                "corrected_bandwidth_kbps": round(
                    row.corrected_bandwidth_kbps, 2
                ),
            }
            for row in rows
        ],
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {ARTIFACT}")

    benchmark.extra_info["itlb_kbps"] = rows[0].bandwidth_kbps
    benchmark.extra_info["sb_kbps"] = rows[1].bandwidth_kbps
    benchmark.extra_info["uop_cache_smt_slowdown"] = (
        matrix["uop_cache"]["smt"]["conflict"]["slowdown"]
    )
