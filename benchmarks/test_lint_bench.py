"""Taint-analyzer wall-time suite, emitted as a tracked JSON artifact.

``BENCH_lint.json`` (next to this file) is committed to the repository
so the static analyzer's cost trajectory is visible across PRs.  It
records the wall-clock time of one full secret-flow pass -- footprint
analysis plus ``verify_secret_claims`` -- over the twelve
claim-carrying lint targets, together with each target's static
channel-capacity bound.  The pass must stay under **1 second** for
the whole corpus: the analysis runs inside every session preflight
and as a synthesis fitness function, so it has to stay cheap.  Target
*building* (assembling drivers) is excluded from the timed section.
Regenerate with
``pytest benchmarks/test_lint_bench.py --benchmark-only -s``.
"""

import json
import pathlib
import time

from benchmarks.conftest import banner, run_once
from repro.lint import SecretClaim, analyze, verify_secret_claims
from repro.lint.runner import TARGETS

ARTIFACT = pathlib.Path(__file__).with_name("BENCH_lint.json")

#: Corpus budget for one full static taint pass, in seconds.
BUDGET_SECONDS = 1.0

#: The claim-carrying targets (every driver with a SecretClaim).
TAINT_TARGETS = (
    "tigerzebra", "covert", "smt", "crossdomain", "spectre",
    "classic", "lfence", "bti", "jumptable", "keyextract",
    "contention-itlb", "contention-sb",
)


def _analyze_corpus(built):
    """One full static pass; returns (elapsed, per-target capacities)."""
    start = time.monotonic()
    capacities = {}
    for name, target in built:
        report = analyze(target.program, target.config)
        taint = verify_secret_claims(report, target.claims)
        capacities[name] = round(taint.capacity_bits, 3)
    return time.monotonic() - start, capacities


def test_taint_analyzer_budget(benchmark):
    built = [(name, TARGETS[name]()) for name in TAINT_TARGETS]
    assert all(any(isinstance(c, SecretClaim) for c in t.claims)
               for _, t in built), "every target must claim"

    elapsed, capacities = run_once(
        benchmark, lambda: _analyze_corpus(built)
    )

    banner("Static taint pass -- 12-target corpus")
    for name, bits in sorted(capacities.items()):
        print(f"  {name:<16} capacity <= {bits:5.1f} bit(s)")
    print(f"  corpus pass: {elapsed:.3f}s  (budget {BUDGET_SECONDS:.1f}s)")

    assert elapsed < BUDGET_SECONDS, (
        f"static taint pass took {elapsed:.3f}s over the "
        f"{len(built)}-target corpus (budget {BUDGET_SECONDS:.1f}s)"
    )
    # The headline acceptance numbers ride along in the artifact.
    assert capacities["keyextract"] > 0
    assert capacities["classic"] == 0.0

    doc = {
        "workload": "footprint + secret-flow pass, 12-target corpus",
        "budget_seconds": BUDGET_SECONDS,
        # Host seconds jitter run to run; keep one decimal so the
        # tracked file churns only on material slowdowns.
        "corpus_seconds": round(elapsed, 1),
        "capacity_bits": capacities,
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {ARTIFACT}")

    benchmark.extra_info["corpus_seconds"] = elapsed
