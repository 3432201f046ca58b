"""Benchmark-harness helpers.

Every benchmark regenerates one table or figure of the paper.  The
simulated experiments are deterministic and expensive, so each runs
exactly once (``pedantic(rounds=1)``); pytest-benchmark reports the
wall-clock cost of regenerating the artifact while the printed output
carries the actual rows/series, mirroring what the paper reports.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.

The paper's figures and tables (Figures 3-7, 9 and 10, Tables I-II,
the Section IV signal and the Section VIII mitigations) come from
their one definition in ``repro.harness.experiments.ARTIFACTS``:
:func:`regenerate` runs an artifact's full grid and
:func:`check_paper_claims` checks the paper's claims about it.
"""


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> None:
    """Print a section header for the regenerated artifact."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def regenerate(benchmark, name: str):
    """Run paper artifact ``name`` on its full grid, exactly once."""
    from repro.cpu.config import CPUConfig
    from repro.harness.experiments import ARTIFACTS, run_sweeps

    grid = ARTIFACTS[name].grid(CPUConfig.skylake(), False)
    artifacts, _, _ = run_once(benchmark, lambda: run_sweeps(grid))
    return artifacts[name]


def check_paper_claims(name: str, result) -> None:
    """Print and assert every claim the paper makes about ``result``."""
    from repro.harness.experiments import check_claims

    verdicts = check_claims({name: result})
    for _, claim, holds in verdicts:
        print(f"  {'pass' if holds else 'FAIL'}  {claim.name} "
              f"[{claim.section}]")
    assert all(holds for _, _, holds in verdicts), [
        claim.name for _, claim, holds in verdicts if not holds]
