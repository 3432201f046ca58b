"""Harness-native contention matrix: resource x sharing-mode grid.

Registers one job per matrix *cell* -- a (resource, mode, variant)
triple measured by :class:`repro.contention.session.ContentionSession`
-- and provides drivers that expand the full grid (7 resources x 3
sharing modes x conflict/disjoint) into one job list for
:func:`repro.harness.executor.run_jobs`.  Each cell is an independent
deterministic simulation, so the grid is embarrassingly parallel and
content-addressed: a warm cache reproduces the whole matrix without
executing a single job (``python -m repro batch contention`` twice ->
second run reports 0 executed).

The ``variant`` axis is the built-in negative control: ``conflict``
cells share the contended structure by construction, ``disjoint``
cells provably do not (the lint layer verifies both claims before any
cell runs), so true cross-thread contention separates from
self-interference within one grid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig
from repro.harness.executor import JobOutcome, RunSummary, run_jobs
from repro.harness.job import Job, register

#: Reduced grid for smoke tests and CI: three resources spanning the
#: front-end (micro-op cache), translation (iTLB) and memory
#: (store buffer) families, under the two cheap sharing modes.
FAST_RESOURCES = ("uop_cache", "itlb", "store_buffer")
FAST_MODES = ("smt", "time_sliced")


@register("contention.cell")
def _job_contention_cell(
    config: CPUConfig,
    seed: int,
    resource: str,
    mode: str,
    variant: str,
    trials: int,
    size: Optional[int] = None,
    stride: Optional[int] = None,
) -> Dict[str, Any]:
    """Measure one contention-matrix cell."""
    from repro.contention.session import ContentionSession

    session = ContentionSession(
        resource, mode, variant=variant,
        size=size, stride=stride, trials=trials, config=config,
    )
    return session.measure().as_dict()


def contention_jobs(
    fast: bool = False,
    trials: int = 2,
    resources: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
) -> List[Job]:
    """The contention matrix as a job list, grid order
    (resource, mode, variant).

    Each cell carries its resource's tuned configuration
    (:func:`repro.contention.templates.contention_config`), so the
    config participates in the cache key and per-resource retunes
    invalidate exactly the affected cells.
    """
    from repro.contention.session import MODES
    from repro.contention.templates import (
        RESOURCES,
        VARIANTS,
        contention_config,
    )

    if resources is None:
        resources = FAST_RESOURCES if fast else RESOURCES
    if modes is None:
        modes = FAST_MODES if fast else MODES
    variants = variants or VARIANTS

    return [
        Job(
            "contention.cell",
            config=contention_config(resource),
            params={
                "resource": resource,
                "mode": mode,
                "variant": variant,
                "trials": trials,
            },
            tag=f"contention[{resource}/{mode}/{variant}]",
        )
        for resource in resources
        for mode in modes
        for variant in variants
    ]


def run_contention(
    fast: bool = False,
    trials: int = 2,
    resources: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
    **runner_kwargs,
) -> Tuple[Dict[str, Dict[str, Dict[str, Dict[str, Any]]]],
           List[JobOutcome], RunSummary]:
    """Run the contention matrix through the harness.

    Returns ``(matrix, outcomes, summary)`` where ``matrix`` nests
    ``resource -> mode -> variant -> cell dict`` (the
    :meth:`CellResult.as_dict` fields, ``slowdown`` signed).
    """
    jobs = contention_jobs(fast, trials, resources, modes, variants)
    outcomes, summary = run_jobs(jobs, **runner_kwargs)
    failures = [o for o in outcomes if not o.ok]
    if failures:
        first = failures[0]
        raise RuntimeError(
            f"{len(failures)} contention job(s) failed; first: "
            f"{first.job.label}: {first.error}"
        )
    matrix: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {}
    for outcome in outcomes:
        cell = outcome.result
        matrix.setdefault(cell["resource"], {}) \
              .setdefault(cell["mode"], {})[cell["variant"]] = cell
    return matrix, outcomes, summary


def format_matrix(
    matrix: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]]
) -> str:
    """Render the matrix as an aligned text table, one row per
    resource x variant, one slowdown column per mode."""
    from repro.core.report import format_table

    modes: List[str] = []
    for per_mode in matrix.values():
        for mode in per_mode:
            if mode not in modes:
                modes.append(mode)
    header = ["resource", "variant"] + [f"{m} slowdown" for m in modes]
    rows = []
    for resource, per_mode in matrix.items():
        variants = []
        for cells in per_mode.values():
            for variant in cells:
                if variant not in variants:
                    variants.append(variant)
        for variant in variants:
            row: List[object] = [resource, variant]
            for mode in modes:
                cell = per_mode.get(mode, {}).get(variant)
                row.append(
                    f"{cell['slowdown']:+.3f}" if cell else "-"
                )
            rows.append(row)
    return format_table(header, rows)
