"""Harness-native contention matrix: the job for one matrix *cell*
and the matrix printer.

A cell is a (resource, mode, variant) triple measured by
:class:`repro.contention.session.ContentionSession`; the ``contention``
entry of :data:`repro.harness.experiments.ARTIFACTS` expands the grid
(7 resources x 3 sharing modes x conflict/disjoint) into these jobs.
``disjoint`` cells are the negative control: they provably share
nothing (the lint layer verifies it before any cell runs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cpu.config import CPUConfig
from repro.harness.job import register


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
