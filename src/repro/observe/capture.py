"""Named trace captures: run a driver's demo under the event bus.

:func:`capture_trace` runs any driver in
:data:`repro.drivers.DEMOS` with a :class:`TraceRecorder` attached and
returns the closed recorder plus the driver's occupancy heatmaps.
:func:`store_trace` adds the Chrome export, validates it and writes
the artifacts and an aggregate record; ``python -m repro trace`` and
the serve ``trace`` kind (:mod:`repro.serve.spec`) both store through
it under the trace spec's key, so each answers the other warm.

Drivers are acquired through the process-wide
:class:`~repro.session.pool.SessionPool`: a long-lived worker process
serving repeated trace requests assembles each attack program once and
``reset()``s it per capture, which keeps captures deterministic (reset
restores the exact post-construction state) while skipping rebuild
cost.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.observe.chrometrace import chrome_trace, validate_chrome_trace
from repro.observe.events import TraceRecorder
from repro.observe.heatmap import OccupancySnapshot


def capture_trace(
    experiment: str,
) -> Tuple[TraceRecorder, List[OccupancySnapshot]]:
    """Run one driver's demo under a recorder; ``KeyError`` names the
    valid experiments.

    The session layer is imported here, not at module level: it sits
    on ``repro.cpu.core``, which itself imports ``repro.observe.events``,
    so a module-level import would close that loop during package init.
    """
    from repro.drivers import DEMOS, DRIVERS
    from repro.session.pool import shared_pool

    if experiment not in DEMOS:
        raise KeyError(
            f"unknown trace experiment {experiment!r}; "
            f"valid: {sorted(DEMOS)}"
        )
    driver = DRIVERS[experiment]
    session = shared_pool().acquire(f"trace.{experiment}", driver.make)
    recorder = TraceRecorder().connect(session.core)
    driver.demo(session)
    recorder.close()
    return recorder, driver.heatmaps(session)


#: ``fn`` of the aggregate record a stored capture writes under its key.
TRACE_RESULT_FN = "serve.trace"


class StoredTrace(NamedTuple):
    """One capture with its validated Chrome export."""

    recorder: TraceRecorder
    snaps: List[OccupancySnapshot]
    chrome: Dict[str, Any]
    #: the aggregate record: event counts, µops by source and the
    #: artifact names written under the key (none without a cache)
    record: Dict[str, Any]


def store_trace(experiment: str, cache, key: str) -> StoredTrace:
    """Capture ``experiment``, validate its Chrome export and store
    ``events.json``, ``chrome.json`` and one ``heatmap-<i>.json`` per
    snapshot under ``key`` in ``cache`` (``None``: store nothing), then
    the aggregate record, which answers a repeat without a capture.

    Raises ``RuntimeError`` if the export is invalid, before anything
    is stored.
    """
    recorder, snaps = capture_trace(experiment)
    chrome = chrome_trace(recorder.events, process_name=f"repro:{experiment}")
    problems = validate_chrome_trace(chrome)
    if problems:
        raise RuntimeError(f"chrome trace export invalid: {problems[:3]}")
    record = {
        "kind": "trace",
        "experiment": experiment,
        "events": recorder.counts(),
        "uops_by_source": recorder.uops_by_source(),
        "artifacts": [],
    }
    if cache is not None:
        blobs = {"events.json": recorder.as_records(), "chrome.json": chrome}
        for i, snap in enumerate(snaps):
            blobs[f"heatmap-{i}.json"] = snap.to_json()
        for name, blob in blobs.items():
            cache.put_artifact(key, name, json.dumps(blob))
        record["artifacts"] = list(blobs)
        cache.put(key, TRACE_RESULT_FN, record)
    return StoredTrace(recorder, snaps, chrome, record)
