"""Result artifact writers: JSON, JSONL and CSV.

Every writer takes the flat *record* form produced by
:func:`outcome_records` -- one dict per job with the parameters
inlined -- so a batch run can be replayed, joined or plotted without
touching the cache.  ``write_json`` also writes ``repro batch --json``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: os.PathLike, obj: Any) -> Path:
    """Write ``obj`` as pretty-printed, key-sorted JSON (dataclasses
    as their field dicts)."""
    path = Path(path)
    _atomic_write_text(
        path, json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
                         default=dataclasses.asdict) + "\n"
    )
    return path


def write_jsonl(path: os.PathLike, records: Iterable[Mapping[str, Any]]) -> Path:
    """Write one compact JSON object per line."""
    path = Path(path)
    lines = [
        json.dumps(dict(record), sort_keys=True, ensure_ascii=False)
        for record in records
    ]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return path


def write_csv(
    path: os.PathLike,
    records: Sequence[Mapping[str, Any]],
    fieldnames: Optional[Sequence[str]] = None,
) -> Path:
    """Write records as CSV; columns default to first-seen key order.

    Values that are not scalars are serialised as JSON so nothing is
    silently lost to ``str()`` formatting.
    """
    path = Path(path)
    if fieldnames is None:
        seen: Dict[str, None] = {}
        for record in records:
            for key in record:
                seen.setdefault(key, None)
        fieldnames = list(seen)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(fieldnames),
                                    extrasaction="ignore")
            writer.writeheader()
            for record in records:
                row = {}
                for key in fieldnames:
                    value = record.get(key, "")
                    if isinstance(value, (dict, list, tuple)):
                        value = json.dumps(value, sort_keys=True)
                    row[key] = value
                writer.writerow(row)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def outcome_records(outcomes) -> List[Dict[str, Any]]:
    """Flatten :class:`~repro.harness.executor.JobOutcome` objects into
    plain dicts: job identity, parameters, provenance and result.

    Dict results are inlined under ``result_<field>`` columns; scalar
    results land in a single ``result`` column.
    """
    records = []
    for outcome in outcomes:
        job = outcome.job
        record: Dict[str, Any] = {
            "fn": job.fn,
            "key": outcome.key,
            "config": job.config.name,
            "seed": job.seed,
            "cached": outcome.from_cache,
            "error": outcome.error,
        }
        for name, value in job.params.items():
            record[name] = value
        if isinstance(outcome.result, Mapping):
            for name, value in outcome.result.items():
                record[f"result_{name}"] = value
        else:
            record["result"] = outcome.result
        records.append(record)
    return records
