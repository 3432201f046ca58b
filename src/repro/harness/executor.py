"""Parallel job runner with caching, timeouts and bounded retries.

:func:`run_jobs` is the harness entry point: given a list of
:class:`~repro.harness.job.Job` specs it

1. answers every job it can from the :class:`ResultCache` (content
   hash lookup -- the simulator is deterministic, so a hit is exact),
   taking the key of a job that would build a program to compute it
   from the cache's key index when an entry validates;
2. fans the rest out over a ``ProcessPoolExecutor`` (``workers > 1``)
   or runs them inline (``workers == 1``, or whenever a pool cannot be
   created/breaks -- graceful degradation, never a hard failure);
3. enforces a per-job wall-clock timeout (``SIGALRM``-based, so it
   works inside single-threaded worker processes) and retries
   *transient* failures -- timeouts, :class:`TransientJobError`,
   ``OSError`` -- up to ``retries`` extra attempts;
4. reports a :class:`RunSummary` whose ``executed``/``cached`` split
   is the observable proof of cache effectiveness ("0 executed" on a
   warm re-run); a job sharing its key with an earlier one in the
   batch is counted in ``duplicates``, not as a cache hit.

Results come back in job order, as :class:`JobOutcome` records.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.cache import NullCache, ResultCache
from repro.harness.job import Job


class TransientJobError(Exception):
    """Raise inside a job to request a retry (bounded by ``retries``)."""


class JobTimeoutError(TransientJobError):
    """A job exceeded its wall-clock budget."""


#: Exception types that qualify for a retry.
TRANSIENT_TYPES = (TransientJobError, OSError)


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    key: str
    result: Any = None
    error: Optional[str] = None
    from_cache: bool = False
    attempts: int = 0

    @property
    def ok(self) -> bool:
        """True when a result is available (computed or cached)."""
        return self.error is None


@dataclass
class RunSummary:
    """Aggregate accounting for one :func:`run_jobs` invocation."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    duplicates: int = 0
    failed: int = 0
    retries: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    fallback_serial: bool = False

    def format(self) -> str:
        """One-line run report (printed by ``python -m repro batch``)."""
        mode = f"{self.workers} worker(s)"
        if self.fallback_serial and self.workers > 1:
            mode += ", degraded to serial"
        dups = f"{self.duplicates} duplicate(s), " if self.duplicates else ""
        line = (
            f"{self.total} job(s): {self.executed} executed, "
            f"{self.cached} from cache, {dups}{self.failed} failed "
            f"({mode}, {self.wall_seconds:.1f}s)"
        )
        if self.retries:
            line += f" [{self.retries} retr{'y' if self.retries == 1 else 'ies'}]"
        return line


# ----------------------------------------------------------------------
# Timeout plumbing


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`JobTimeoutError` if the body outlives ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which is only legal on the main
    thread of a process -- exactly where jobs run, both in worker
    processes and in the serial path.  Elsewhere (or without a budget)
    it is a no-op, trading enforcement for availability.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"job exceeded {seconds:.1f}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(job: Job, timeout: Optional[float]):
    """Run one job under its deadline; returns ``(ok, payload, transient)``.

    Exceptions are flattened to strings here so nothing unpicklable
    ever crosses the process boundary back to the parent.
    """
    try:
        with _deadline(timeout):
            return True, job.run(), False
    except Exception as exc:  # noqa: BLE001 -- job code is arbitrary
        transient = isinstance(exc, TRANSIENT_TYPES)
        return False, f"{type(exc).__name__}: {exc}", transient


def _pool_entry(payload):
    """Top-level (hence picklable) worker entry point."""
    job, timeout = payload
    return _execute(job, timeout)


# ----------------------------------------------------------------------
# Runner


def run_jobs(
    jobs: Sequence[Job],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    refresh: bool = False,
) -> tuple:
    """Execute ``jobs``; returns ``(outcomes, summary)`` in job order.

    ``cache=None`` disables caching entirely.  ``refresh=True`` skips
    cache lookups (the key index too) but still stores fresh results
    (forced recompute).
    """
    start = time.monotonic()
    store = cache if cache is not None else NullCache()
    summary = RunSummary(total=len(jobs), workers=max(1, int(workers)))
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    indexed = not refresh and isinstance(store, ResultCache)

    # Phase 1: cache lookups, through the key index for a job whose key
    # would build a program.  An entry is written only when such a job,
    # keyed by building, hits: a repeat ask.  Duplicate keys within one
    # batch are computed once and fanned back out afterwards via
    # `key_owners`.
    pending: List[int] = []
    for i, job in enumerate(jobs):
        prekey = job.prekey() if indexed else None
        if prekey is not None:
            found = store.get_indexed(prekey, job.fn)
            if found is not None:
                key, hit = found
                job.adopt_key(key)
                outcomes[i] = JobOutcome(job, key, result=hit,
                                         from_cache=True)
                summary.cached += 1
                continue
        key = job.key()
        hit = None if refresh else store.get(key)
        if hit is not None:
            outcomes[i] = JobOutcome(job, key, result=hit, from_cache=True)
            summary.cached += 1
            if prekey is not None:
                store.put_index(prekey, key)
        else:
            pending.append(i)

    key_owners: Dict[str, int] = {}
    unique_pending: List[int] = []
    duplicates: List[int] = []
    for i in pending:
        key = jobs[i].key()
        if key in key_owners:
            duplicates.append(i)
        else:
            key_owners[key] = i
            unique_pending.append(i)

    # Phase 2: compute.
    attempts = {i: 0 for i in unique_pending}
    budget = max(0, int(retries))

    def record(i: int, ok: bool, payload: Any) -> None:
        job = jobs[i]
        key = job.key()
        if ok:
            outcomes[i] = JobOutcome(
                job, key, result=payload, attempts=attempts[i]
            )
            summary.executed += 1
            store.put(key, job.fn, payload)
        else:
            outcomes[i] = JobOutcome(
                job, key, error=payload, attempts=attempts[i]
            )
            summary.failed += 1

    def run_serial(indices: Sequence[int]) -> None:
        for i in indices:
            while True:
                attempts[i] += 1
                ok, payload, transient = _execute(jobs[i], timeout)
                if ok or not transient or attempts[i] > budget:
                    record(i, ok, payload)
                    break
                summary.retries += 1

    if summary.workers > 1 and unique_pending:
        try:
            _run_pool(
                jobs, unique_pending, summary, attempts, budget,
                timeout, record,
            )
        except Exception:  # pool construction/teardown failed entirely
            summary.fallback_serial = True
            leftover = [i for i in unique_pending if outcomes[i] is None]
            run_serial(leftover)
    else:
        run_serial(unique_pending)

    # Phase 3: fan duplicate keys back out.
    for i in duplicates:
        owner = outcomes[key_owners[jobs[i].key()]]
        outcomes[i] = JobOutcome(
            jobs[i], owner.key, result=owner.result, error=owner.error,
            from_cache=owner.from_cache, attempts=owner.attempts,
        )
        if owner.ok:
            summary.duplicates += 1
        else:
            summary.failed += 1

    summary.wall_seconds = time.monotonic() - start
    return [o for o in outcomes if o is not None], summary


def _run_pool(jobs, indices, summary, attempts, budget, timeout, record):
    """Fan ``indices`` out over a process pool, resubmitting transient
    failures until each job succeeds, fails fatally, or exhausts its
    retry budget.  A broken pool degrades the remainder to serial."""
    with ProcessPoolExecutor(max_workers=summary.workers) as pool:
        futures = {}
        for i in indices:
            attempts[i] += 1
            futures[pool.submit(_pool_entry, (jobs[i], timeout))] = i
        while futures:
            try:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
            except Exception:
                done = []
            if not done:
                raise RuntimeError("process pool wait failed")
            for fut in done:
                i = futures.pop(fut)
                try:
                    ok, payload, transient = fut.result()
                except Exception as exc:  # worker died (BrokenProcessPool &c)
                    ok, payload, transient = (
                        False,
                        f"{type(exc).__name__}: {exc}",
                        True,
                    )
                if not ok and transient and attempts[i] <= budget:
                    summary.retries += 1
                    attempts[i] += 1
                    try:
                        futures[pool.submit(_pool_entry, (jobs[i], timeout))] = i
                        continue
                    except Exception:
                        # Pool became unusable mid-run; everything not
                        # yet recorded reruns serially in the caller.
                        raise RuntimeError(
                            "process pool became unavailable"
                        ) from None
                record(i, ok, payload)


def raise_on_failure(outcomes: Sequence[JobOutcome]) -> None:
    """Raise ``RuntimeError`` naming the first failed job, if any."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(f"{len(failed)}/{len(outcomes)} job(s) failed; "
                           f"first: {failed[0].job.label}: {failed[0].error}")
