"""The worker tier: spec execution in a persistent process pool.

Each worker process is long-lived and executes specs through
:meth:`repro.serve.spec.ExperimentSpec.execute`, i.e. through the same
:func:`repro.harness.executor.run_jobs` path as the batch CLI -- with
the harness's SIGALRM deadlines (legal: specs run on the worker's main
thread) and bounded retries, against a shared on-disk
:class:`~repro.harness.cache.ResultCache`.  Long-lived matters twice:
the experiment registry and decode machinery import once per worker,
and the :class:`~repro.session.pool.SessionPool` keeps attack sessions
assembled across trace requests.

Graceful degradation mirrors the harness: when a process pool cannot
be created (or breaks mid-run) the tier falls back to a thread pool
and keeps serving.  Thread mode trades in-worker SIGALRM timeout
enforcement for availability (the server-side ceiling still bounds
observed latency); ``/healthz`` reports the active mode.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple


def _worker_probe() -> int:
    """Trivial pool liveness check (import cost is paid here, once)."""
    return os.getpid()


def _worker_entry(
    payload: Tuple[Any, Optional[str], Optional[str]],
) -> Dict[str, Any]:
    """Top-level (hence picklable) worker entry: execute the admitted
    spec, flatten any exception to a string record so nothing
    unpicklable crosses back to the server process.

    The spec arrives as admission left it, with its memoized key and
    :class:`~repro.harness.job.Job` list (pickled with it in process
    mode), so the worker builds no program just to key it again.  A
    bare spec document is validated here first."""
    spec, cache_root, shared_root = payload
    from repro.harness.cache import ResultCache, TieredResultCache
    from repro.serve.spec import ExperimentSpec

    try:
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_json(spec)
        if shared_root is not None:
            cache: Any = TieredResultCache.from_roots(cache_root, shared_root)
        elif cache_root is not None:
            cache = ResultCache(cache_root)
        else:
            cache = None
        result = spec.execute(cache)
        return {"ok": True, "result": result, "pid": os.getpid()}
    except Exception as exc:  # noqa: BLE001 -- spec code is arbitrary
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "pid": os.getpid(),
        }


class WorkerTier:
    """A bounded pool of spec executors with process->thread fallback."""

    def __init__(self, workers: int = 2,
                 cache_root: Optional[os.PathLike] = None,
                 mode: str = "process",
                 shared_root: Optional[os.PathLike] = None):
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be process|thread, got {mode!r}")
        self.workers = max(1, int(workers))
        self.cache_root = None if cache_root is None else str(cache_root)
        self.shared_root = None if shared_root is None else str(shared_root)
        self.mode = mode
        self.degraded = False
        self._pool: Optional[Any] = None

    def start(self) -> "WorkerTier":
        """Build the pool; a failed process-pool probe degrades to
        threads instead of failing the whole service."""
        if self.mode == "process":
            try:
                pool = ProcessPoolExecutor(max_workers=self.workers)
                pool.submit(_worker_probe).result(timeout=120)
                self._pool = pool
                return self
            except Exception:
                self.degrade()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        return self

    def degrade(self) -> bool:
        """Switch to thread mode (idempotent); ``True`` when a switch
        actually happened."""
        if self.mode == "thread":
            return False
        old = self._pool
        self.mode = "thread"
        self.degraded = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        return True

    def submit(self, spec) -> Future:
        """Dispatch one admitted spec; returns the worker's record
        future."""
        if self._pool is None:
            self.start()
        payload = (spec, self.cache_root, self.shared_root)
        try:
            return self._pool.submit(_worker_entry, payload)
        except Exception:
            # A broken process pool raises at submit time; threads are
            # the fallback of last resort.
            if self.degrade():
                return self._pool.submit(_worker_entry, payload)
            raise

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
