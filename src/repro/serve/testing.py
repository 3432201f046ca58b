"""Test/benchmark support: run the service (or a fleet) on threads.

:class:`ServerThread` and :class:`CoordinatorThread` each own a private
event loop on a daemon thread, boot an
:class:`~repro.serve.server.ExperimentService` or a
:class:`~repro.serve.cluster.CoordinatorService` on an OS-assigned
port (``port=0``) and tear it down through the same graceful-drain
path production uses -- so every test of the serving layer also
exercises drain.  Both are thin constructors over one
:class:`_ServiceThread` that runs any
:class:`~repro.serve.server.JobFront`.

:class:`ClusterThread` composes them into a whole in-process fleet:
one coordinator plus N workers, each with its own local cache root,
all sharing one read-through store -- started, registered and drained
as a unit.  ``kill_worker(i)`` stops one worker so tests can drive
the eviction/rebalancing path.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional

from repro.harness.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.cluster import CoordinatorService
from repro.serve.server import ExperimentService, JobFront


class _ServiceThread:
    """Context manager: a live front on ``127.0.0.1:<auto>``."""

    def __init__(self, service: JobFront):
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, timeout: float = 300.0) -> ServeClient:
        return ServeClient(port=self.port, timeout=timeout)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            try:
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001 -- report to starter
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.service.wait_drained()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def start(self) -> "_ServiceThread":
        name = type(self.service).__name__
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{name}", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=180):
            raise RuntimeError(f"{name} failed to start within 180s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"{name} startup failed: {self._startup_error}")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.service.request_drain()))
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"{type(self.service).__name__} did not drain in time")

    def __enter__(self) -> "_ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServerThread(_ServiceThread):
    """A live :class:`ExperimentService`."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: int = 2, queue_capacity: int = 64,
                 worker_mode: str = "process",
                 shared_store: Optional[str] = None,
                 coordinator_url: Optional[str] = None):
        super().__init__(ExperimentService(
            host="127.0.0.1", port=0, workers=workers,
            queue_capacity=queue_capacity, cache=cache,
            worker_mode=worker_mode, shared_store=shared_store,
            coordinator_url=coordinator_url))


class CoordinatorThread(_ServiceThread):
    """A live :class:`CoordinatorService`."""

    def __init__(self, shared_store: Optional[str] = None,
                 probe_interval: float = 0.2, evict_after: int = 2):
        super().__init__(CoordinatorService(
            host="127.0.0.1", port=0, shared_store=shared_store,
            probe_interval=probe_interval, evict_after=evict_after))


class ClusterThread:
    """A whole in-process fleet: coordinator + N registered workers.

    Each worker gets a private local cache root; all workers and the
    coordinator share one read-through store.  ``start()`` blocks
    until every worker has registered, so tests can submit the moment
    the context manager returns.
    """

    def __init__(self, workers: int = 2, worker_processes: int = 1,
                 worker_mode: str = "process",
                 root: Optional[str] = None,
                 queue_capacity: int = 64,
                 probe_interval: float = 0.2, evict_after: int = 2):
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            root = self._tmp.name
        self.root = Path(root)
        self.shared_store = str(self.root / "shared")
        self.coordinator = CoordinatorThread(
            shared_store=self.shared_store,
            probe_interval=probe_interval, evict_after=evict_after)
        self._worker_count = workers
        self._worker_processes = worker_processes
        self._worker_mode = worker_mode
        self._queue_capacity = queue_capacity
        self.workers: List[ServerThread] = []

    def client(self, timeout: float = 300.0) -> ServeClient:
        """A client against the coordinator front door."""
        return self.coordinator.client(timeout=timeout)

    def worker_client(self, index: int,
                      timeout: float = 300.0) -> ServeClient:
        return self.workers[index].client(timeout=timeout)

    def start(self, register_timeout: float = 30.0) -> "ClusterThread":
        self.coordinator.start()
        coordinator_url = f"127.0.0.1:{self.coordinator.port}"
        for i in range(self._worker_count):
            worker = ServerThread(
                cache=ResultCache(self.root / f"worker-{i}"),
                workers=self._worker_processes,
                queue_capacity=self._queue_capacity,
                worker_mode=self._worker_mode,
                shared_store=self.shared_store,
                coordinator_url=coordinator_url)
            worker.start()
            self.workers.append(worker)
        deadline = time.monotonic() + register_timeout
        while time.monotonic() < deadline:
            live = len(self.coordinator.service.router)
            if live >= self._worker_count:
                return self
            time.sleep(0.05)
        raise RuntimeError(
            f"only {len(self.coordinator.service.router)} of "
            f"{self._worker_count} workers registered within "
            f"{register_timeout}s")

    def kill_worker(self, index: int) -> None:
        """Stop one worker (its port goes dark; the coordinator's
        health loop then evicts it and reroutes its key share)."""
        self.workers[index].stop()

    def stop(self) -> None:
        for worker in self.workers:
            try:
                worker.stop()
            except RuntimeError:
                pass  # already killed by the test
        self.coordinator.stop()
        if self._tmp is not None:
            self._tmp.cleanup()

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
