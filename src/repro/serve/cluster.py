"""The cluster coordinator: route, forward, coalesce, heal.

:class:`CoordinatorService` is the fleet-facing front end of the
distributed serving tier.  It owns no worker pool of its own --
execution happens on N registered worker nodes, each an ordinary
:class:`~repro.serve.server.ExperimentService` started with
``coordinator_url`` pointing here -- and instead owns the three things
a fleet needs exactly one of:

**Routing.**  Every submission is keyed by its spec's schema-versioned
SHA-256 content hash and routed to a worker via rendezvous hashing
(:class:`~repro.serve.router.RendezvousRouter`), so identical
submissions always land on the same node, where the worker's own
coalescing map and local cache tier finish the job.  Evicting a
worker reroutes only its ~1/N key share.

**Coalescing.**  The coordinator keeps the same ``active`` key -> record
map the single-node service keeps, so N identical submissions arriving
across the fleet's front door attach to one in-flight forward and the
``executed`` counter moves once per unique key -- the cluster-wide
generalisation of PR 7's single-node guarantee.

**Health.**  A probe loop hits every worker's ``/healthz`` on an
interval; consecutive failures evict the node from the router.  A
forward already in flight to a dying node fails over down the key's
rendezvous ranking (:meth:`RendezvousRouter.ranked`) and re-dispatches
-- a worker that finished the job before dying has already written
the shared store, so the re-dispatch is usually a cache hit on the
next node.  Workers re-register on a heartbeat, so an evicted node
that comes back simply reappears in the router.

**Replicated sweeps.**  A ``sweep`` spec is split into its per-point
``job`` specs, each routed *by its own harness job key* across the
fleet and executed concurrently; the coordinator reassembles the
results in grid order into the same merged document a single node
would have produced.  Duplicate grid points dispatch once.

Results flow back through the shared read-through store
(``shared_store``): workers write through to it, the coordinator's
cache fast path reads it, so a result computed anywhere is a cache
hit everywhere.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.cache import ResultCache
from repro.serve.http import FetchError, http_fetch, read_request, respond
from repro.serve.metrics import ServiceMetrics
from repro.serve.router import RendezvousRouter, WorkerNode
from repro.serve.server import (DEFAULT_JOB_CEILING_S, TIMEOUT_GRACE_S,
                                JobRecord, stream_record_events)
from repro.serve.spec import ExperimentSpec, SpecError

#: Default coordinator port (workers default to 8787).
COORDINATOR_PORT = 8786

#: Consecutive failed probes/forwards before a worker is evicted.
EVICT_AFTER_FAILURES = 3

#: How often the health loop probes each live worker.
PROBE_INTERVAL_S = 1.0

#: Per-probe timeout (a worker slower than this is as good as down).
PROBE_TIMEOUT_S = 5.0

#: Concurrent per-job forwards per sweep (per coordinator instance).
SWEEP_FAN_OUT = 16

_TERMINAL = ("done", "failed", "timeout", "cancelled")


class ClusterError(RuntimeError):
    """A forward could not complete on any live worker."""


class CoordinatorService:
    """Route + coalesce + heal over a fleet of worker services."""

    def __init__(self, host: str = "127.0.0.1", port: int = COORDINATOR_PORT,
                 shared_store: Optional[str] = None,
                 probe_interval: float = PROBE_INTERVAL_S,
                 evict_after: int = EVICT_AFTER_FAILURES):
        self.host = host
        self.port = port
        self.router = RendezvousRouter()
        self.cache: Optional[ResultCache] = (
            ResultCache(shared_store) if shared_store is not None else None)
        self.shared_store = shared_store
        self.probe_interval = probe_interval
        self.evict_after = max(1, int(evict_after))
        self.metrics = ServiceMetrics()
        self.jobs: Dict[str, JobRecord] = {}
        self.active: Dict[str, JobRecord] = {}
        self.draining = False
        self.evictions = 0
        self._job_ids = itertools.count(1)
        self._dispatches: Dict[str, asyncio.Task] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._health: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._health = asyncio.create_task(
            self._health_loop(), name="coordinator-health")

    async def request_drain(self) -> None:
        """Refuse new submissions, let in-flight forwards finish."""
        if self.draining:
            return
        self.draining = True
        if self._health is not None:
            self._health.cancel()
        pending = [t for t in self._dispatches.values() if not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    # ------------------------------------------------------------------
    # fleet health

    def _note_failure(self, node: WorkerNode) -> None:
        node.failures += 1
        if node.alive and node.failures >= self.evict_after:
            if self.router.evict(node.node_id):
                self.evictions += 1

    async def _probe(self, node: WorkerNode) -> None:
        try:
            status, doc = await http_fetch(
                node.host, node.port, "GET", "/healthz",
                timeout=PROBE_TIMEOUT_S)
        except FetchError:
            self._note_failure(node)
            return
        if status == 200 and doc.get("status") in ("ok", "draining"):
            node.failures = 0
            node.last_seen_mono = time.monotonic()
        else:
            self._note_failure(node)

    async def _health_loop(self) -> None:
        while not self.draining:
            await asyncio.sleep(self.probe_interval)
            live = list(self.router.live_nodes)
            if live:
                await asyncio.gather(*(self._probe(n) for n in live),
                                     return_exceptions=True)

    # ------------------------------------------------------------------
    # admission (mirrors the single-node service, minus the queue)

    def submit(self, spec: ExperimentSpec) -> Tuple[JobRecord, bool]:
        """Coalesce, answer from the shared store, or dispatch.

        Raises :class:`ClusterError` when the fleet is empty."""
        if self.draining:
            raise ClusterError("coordinator is draining")
        key = spec.key()

        twin = self.active.get(key)
        if twin is not None and not twin.terminal:
            twin.coalesced += 1
            self.metrics.coalesced(spec.kind, key)
            return twin, False

        hit = spec.cached_result(self.cache)
        if hit is not None:
            record = self._new_record(spec, "cache")
            record.status = "done"
            record.result = hit
            record.finished_at = record.submitted_at
            record.finished_mono = record.submitted_mono
            record.done_event.set()
            self.metrics.cache_hit(spec.kind, key)
            return record, True

        if not len(self.router):
            raise ClusterError("no live workers registered")

        record = self._new_record(spec, "queued")
        self.active[key] = record
        self.metrics.submitted(spec.kind, key)
        task = asyncio.create_task(self._dispatch(record),
                                   name=f"dispatch-{record.job_id}")
        self._dispatches[record.job_id] = task
        task.add_done_callback(
            lambda _t, jid=record.job_id: self._dispatches.pop(jid, None))
        return record, True

    def _new_record(self, spec: ExperimentSpec, source: str) -> JobRecord:
        record = JobRecord(f"c{next(self._job_ids):06d}", spec, source)
        self.jobs[record.job_id] = record
        return record

    def cancel(self, record: JobRecord) -> bool:
        """Cancel a not-yet-running forward.  As on the single node,
        the one ``finish`` transitions *every* coalesced waiter --
        their streams get ``finished`` + ``end``, their polls see
        ``cancelled``."""
        if record.terminal or record.status == "running":
            return False
        task = self._dispatches.pop(record.job_id, None)
        if task is not None:
            task.cancel()
        self.active.pop(record.key, None)
        record.finish("cancelled", error="cancelled before dispatch")
        self.metrics.finished(record.spec.describe(), record.key,
                              "cancelled", record.latency_s())
        return True

    # ------------------------------------------------------------------
    # forwarding

    def _ceiling(self, spec: ExperimentSpec) -> float:
        if spec.timeout is not None:
            return spec.timeout * (1 + spec.retries) + TIMEOUT_GRACE_S
        return DEFAULT_JOB_CEILING_S

    async def _forward_on(self, node: WorkerNode, doc: Dict[str, Any],
                          ceiling: float) -> Dict[str, Any]:
        """Run one spec document to a terminal record on ``node``.

        Raises :class:`FetchError` when the node stops answering --
        the caller's failover loop turns that into a re-dispatch."""
        deadline = time.monotonic() + ceiling
        while True:  # admission, with worker-side backpressure honoured
            status, reply = await http_fetch(
                node.host, node.port, "POST", "/v1/jobs?forwarded=1",
                body=doc, timeout=PROBE_TIMEOUT_S)
            if status == 429:
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"{node.node_id} stayed backpressured past the "
                        f"{ceiling:.0f}s ceiling")
                await asyncio.sleep(
                    min(float(reply.get("retry_after", 1.0)), 2.0))
                continue
            if status >= 400:
                raise ClusterError(
                    f"{node.node_id} refused forward: "
                    f"{reply.get('error', status)}")
            break
        node.forwarded += 1
        if reply.get("status") in _TERMINAL:
            return reply
        worker_job = reply["id"]
        poll = 0.02
        while True:
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"{node.node_id} did not finish within the "
                    f"{ceiling:.0f}s ceiling")
            await asyncio.sleep(poll)
            poll = min(poll * 1.5, 0.5)
            _status, rec = await http_fetch(
                node.host, node.port, "GET", f"/v1/jobs/{worker_job}",
                timeout=PROBE_TIMEOUT_S)
            if rec.get("status") in _TERMINAL:
                return rec

    async def _dispatch_one(self, doc: Dict[str, Any], key: str,
                            ceiling: float) -> Dict[str, Any]:
        """Forward one spec by key with rendezvous failover: walk the
        key's preference ranking, skipping nodes as they die."""
        tried: set = set()
        last_error: Optional[Exception] = None
        while True:
            candidates = [n for n in self.router.ranked(key)
                          if n.node_id not in tried]
            if not candidates:
                raise ClusterError(
                    f"no live worker could run key {key[:12]}...: "
                    f"{last_error}")
            node = candidates[0]
            try:
                return await self._forward_on(node, doc, ceiling)
            except FetchError as exc:
                # The node went dark mid-forward: count it against the
                # node and fail over down the ranking.  If the node
                # finished before dying it wrote the shared store, so
                # the re-dispatch is a cache hit on its successor.
                last_error = exc
                tried.add(node.node_id)
                self._note_failure(node)

    async def _dispatch(self, record: JobRecord) -> None:
        spec = record.spec
        status, result, error = "failed", None, "unknown cluster failure"
        try:
            record.status = "running"
            record.started_at = time.time()
            record.started_mono = time.monotonic()
            record.publish("started")
            if spec.kind == "sweep":
                result = await self._run_sweep(record)
                status, error = "done", None
            else:
                self.metrics.started(spec.kind, record.key)
                wrec = await self._dispatch_one(
                    spec.as_dict(), record.key, self._ceiling(spec))
                status = str(wrec.get("status"))
                result = wrec.get("result")
                error = wrec.get("error")
        except asyncio.CancelledError:
            return  # cancel() already finished the record
        except ClusterError as exc:
            status, error = "failed", str(exc)
        except Exception as exc:  # noqa: BLE001 -- keep the loop alive
            status, error = "failed", f"{type(exc).__name__}: {exc}"
        finally:
            self.active.pop(record.key, None)
            if not record.terminal:
                record.finish(status, result=result, error=error)
                self.metrics.finished(spec.describe(), record.key, status,
                                      record.latency_s())

    async def _run_sweep(self, record: JobRecord) -> Dict[str, Any]:
        """Split a sweep across the fleet, reassemble in grid order.

        Each grid point becomes a ``job`` spec routed by its own
        harness job key; duplicate points dispatch once and the
        ``executed`` counter moves once per *unique* key."""
        spec = record.spec
        jobs = spec.jobs()
        order: List[str] = []
        unique: Dict[str, Dict[str, Any]] = {}
        for job in jobs:
            key = job.key()
            order.append(key)
            if key not in unique:
                unique[key] = {
                    "kind": "job",
                    "params": {"fn": job.fn, "params": dict(job.params)},
                    "cpu": spec.cpu,
                    "seed": job.seed,
                    "priority": spec.priority,
                    "timeout": spec.timeout,
                    "retries": spec.retries,
                    "refresh": spec.refresh,
                }
        sem = asyncio.Semaphore(SWEEP_FAN_OUT)
        ceiling = self._ceiling(spec)

        async def one(key: str, doc: Dict[str, Any]) -> Dict[str, Any]:
            async with sem:
                self.metrics.started("job", key)
                return await self._dispatch_one(doc, key, ceiling)

        wrecs = await asyncio.gather(
            *(one(k, d) for k, d in unique.items()))
        by_key = dict(zip(unique.keys(), wrecs))
        failed = [(k, r) for k, r in by_key.items()
                  if r.get("status") != "done"]
        if failed:
            key, rec = failed[0]
            raise ClusterError(
                f"{len(failed)}/{len(unique)} sweep shard(s) failed; "
                f"first ({key[:12]}...): {rec.get('error')}")
        docs = [by_key[k]["result"] for k in order]
        return {
            "kind": "sweep",
            "executed": sum(d.get("executed", 0) for d in docs),
            "cached": sum(d.get("cached", 0) for d in docs),
            "retries": sum(d.get("retries", 0) for d in docs),
            "results": [d.get("result") for d in docs],
        }

    # ------------------------------------------------------------------
    # HTTP

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("?", 1)[0].split("/") if p]

        if method == "GET" and parts == ["healthz"]:
            await respond(writer, 200, self._healthz())
            return
        if method == "GET" and parts == ["metrics"]:
            await respond(writer, 200, self._metrics_doc())
            return
        if parts[:2] == ["v1", "workers"]:
            await self._route_workers(method, parts, body, writer)
            return
        if parts[:2] != ["v1", "jobs"]:
            await respond(writer, 404, {"error": f"no route {path}"})
            return

        if method == "POST" and len(parts) == 2:
            await self._post_job(body, writer)
            return
        if method == "GET" and len(parts) == 2:
            listing = [r.to_json() for r in self.jobs.values()]
            await respond(writer, 200, {"jobs": listing})
            return

        record = self.jobs.get(parts[2]) if len(parts) >= 3 else None
        if record is None:
            await respond(writer, 404,
                          {"error": f"unknown job {parts[2:3]}"})
            return
        if method == "GET" and len(parts) == 3:
            await respond(writer, 200, record.to_json())
        elif method == "DELETE" and len(parts) == 3:
            if self.cancel(record):
                await respond(writer, 200, record.to_json())
            else:
                await respond(
                    writer, 409,
                    {"error": f"job is {record.status}; only queued "
                              f"jobs can be cancelled",
                     "record": record.to_json()})
        elif method == "GET" and len(parts) == 4 and parts[3] == "events":
            await stream_record_events(record, writer)
        else:
            await respond(writer, 405,
                          {"error": f"{method} not allowed on {path}"})

    async def _route_workers(self, method: str, parts: List[str],
                             body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        if method == "POST" and parts == ["v1", "workers", "register"]:
            try:
                doc = json.loads(body.decode("utf-8") or "null")
                host = str(doc["host"])
                port = int(doc["port"])
            except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                await respond(writer, 400,
                              {"error": "register needs {host, port}"})
                return
            node = self.router.add(host, port, time.monotonic())
            await respond(writer, 200,
                          {"registered": node.node_id,
                           "fleet": len(self.router)})
            return
        if method == "GET" and parts == ["v1", "workers"]:
            await respond(writer, 200,
                          {"workers": [n.to_json()
                                       for n in self.router.nodes],
                           "live": len(self.router),
                           "evictions": self.evictions})
            return
        await respond(writer, 405,
                      {"error": f"{method} not allowed on /v1/workers"})

    async def _post_job(self, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            await respond(writer, 400, {"error": "body is not JSON"})
            return
        try:
            spec = ExperimentSpec.from_json(doc)
        except SpecError as exc:
            self.metrics.rejected("invalid")
            await respond(writer, 400, {"error": str(exc)})
            return
        try:
            record, created = self.submit(spec)
        except ClusterError as exc:
            self.metrics.rejected("no_workers")
            await respond(writer, 503, {"error": str(exc)})
            return
        status = 200 if record.terminal else 202
        await respond(writer, status,
                      {"coalesced": not created, **record.to_json()})

    # ------------------------------------------------------------------
    # documents

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "role": "coordinator",
            "workers": [n.to_json() for n in self.router.nodes],
            "live_workers": len(self.router),
            "evictions": self.evictions,
            "jobs_tracked": len(self.jobs),
            "in_flight": len(self.active),
            "shared_store": self.shared_store,
        }

    def _metrics_doc(self) -> Dict[str, Any]:
        return self.metrics.to_json(
            role="coordinator",
            live_workers=len(self.router),
            evictions=self.evictions,
            in_flight=len(self.active),
            draining=self.draining,
        )


async def coordinate_forever(service: CoordinatorService) -> None:
    """Run until drained; installs SIGTERM/SIGINT drain handlers."""
    await service.start()
    loop = asyncio.get_running_loop()

    def _drain() -> None:
        asyncio.ensure_future(service.request_drain())

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _drain)
        except (NotImplementedError, RuntimeError):
            pass
    await service.wait_drained()


def run_coordinator(host: str = "127.0.0.1", port: int = COORDINATOR_PORT,
                    shared_store: Optional[str] = None) -> None:
    """Blocking entry point (``python -m repro serve --coordinator``)."""
    service = CoordinatorService(host=host, port=port,
                                 shared_store=shared_store)
    asyncio.run(coordinate_forever(service))
