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

**Coalescing.**  The coordinator is a
:class:`~repro.serve.server.JobFront` like the single-node service, so
N identical submissions arriving across the fleet's front door attach
to one in-flight forward and the ``executed`` counter moves once per
unique key.  Routes, the bounded job table, cancel and drain are the
front's; this module supplies only the forwarding dispatcher, the
``/v1/workers`` routes and the health loop.

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
cache fast path and artifact route read it, so a result computed
anywhere is a cache hit everywhere.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional

from repro.harness.cache import NullCache, ResultCache
from repro.serve.http import FetchError, http_fetch, respond
from repro.serve.queue import QueueClosed
from repro.serve.router import RendezvousRouter, WorkerNode
from repro.serve.server import _TERMINAL, JobFront, JobRecord, serve_forever

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


class ClusterError(RuntimeError):
    """A forward could not complete on any live worker."""


class CoordinatorService(JobFront):
    """Route + coalesce + heal over a fleet of worker services."""

    _id_prefix = "c"

    def __init__(self, host: str = "127.0.0.1", port: int = COORDINATOR_PORT,
                 shared_store: Optional[str] = None,
                 probe_interval: float = PROBE_INTERVAL_S,
                 evict_after: int = EVICT_AFTER_FAILURES):
        super().__init__(host, port,
                         ResultCache(shared_store) if shared_store is not None
                         else NullCache())
        self.router = RendezvousRouter()
        self.shared_store = shared_store
        self.probe_interval = probe_interval
        self.evict_after = max(1, int(evict_after))
        self.evictions = 0
        self._dispatches: Dict[str, asyncio.Task] = {}
        self._health: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle

    def _launch(self) -> None:
        self._health = asyncio.create_task(
            self._health_loop(), name="coordinator-health")

    async def _quiesce(self) -> None:
        """Let in-flight forwards finish."""
        if self._health is not None:
            self._health.cancel()
        pending = [t for t in self._dispatches.values() if not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

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
    # dispatch: one forwarding task per admitted record

    def _dispatch(self, record: JobRecord) -> None:
        if not len(self.router):
            raise QueueClosed("no live workers registered")
        task = asyncio.create_task(self._forward(record),
                                   name=f"dispatch-{record.job_id}")
        self._dispatches[record.job_id] = task
        task.add_done_callback(
            lambda _t, jid=record.job_id: self._dispatches.pop(jid, None))

    def _withdraw(self, record: JobRecord) -> None:
        task = self._dispatches.pop(record.job_id, None)
        if task is not None:
            task.cancel()

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
            status, rec = await http_fetch(
                node.host, node.port, "GET", f"/v1/jobs/{worker_job}",
                timeout=PROBE_TIMEOUT_S)
            if status == 410:
                raise ClusterError(
                    f"{node.node_id} no longer retains job {worker_job}")
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

    async def _forward(self, record: JobRecord) -> None:
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
            self._finish(record, status, result=result, error=error)

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
    # HTTP and documents beyond the shared front

    async def _route_extra(self, method: str, parts: List[str], body: bytes,
                           writer: asyncio.StreamWriter) -> bool:
        if parts[:2] != ["v1", "workers"]:
            return False
        if method == "POST" and parts == ["v1", "workers", "register"]:
            try:
                doc = json.loads(body.decode("utf-8") or "null")
                host = str(doc["host"])
                port = int(doc["port"])
            except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                await respond(writer, 400,
                              {"error": "register needs {host, port}"})
                return True
            node = self.router.add(host, port, time.monotonic())
            await respond(writer, 200,
                          {"registered": node.node_id,
                           "fleet": len(self.router)})
        elif method == "GET" and parts == ["v1", "workers"]:
            await respond(writer, 200,
                          {"workers": [n.to_json()
                                       for n in self.router.nodes],
                           "live": len(self.router),
                           "evictions": self.evictions})
        else:
            await respond(writer, 405,
                          {"error": f"{method} not allowed on /v1/workers"})
        return True

    def _health_extra(self) -> Dict[str, Any]:
        return {
            "role": "coordinator",
            "workers": [n.to_json() for n in self.router.nodes],
            "live_workers": len(self.router),
            "evictions": self.evictions,
            "shared_store": self.shared_store,
        }

    def _metrics_extra(self) -> Dict[str, Any]:
        return {
            "role": "coordinator",
            "live_workers": len(self.router),
            "evictions": self.evictions,
        }


def run_coordinator(host: str = "127.0.0.1", port: int = COORDINATOR_PORT,
                    shared_store: Optional[str] = None) -> None:
    """Blocking entry point (``python -m repro serve --coordinator``)."""
    service = CoordinatorService(host=host, port=port,
                                 shared_store=shared_store)
    asyncio.run(serve_forever(service))
