"""repro.serve: async experiment service over the harness.

The serving layer exposes every harness-runnable experiment over
HTTP/JSON (stdlib-only: ``asyncio`` streams and hand-rolled HTTP/1.1
framing -- no new dependencies):

- ``POST /v1/jobs`` validates an :class:`ExperimentSpec` (a single
  registered job, a parameter sweep, a lint run or a trace capture)
  and enqueues it on a bounded priority queue; a full queue answers
  ``429`` with ``Retry-After`` (explicit backpressure, never unbounded
  buffering).
- Identical concurrent submissions are **coalesced** on their
  schema-versioned SHA-256 job keys: N waiters, one execution, the
  result fanned out to all of them.
- A process-pool worker tier executes specs through the same
  :func:`repro.harness.executor.run_jobs` path the batch CLI uses,
  sharing its content-addressed :class:`ResultCache` -- a result
  computed by ``python -m repro batch`` warms the server, and vice
  versa.
- ``GET /v1/jobs/<id>/events`` streams job lifecycle as NDJSON;
  ``/healthz`` and ``/metrics`` surface queue depth, coalescing and
  cache hit-rates and per-kind latency histograms built on the
  :mod:`repro.observe` event bus.
- The job table is bounded: in-flight records always stay, terminal
  ones are dropped earliest-finished first past a fixed cap, and a
  dropped id answers ``410``.
- **Cluster mode** (:mod:`repro.serve.cluster`): a coordinator routes
  submissions to N registered worker nodes by rendezvous-hashing
  their job keys, coalesces identical fleet-wide submissions, splits
  sweeps across the fleet, and evicts/reroutes around dead workers;
  results tier through memory -> local disk -> a shared read-through
  store (:class:`repro.harness.cache.TieredResultCache`).

Both roles are one :class:`~repro.serve.server.JobFront` -- the same
routes, admission, job table, cancel and drain -- over two
dispatchers: the single-node queue and worker tier, and the
coordinator's forwarder.

Quick start::

    python -m repro serve --port 8787 --workers 4 &
    python -m repro submit covert --wait

or programmatically::

    from repro.serve import ServeClient
    client = ServeClient(port=8787)
    record = client.submit_and_wait(
        {"kind": "job",
         "params": {"fn": "debug.echo", "params": {"x": 1}}})
    print(record["result"])

See ``docs/SERVE.md`` for the full API reference.
"""

from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.cluster import ClusterError, CoordinatorService
from repro.serve.metrics import SERVE_KINDS, ServiceMetrics
from repro.serve.queue import BoundedPriorityQueue, QueueClosed, QueueFull
from repro.serve.router import RendezvousRouter, WorkerNode
from repro.serve.spec import (
    KINDS,
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    SpecError,
)
from repro.serve.worker import WorkerTier

__all__ = [
    "Backpressure",
    "BoundedPriorityQueue",
    "ClusterError",
    "CoordinatorService",
    "ExperimentSpec",
    "KINDS",
    "QueueClosed",
    "QueueFull",
    "RendezvousRouter",
    "SERVE_KINDS",
    "SPEC_SCHEMA_VERSION",
    "ServeClient",
    "ServeError",
    "ServiceMetrics",
    "SpecError",
    "WorkerNode",
    "WorkerTier",
]
