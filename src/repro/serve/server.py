"""The experiment service: asyncio HTTP front end over the harness.

:class:`JobFront` is the HTTP face shared by both serving roles: the
connection handler and the one route table, admission (drain check,
coalescing, the cache fast path), the job table, cancellation, drain
and the ``serve_forever`` loop.  A subclass supplies only how an
admitted record is *dispatched* and *withdrawn*:

- :class:`ExperimentService` (this module) queues records on a
  :class:`~repro.serve.queue.BoundedPriorityQueue`; a handful of
  runner coroutines shuttle them to the
  :class:`~repro.serve.worker.WorkerTier`.
- :class:`~repro.serve.cluster.CoordinatorService` forwards them to a
  fleet of worker services by rendezvous hash.

The HTTP layer is deliberately minimal -- hand-rolled HTTP/1.1 over
``asyncio.start_server``, one request per connection (``Connection:
close``) -- because the payloads are small JSON documents and NDJSON
streams, and the stdlib-only constraint rules out a framework.

Coalescing is the structural centerpiece: ``active`` maps the spec's
schema-versioned SHA-256 key to the single in-flight
:class:`JobRecord`; an identical concurrent submission attaches to the
existing record (zero new work) and the ``executed`` metric counter
stays at one.  Because ``job`` spec keys *are* harness job keys, the
coalescing map, the on-disk result cache and the batch CLI all share
one key space.

Admission is memoized per front: a repeated spec document (same
canonical JSON, any key order) gets the :class:`ExperimentSpec` the
front validated for it before, key and jobs included, so only a
document's first sighting is validated and keyed -- the step that
builds each job's program on the event loop.  The memo holds at most
:data:`MAX_RETAINED_JOBS` documents, least recently used out first,
and never holds a rejected one.

The job table is bounded: at most :data:`MAX_RETAINED_JOBS` terminal
records are kept, the earliest-finished dropped first; in-flight
records are never dropped.  Job ids are sequential, so an id that was
issued and later dropped is recognisable without tombstones and
answers ``410 Gone``.

Shutdown is a drain, not an abort: ``request_drain()`` flips the
service to refuse new submissions (503), lets accepted work finish,
then closes the listener and every connection still open.

Two clocks, deliberately: **wall-clock** timestamps
(``submitted_at``/``started_at``/``finished_at``) appear in the JSON
record for operators to correlate with logs, while every *duration*
the service computes -- queue wait, job latency, the histogram feed --
comes from ``time.monotonic()`` captured at the same edges, so an NTP
step can skew a displayed timestamp but never a latency metric.

Cluster mode: constructed with a ``coordinator_url`` the service is a
*worker node* -- it registers itself with the coordinator on start
and re-registers on a heartbeat interval (registration doubles as the
liveness signal and as recovery after an eviction), and submissions
relayed by the coordinator arrive on the same ``POST /v1/jobs`` route
flagged ``?forwarded=1`` so ``/metrics`` can tell fleet traffic from
direct traffic.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

from repro.harness.cache import ResultCache, TieredResultCache
from repro.harness.job import canonical_json
from repro.serve.http import FetchError, http_fetch, read_request, respond
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import BoundedPriorityQueue, QueueClosed, QueueFull
from repro.serve.spec import ExperimentSpec, SpecError
from repro.serve.worker import WorkerTier

#: Grace added to a spec's own timeout for the server-side ceiling --
#: the worker enforces the precise deadline (SIGALRM); this backstop
#: only catches a wedged worker or thread-mode degradation.
TIMEOUT_GRACE_S = 10.0

#: Ceiling for specs that declare no timeout of their own.
DEFAULT_JOB_CEILING_S = 600.0

#: How often a cluster worker re-registers with its coordinator.
HEARTBEAT_INTERVAL_S = 2.0

#: Terminal records a front keeps in its job table; beyond this the
#: earliest-finished is dropped and its id answers 410.  Also the
#: bound on a front's memo of admitted spec documents.
MAX_RETAINED_JOBS = 4096

_TERMINAL = ("done", "failed", "timeout", "cancelled")


class JobRecord:
    """Server-side state for one logical job (possibly many waiters).

    Wall-clock timestamps (``*_at``) are display-only; the paired
    ``*_mono`` fields carry the same edges on the monotonic clock and
    are the only inputs to latency accounting, so a stepped system
    clock (NTP correction, manual set) cannot produce negative or
    inflated durations.
    """

    __slots__ = ("job_id", "spec", "key", "status", "result", "error",
                 "submitted_at", "started_at", "finished_at",
                 "submitted_mono", "started_mono", "finished_mono",
                 "coalesced", "source", "done_event", "subscribers")

    def __init__(self, job_id: str, spec: ExperimentSpec, source: str):
        self.job_id = job_id
        self.spec = spec
        self.key = spec.key()
        self.status = "queued"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.submitted_mono = time.monotonic()
        self.started_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None
        self.coalesced = 0           # submissions that attached to this record
        self.source = source         # queued | coalesced | cache
        self.done_event = asyncio.Event()
        self.subscribers: List[asyncio.Queue] = []

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def latency_s(self) -> float:
        """Submission-to-now (or -finish) on the monotonic clock."""
        end = (self.finished_mono if self.finished_mono is not None
               else time.monotonic())
        return max(0.0, end - self.submitted_mono)

    def queue_wait_s(self) -> Optional[float]:
        """Queue-admission to execution-start, monotonic."""
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.submitted_mono)

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "key": self.key,
            "kind": self.spec.kind,
            "describe": self.spec.describe(),
            "status": self.status,
            "source": self.source,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    # -- lifecycle fan-out --------------------------------------------

    def publish(self, event: str, **data) -> None:
        doc = {"event": event, "id": self.job_id, "status": self.status,
               **data}
        for sub in list(self.subscribers):
            try:
                sub.put_nowait(doc)
            except asyncio.QueueFull:
                pass  # a stalled streamer drops updates, not the job

    def finish(self, status: str, result: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None) -> None:
        self.status = status
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self.done_event.set()
        self.publish("finished", error=error)


async def stream_record_events(record: JobRecord,
                               writer: asyncio.StreamWriter) -> None:
    """NDJSON lifecycle stream for one record; ends with an ``end``
    event carrying the terminal record.  Shared by the single-node
    service and the cluster coordinator."""
    headers = ("HTTP/1.1 200 OK\r\n"
               "Content-Type: application/x-ndjson\r\n"
               "Connection: close\r\n\r\n")
    writer.write(headers.encode())

    def line(doc: Dict[str, Any]) -> bytes:
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    writer.write(line({"event": "snapshot", **record.to_json()}))
    await writer.drain()
    if not record.terminal:
        sub: asyncio.Queue = asyncio.Queue(maxsize=256)
        record.subscribers.append(sub)
        try:
            while not record.terminal:
                getter = asyncio.create_task(sub.get())
                waiter = asyncio.create_task(record.done_event.wait())
                done, pending = await asyncio.wait(
                    {getter, waiter},
                    return_when=asyncio.FIRST_COMPLETED)
                for task in pending:
                    task.cancel()
                if getter in done:
                    writer.write(line(getter.result()))
                    await writer.drain()
            # flush whatever arrived before the terminal edge
            while not sub.empty():
                writer.write(line(sub.get_nowait()))
        finally:
            if sub in record.subscribers:
                record.subscribers.remove(sub)
    writer.write(line({"event": "end", "record": record.to_json()}))
    await writer.drain()



class JobFront:
    """The shared front: routes, admission, job table, cancel, drain.

    Subclasses implement :meth:`_dispatch` (accept an admitted record
    or raise :class:`QueueFull`/:class:`QueueClosed`),
    :meth:`_withdraw` (take back a record that has not started) and
    finish every dispatched record through :meth:`_finish`.  The
    remaining hooks default to doing nothing.
    """

    #: First character of every job id this front issues.
    _id_prefix = "j"

    def __init__(self, host: str, port: int, cache: Any):
        self.host = host
        self.port = port
        self.cache = cache
        self.metrics = ServiceMetrics()
        self.jobs: Dict[str, JobRecord] = {}       # id -> retained record
        self.active: Dict[str, JobRecord] = {}     # key -> in-flight record
        self.draining = False
        self._issued = 0                           # ids handed out so far
        self._retired: Deque[str] = deque()        # terminal ids, by finish
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()  # open handlers
        self._drained = asyncio.Event()
        # sha256(canonical document) -> admitted spec, least recent first
        self._admitted: "OrderedDict[bytes, ExperimentSpec]" = OrderedDict()

    # ------------------------------------------------------------------
    # subclass hooks

    def _dispatch(self, record: JobRecord) -> None:
        raise NotImplementedError

    def _withdraw(self, record: JobRecord) -> None:
        raise NotImplementedError

    def _launch(self) -> None:
        """Start background work once the listener is bound."""

    async def _quiesce(self) -> None:
        """Finish accepted work before the listener closes."""

    async def _wake(self) -> None:
        """Called after a submission was dispatched."""

    async def _route_extra(self, method: str, parts: List[str], body: bytes,
                           writer: asyncio.StreamWriter) -> bool:
        """Serve a route beyond the shared table; ``True`` if handled."""
        return False

    def _health_extra(self) -> Dict[str, Any]:
        return {}

    def _metrics_extra(self) -> Dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._launch()

    async def request_drain(self) -> None:
        """Graceful shutdown: refuse new work, finish accepted work."""
        if self.draining:
            return
        self.draining = True
        await self._quiesce()
        if self._server is not None:
            self._server.close()
        # Accepted work is done; a handler still open (a peer that never
        # finished its request) must close its socket while the loop runs.
        for task in self._connections:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    # ------------------------------------------------------------------
    # admission and the job table

    def _admit(self, doc: Any) -> ExperimentSpec:
        """Validate a spec document, or return the spec this front
        already admitted for the same canonical document.

        Within one process a document's validated spec (its key, jobs
        and program fingerprints) cannot change, so a repeat skips
        :meth:`ExperimentSpec.from_json` and builds no program.  A
        rejected document is never remembered, and one that has no
        canonical form (NaN, inf) is validated every time.
        """
        try:
            digest = hashlib.sha256(canonical_json(doc)).digest()
        except TypeError:
            return ExperimentSpec.from_json(doc)
        spec = self._admitted.get(digest)
        if spec is not None:
            self._admitted.move_to_end(digest)
            return spec
        spec = ExperimentSpec.from_json(doc)
        self._admitted[digest] = spec
        while len(self._admitted) > MAX_RETAINED_JOBS:
            self._admitted.popitem(last=False)
        return spec

    def submit(self, spec: ExperimentSpec) -> Tuple[JobRecord, bool]:
        """Admit a spec: coalesce, answer from cache, or dispatch.

        Returns ``(record, created)`` where ``created`` is False when
        the submission attached to an in-flight twin.  Raises
        :class:`QueueFull`/:class:`QueueClosed` on refusal.
        """
        if self.draining:
            raise QueueClosed("service is draining; not accepting new jobs")
        key = spec.key()

        # 1. Coalesce onto an in-flight twin.
        twin = self.active.get(key)
        if twin is not None and not twin.terminal:
            twin.coalesced += 1
            self.metrics.coalesced(spec.kind, key)
            return twin, False

        # 2. Cache fast path: rebuild the result document from disk.
        hit = spec.cached_result(self.cache)
        if hit is not None:
            record = self._track(JobRecord(self._next_id(), spec, "cache"))
            record.finish("done", result=hit)
            self._retire(record)
            self.metrics.cache_hit(spec.kind, key)
            return record, True

        # 3. Dispatch.  The record is registered only after dispatch
        # accepts it: a refused submission must not leak a phantom
        # forever-"queued" record into the job table (un-cancellable,
        # never terminal -- a waiter that found it would poll for the
        # rest of its life).
        record = JobRecord(self._next_id(), spec, "queued")
        self._dispatch(record)
        self._track(record)
        self.active[key] = record
        self.metrics.submitted(spec.kind, key)
        return record, True

    def _next_id(self) -> str:
        return f"{self._id_prefix}{self._issued + 1:06d}"

    def _track(self, record: JobRecord) -> JobRecord:
        self._issued += 1
        self.jobs[record.job_id] = record
        return record

    def _retire(self, record: JobRecord) -> None:
        """Count a terminal record against the retention cap."""
        self._retired.append(record.job_id)
        while len(self._retired) > MAX_RETAINED_JOBS:
            self.jobs.pop(self._retired.popleft(), None)

    def _dropped(self, job_id: str) -> bool:
        """Was ``job_id`` issued here and since dropped?"""
        seq = job_id[1:]
        return (job_id[:1] == self._id_prefix and seq.isdigit()
                and 0 < int(seq) <= self._issued)

    def _finish(self, record: JobRecord, status: str,
                result: Optional[Dict[str, Any]] = None,
                error: Optional[str] = None) -> None:
        """The terminal edge of a dispatched record (idempotent)."""
        if record.terminal:
            return
        if self.active.get(record.key) is record:
            del self.active[record.key]
        record.finish(status, result=result, error=error)
        self.metrics.finished(record.spec.describe(), record.key, status,
                              record.latency_s())
        self._retire(record)

    def cancel(self, record: JobRecord) -> bool:
        """Cancel a job that has not started; running jobs are not
        interrupted (worker processes are shared -- a SIGKILL would
        break the pool).

        Cancelling transitions *every* attached waiter: submissions
        that coalesced onto this record share it, so the one
        ``finish`` below is their terminal edge too -- event streams
        get ``finished`` + ``end``, pollers see ``cancelled``.
        """
        if record.terminal or record.status == "running":
            return False
        self._withdraw(record)
        self._finish(record, "cancelled", error="cancelled while queued")
        return True

    def _ceiling(self, spec: ExperimentSpec) -> float:
        if spec.timeout is not None:
            return spec.timeout * (1 + spec.retries) + TIMEOUT_GRACE_S
        return DEFAULT_JOB_CEILING_S

    # ------------------------------------------------------------------
    # HTTP

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
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
            self._connections.discard(task)

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("?", 1)[0].split("/") if p]

        if method == "GET" and parts == ["healthz"]:
            await respond(writer, 200, self._healthz())
            return
        if method == "GET" and parts == ["metrics"]:
            await respond(writer, 200, self._metrics_doc())
            return
        if await self._route_extra(method, parts, body, writer):
            return
        if parts[:2] != ["v1", "jobs"]:
            await respond(writer, 404, {"error": f"no route {path}"})
            return

        if method == "POST" and len(parts) == 2:
            query = parse_qs(urlparse(path).query)
            forwarded = query.get("forwarded", ["0"])[0] in ("1", "true")
            await self._post_job(body, writer, forwarded=forwarded)
            return
        if method == "GET" and len(parts) == 2:
            listing = [r.to_json() for r in self.jobs.values()]
            await respond(writer, 200, {"jobs": listing})
            return

        record = self.jobs.get(parts[2]) if len(parts) >= 3 else None
        if record is None:
            if len(parts) >= 3 and self._dropped(parts[2]):
                await respond(writer, 410,
                              {"error": f"job {parts[2]} is no longer "
                                        f"retained"})
            else:
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
        elif (method == "GET" and len(parts) == 5
              and parts[3] == "artifacts"):
            await self._get_artifact(record, parts[4], writer)
        else:
            await respond(writer, 405,
                          {"error": f"{method} not allowed on {path}"})

    async def _post_job(self, body: bytes, writer: asyncio.StreamWriter,
                        forwarded: bool = False) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            await respond(writer, 400, {"error": "body is not JSON"})
            return
        try:
            spec = self._admit(doc)
        except SpecError as exc:
            self.metrics.rejected("invalid")
            await respond(writer, 400, {"error": str(exc)})
            return
        if forwarded:
            self.metrics.forwarded(spec.kind, spec.key())
        try:
            record, created = self.submit(spec)
        except QueueFull as exc:
            self.metrics.rejected("backpressure")
            await respond(
                writer, 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After",
                                str(int(exc.retry_after + 0.5)) or "1"),))
            return
        except QueueClosed as exc:
            self.metrics.rejected("draining" if self.draining
                                  else "unavailable")
            await respond(writer, 503, {"error": str(exc)})
            return
        if created and record.source == "queued":
            await self._wake()
        status = 200 if record.terminal else 202
        await respond(writer, status,
                      {"coalesced": not created, **record.to_json()})

    async def _get_artifact(self, record: JobRecord, name: str,
                            writer: asyncio.StreamWriter) -> None:
        try:
            blob = self.cache.get_artifact(record.key, name)
        except ValueError as exc:
            await respond(writer, 400, {"error": str(exc)})
            return
        if blob is None:
            await respond(
                writer, 404,
                {"error": f"no artifact {name!r} for job {record.job_id}"})
            return
        await respond(writer, 200, blob,
                      content_type="application/octet-stream")

    # ------------------------------------------------------------------
    # documents

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "jobs_tracked": len(self.jobs),
            "in_flight": len(self.active),
            **self._health_extra(),
        }

    def _metrics_doc(self) -> Dict[str, Any]:
        return self.metrics.to_json(
            in_flight=len(self.active),
            draining=self.draining,
            jobs_retained=len(self.jobs),
            **self._metrics_extra(),
        )


class ExperimentService(JobFront):
    """The single-node service: a bounded queue and runner coroutines
    feeding a :class:`WorkerTier`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 workers: int = 2, queue_capacity: int = 64,
                 cache: Optional[ResultCache] = None,
                 worker_mode: str = "process",
                 shared_store: Optional[str] = None,
                 coordinator_url: Optional[str] = None,
                 advertise_host: Optional[str] = None):
        if shared_store is not None and not isinstance(cache,
                                                       TieredResultCache):
            # Promote the local store to the cluster tiering: memory
            # hot set in front, shared read-through store behind.
            local = cache if cache is not None else ResultCache()
            cache = TieredResultCache(local, ResultCache(shared_store))
        super().__init__(host, port,
                         cache if cache is not None else ResultCache())
        shared_root = getattr(self.cache, "shared_root", None)
        self.queue = BoundedPriorityQueue(capacity=queue_capacity)
        self.tier = WorkerTier(workers=workers, cache_root=self.cache.root,
                               mode=worker_mode, shared_root=shared_root)
        self.coordinator_url = coordinator_url
        self.advertise_host = advertise_host
        self.registered = False        # last heartbeat reached coordinator
        self._runners: List[asyncio.Task] = []
        self._heartbeat: Optional[asyncio.Task] = None
        self._runner_count = max(1, int(workers))

    # ------------------------------------------------------------------
    # lifecycle

    def _launch(self) -> None:
        self.tier.start()
        self._runners = [
            asyncio.create_task(self._runner(), name=f"serve-runner-{i}")
            for i in range(self._runner_count)
        ]
        if self.coordinator_url:
            self._heartbeat = asyncio.create_task(
                self._register_loop(), name="serve-register")

    async def _quiesce(self) -> None:
        """Close the queue so runners exit once it is empty, let
        in-flight work finish, then stop the worker tier."""
        if self._heartbeat is not None:
            self._heartbeat.cancel()
        await self.queue.close()
        if self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)
        self.tier.shutdown(wait=True)

    # ------------------------------------------------------------------
    # cluster-worker registration

    def _advertised(self) -> Tuple[str, int]:
        host = self.advertise_host or self.host
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return host, self.port

    async def _register_once(self) -> bool:
        """One registration heartbeat; ``True`` when the coordinator
        acknowledged."""
        parsed = urlparse(self.coordinator_url
                          if "//" in str(self.coordinator_url)
                          else f"http://{self.coordinator_url}")
        host, port = parsed.hostname or "127.0.0.1", parsed.port or 8786
        ad_host, ad_port = self._advertised()
        try:
            status, _doc = await http_fetch(
                host, port, "POST", "/v1/workers/register",
                body={"host": ad_host, "port": ad_port,
                      "workers": self.tier.workers},
                timeout=10.0)
        except FetchError:
            return False
        return status == 200

    async def _register_loop(self) -> None:
        """Register on start, then heartbeat forever.  The coordinator
        treats every beat as an idempotent upsert, so a worker that
        was evicted (crash, partition) rejoins the fleet simply by
        being heard from again."""
        while not self.draining:
            self.registered = await self._register_once()
            await asyncio.sleep(HEARTBEAT_INTERVAL_S)

    # ------------------------------------------------------------------
    # dispatch: queue -> runners -> worker tier

    def _dispatch(self, record: JobRecord) -> None:
        # bounded: QueueFull propagates as HTTP 429
        retry_after = max(1.0, len(self.queue) * 0.5)
        self.queue.put_nowait(record.spec.priority, record,
                              retry_after=retry_after)

    async def _wake(self) -> None:
        await self.queue.notify()

    def _withdraw(self, record: JobRecord) -> None:
        self.queue.remove(record)

    async def _runner(self) -> None:
        """One consumer loop: queue -> worker tier -> record fan-out."""
        while True:
            try:
                record = await self.queue.get()
            except QueueClosed:
                return
            await self._execute(record)

    async def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        record.status = "running"
        record.started_at = time.time()
        record.started_mono = time.monotonic()
        record.publish("started")
        self.metrics.started(spec.kind, record.key)
        loop = asyncio.get_running_loop()
        status, result, error = "failed", None, "unknown worker failure"
        try:
            future = self.tier.submit(spec)
            wrapped = asyncio.wrap_future(future, loop=loop)
            report = await asyncio.wait_for(wrapped, self._ceiling(spec))
            if report.get("ok"):
                status, result, error = "done", report.get("result"), None
            else:
                error = str(report.get("error"))
                status = ("timeout" if "JobTimeoutError" in error
                          else "failed")
        except asyncio.TimeoutError:
            status, error = "timeout", (
                f"server-side ceiling of {self._ceiling(spec):.0f}s exceeded")
        except Exception as exc:  # noqa: BLE001 -- keep the runner alive
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._finish(record, status, result=result, error=error)

    # ------------------------------------------------------------------
    # documents

    def _health_extra(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "workers": self.tier.workers,
            "worker_mode": self.tier.mode,
            "worker_degraded": self.tier.degraded,
        }
        if self.coordinator_url is not None:
            doc["coordinator"] = self.coordinator_url
            doc["registered"] = self.registered
        shared_root = getattr(self.cache, "shared_root", None)
        if shared_root is not None:
            doc["shared_store"] = str(shared_root)
            doc["cache_tier_hits"] = dict(self.cache.tier_hits)
        return doc

    def _metrics_extra(self) -> Dict[str, Any]:
        return {
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "worker_mode": self.tier.mode,
        }


async def serve_forever(service: JobFront) -> None:
    """Run until drained; installs SIGTERM/SIGINT drain handlers."""
    await service.start()
    loop = asyncio.get_running_loop()

    def _drain() -> None:
        asyncio.ensure_future(service.request_drain())

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or unsupported platform
    await service.wait_drained()


def run_server(host: str = "127.0.0.1", port: int = 8787, workers: int = 2,
               queue_capacity: int = 64,
               cache: Optional[ResultCache] = None,
               worker_mode: str = "process",
               shared_store: Optional[str] = None,
               coordinator_url: Optional[str] = None,
               advertise_host: Optional[str] = None) -> None:
    """Blocking entry point (the ``python -m repro serve`` verb)."""
    service = ExperimentService(host=host, port=port, workers=workers,
                                queue_capacity=queue_capacity, cache=cache,
                                worker_mode=worker_mode,
                                shared_store=shared_store,
                                coordinator_url=coordinator_url,
                                advertise_host=advertise_host)
    asyncio.run(serve_forever(service))
