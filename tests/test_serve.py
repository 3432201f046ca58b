"""End-to-end tests for the experiment service (repro.serve).

One module-scoped server (process-pool workers are expensive to boot)
backed by a private cache directory; each test drives it through the
public client.  Coalescing, the tentpole behaviour, is asserted the
strong way: 32 concurrent identical submissions, worker-side execution
counter equal to one.
"""

import json
import pickle
import threading
from collections import Counter

import pytest

from repro.harness.cache import ResultCache
from repro.harness.job import register
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.serve import server as server_mod
from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.queue import BoundedPriorityQueue, QueueClosed, QueueFull
from repro.serve.spec import ExperimentSpec, SpecError
from repro.serve.testing import ClusterThread, ServerThread

# ----------------------------------------------------------------------
# spec validation (no server needed)


def test_spec_rejects_unknown_kind():
    with pytest.raises(SpecError, match="kind"):
        ExperimentSpec.from_json({"kind": "banana"})


def test_spec_rejects_unknown_field():
    with pytest.raises(SpecError, match="unknown spec field"):
        ExperimentSpec.from_json({"kind": "lint", "shoes": 2})
    with pytest.raises(SpecError, match="unknown spec field"):
        ExperimentSpec.from_json({"kind": "job",
                                  "params": {"fn": "debug.echo"},
                                  "engine": "reference"})


def test_spec_rejects_unknown_fn():
    with pytest.raises(SpecError, match="registered"):
        ExperimentSpec.from_json(
            {"kind": "job", "params": {"fn": "no.such.fn"}})


def test_spec_rejects_bad_priority_and_retries():
    base = {"kind": "job", "params": {"fn": "debug.echo"}}
    with pytest.raises(SpecError, match="priority"):
        ExperimentSpec.from_json({**base, "priority": 99})
    with pytest.raises(SpecError, match="retries"):
        ExperimentSpec.from_json({**base, "retries": -1})
    with pytest.raises(SpecError, match="timeout"):
        ExperimentSpec.from_json({**base, "timeout": 0})


def test_spec_rejects_oversized_sweep():
    with pytest.raises(SpecError, match="split it"):
        ExperimentSpec.from_json({
            "kind": "sweep",
            "params": {"fn": "debug.echo",
                       "axes": {"a": list(range(100)),
                                "b": list(range(100))}},
        })


def test_spec_rejects_unknown_lint_target():
    with pytest.raises(SpecError, match="unknown lint target"):
        ExperimentSpec.from_json(
            {"kind": "lint", "params": {"targets": ["nope"]}})


def test_spec_rejects_non_boolean_taint():
    with pytest.raises(SpecError, match="'taint' must be a boolean"):
        ExperimentSpec.from_json(
            {"kind": "lint", "params": {"taint": "yes"}})


def test_spec_rejects_unknown_lint_field():
    with pytest.raises(SpecError, match="unknown lint spec field"):
        ExperimentSpec.from_json(
            {"kind": "lint", "params": {"taint": True, "crosss": 1}})


def test_spec_rejects_unknown_trace_experiment():
    with pytest.raises(SpecError, match="trace experiment"):
        ExperimentSpec.from_json(
            {"kind": "trace", "params": {"experiment": "nope"}})


@pytest.mark.parametrize("field, value, match", [
    ("cpu", "zen", "cpu must be 'skylake'"),
    ("seed", 3, "seed must be 0"),
])
def test_spec_rejects_trace_cpu_or_seed(field, value, match):
    """A trace captures the driver's default configuration: a cpu or
    seed the capture would ignore is refused, not keyed apart."""
    with pytest.raises(SpecError, match=match):
        ExperimentSpec.from_json(
            {"kind": "trace", field: value,
             "params": {"experiment": "classic"}})


def test_job_spec_key_is_harness_job_key():
    """The coalescing key IS the harness cache key (shared key space)."""
    spec = ExperimentSpec.from_json({
        "kind": "job", "seed": 3,
        "params": {"fn": "debug.echo", "params": {"x": 1}},
    })
    assert spec.key() == spec.jobs()[0].key()


def test_spec_round_trips_through_as_dict():
    """The rendering carries the document's fields only: a spec that
    has built its jobs and key renders as one that has not."""
    doc = {"kind": "job", "params": {"fn": "debug.echo", "params": {"x": 2}},
           "seed": 5, "priority": 3, "timeout": 9.0, "retries": 2,
           "refresh": True, "cpu": "zen2"}
    for keyed in (False, True):
        spec = ExperimentSpec(**json.loads(json.dumps(doc)))
        if keyed:
            spec.key()
        assert spec.as_dict() == doc
        again = ExperimentSpec.from_json(spec.as_dict())
        assert again.key() == spec.key()
        assert again.as_dict() == spec.as_dict()


# ----------------------------------------------------------------------
# queue unit tests (own event loop via asyncio.run)


def test_queue_backpressure_and_priority():
    import asyncio

    async def scenario():
        q = BoundedPriorityQueue(capacity=2)
        q.put_nowait(0, "low")
        q.put_nowait(5, "high")
        with pytest.raises(QueueFull):
            q.put_nowait(0, "overflow")
        assert await q.get() == "high"
        assert await q.get() == "low"
        await q.close()
        with pytest.raises(QueueClosed):
            q.put_nowait(0, "late")
        with pytest.raises(QueueClosed):
            await q.get()

    asyncio.run(scenario())


def test_queue_remove_tombstones():
    import asyncio

    async def scenario():
        q = BoundedPriorityQueue(capacity=4)
        q.put_nowait(0, "a")
        q.put_nowait(0, "b")
        assert q.remove("a") is True
        assert q.remove("a") is False  # already tombstoned
        assert len(q) == 1
        assert await q.get() == "b"

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# live server


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("serve-cache"))
    with ServerThread(cache=cache, workers=2, queue_capacity=64) as srv:
        yield srv


def _echo_spec(token):
    return {"kind": "job",
            "params": {"fn": "debug.echo", "params": {"token": token}}}


def test_healthz_reports_process_mode(server):
    doc = server.client().healthz()
    assert doc["status"] == "ok"
    assert doc["worker_mode"] == "process"
    assert doc["queue_capacity"] == 64


def test_submit_and_wait_round_trip(server):
    record = server.client().submit_and_wait(_echo_spec("round-trip"))
    assert record["status"] == "done"
    assert record["result"]["result"]["token"] == "round-trip"
    assert record["result"]["executed"] + record["result"]["cached"] == 1


def test_lint_taint_spec_round_trips_through_service(server):
    """A taint-mode lint job comes back with the secret-flow report
    and a clean two-secret differential."""
    record = server.client().submit_and_wait({
        "kind": "lint",
        "params": {"targets": ["tigerzebra"], "taint": True},
    }, timeout=120)
    assert record["status"] == "done"
    assert record["result"]["ok"] is True
    (target,) = record["result"]["report"]["targets"]
    assert target["target"] == "tigerzebra"
    assert target["taint"]["capacity_bits"] > 0
    assert target["secretcheck"]["clean"] is True


def test_second_submission_is_answered_from_cache(server):
    client = server.client()
    first = client.submit_and_wait(_echo_spec("warm-me"))
    assert first["status"] == "done"
    second = client.submit_and_wait(_echo_spec("warm-me"))
    assert second["status"] == "done"
    assert second["source"] == "cache"
    assert second["result"]["result"] == first["result"]["result"]


def test_cache_answered_record_latency_is_frozen(server):
    """A record answered from the cache is terminal at birth: its
    latency must not keep growing after the fact."""
    import time

    client = server.client()
    client.submit_and_wait(_echo_spec("frozen-latency"))
    warm = client.submit(_echo_spec("frozen-latency"))
    assert warm["source"] == "cache"
    record = server.service.jobs[warm["id"]]
    before = record.latency_s()
    time.sleep(0.2)
    assert record.latency_s() == before

def test_refresh_bypasses_the_cache(server):
    client = server.client()
    client.submit_and_wait(_echo_spec("refresh-me"))
    record = client.submit_and_wait(
        {**_echo_spec("refresh-me"), "refresh": True})
    assert record["source"] != "cache"
    assert record["status"] == "done"


def test_32_concurrent_identical_submissions_execute_once(server):
    """The acceptance criterion: N in-flight twins, one execution."""
    client = server.client()
    before = client.metrics()["counters"]["executed"]
    spec = {"kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 0.8, "token": "coalesce-32"}}}
    records = [None] * 32
    errors = []

    def submit(i):
        try:
            records[i] = client.submit_and_wait(spec, timeout=120)
        except Exception as exc:  # noqa: BLE001 -- collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert all(r["status"] == "done" for r in records)
    results = {json.dumps(r["result"], sort_keys=True) for r in records}
    assert len(results) == 1  # every waiter got the same answer
    metrics = server.client().metrics()
    assert metrics["counters"]["executed"] - before == 1
    assert metrics["counters"]["coalesced"] >= 31 - 1  # a few may race
    assert metrics["rates"]["coalesce_hit_rate"] > 0


def test_sweep_results_come_back_in_grid_order(server):
    record = server.client().submit_and_wait({
        "kind": "sweep",
        "params": {"fn": "debug.echo", "axes": {"x": [1, 2, 3]},
                   "base": {"tag": "grid"}},
    })
    assert record["status"] == "done"
    xs = [r["x"] for r in record["result"]["results"]]
    assert xs == [1, 2, 3]


def test_failed_job_reports_error(server):
    record = server.client().submit_and_wait({
        "kind": "job",
        "params": {"fn": "debug.flaky",
                   "params": {"sentinel": "/dev/null", "fail_times": 99}},
        "retries": 0,
    })
    assert record["status"] == "failed"
    assert "TransientJobError" in record["error"]


def test_events_stream_ends_with_terminal_record(server):
    client = server.client()
    submitted = client.submit(_echo_spec("events-stream"))
    events = list(client.events(submitted["id"]))
    assert events[0]["event"] == "snapshot"
    assert events[-1]["event"] == "end"
    assert events[-1]["record"]["status"] == "done"


def test_unknown_job_is_404(server):
    with pytest.raises(ServeError) as excinfo:
        server.client().status("j999999")
    assert excinfo.value.status == 404


def test_invalid_spec_is_400(server):
    with pytest.raises(ServeError) as excinfo:
        server.client().submit({"kind": "job", "params": {"fn": "no.fn"}})
    assert excinfo.value.status == 400


def test_trace_spec_on_another_cpu_is_400(server):
    with pytest.raises(ServeError) as excinfo:
        server.client().submit({"kind": "trace", "cpu": "zen",
                                "params": {"experiment": "classic"}})
    assert excinfo.value.status == 400
    assert "cpu must be 'skylake'" in str(excinfo.value)


@pytest.mark.parametrize("timeout", [float("inf"), 1e12])
def test_unrepresentable_timeout_is_400(server, timeout):
    spec = {**_echo_spec(f"timeout-{timeout}"), "timeout": timeout}
    with pytest.raises(ServeError) as excinfo:
        server.client().submit(spec)
    assert excinfo.value.status == 400
    assert "timeout" in str(excinfo.value)


def test_hour_long_timeout_is_admitted(server):
    spec = {**_echo_spec("timeout-3600"), "timeout": 3600}
    record = server.client().submit_and_wait(spec, timeout=60)
    assert record["status"] == "done"


def test_cancel_running_job_is_409(server):
    client = server.client()
    spec = {"kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 1.0, "token": "cancel-409"}}}
    record = client.submit(spec)
    # Wait until it is actually running (2 runners, quiet server).
    import time
    for _ in range(200):
        if client.status(record["id"])["status"] in ("running", "done"):
            break
        time.sleep(0.02)
    with pytest.raises(ServeError) as excinfo:
        client.cancel(record["id"])
    assert excinfo.value.status == 409
    client.wait(record["id"], timeout=60)


def test_trace_spec_stores_and_serves_artifacts(server):
    client = server.client()
    record = client.submit_and_wait(
        {"kind": "trace", "params": {"experiment": "spectre"}}, timeout=300)
    assert record["status"] == "done"
    names = record["result"]["artifacts"]
    assert "events.json" in names and "chrome.json" in names
    chrome = json.loads(client.artifact(record["id"], "chrome.json"))
    assert chrome["traceEvents"]
    with pytest.raises(ServeError) as excinfo:
        client.artifact(record["id"], "missing.bin")
    assert excinfo.value.status == 404
    # resubmission is a cache answer (the aggregate trace record)
    warm = client.submit_and_wait(
        {"kind": "trace", "params": {"experiment": "spectre"}})
    assert warm["source"] == "cache"
    assert warm["result"]["artifacts"] == names


def test_metrics_latency_histogram_present(server):
    metrics = server.client().metrics()
    assert metrics["counters"]["completed"] >= 1
    assert any(h["count"] >= 1 and h["p50_ms"] is not None
               for h in metrics["latency"].values())


# ----------------------------------------------------------------------
# behaviours needing a dedicated (small) server


def test_backpressure_when_queue_full(tmp_path):
    cache = ResultCache(tmp_path / "bp-cache")
    with ServerThread(cache=cache, workers=1, queue_capacity=1) as srv:
        client = srv.client()
        blockers = []
        # Fill the single runner and the single queue slot with
        # distinct slow jobs, then overflow.
        got_429 = None
        for i in range(8):
            try:
                blockers.append(client.submit({
                    "kind": "job",
                    "params": {"fn": "debug.sleep",
                               "params": {"seconds": 1.0, "token": i}},
                }))
            except Backpressure as exc:
                got_429 = exc
                break
        assert got_429 is not None, "queue never filled"
        assert got_429.retry_after >= 1.0
        for record in blockers:
            client.wait(record["id"], timeout=120)
        assert srv.client().metrics()["counters"]["rejected"] >= 1


def test_cancel_queued_job(tmp_path):
    cache = ResultCache(tmp_path / "cancel-cache")
    with ServerThread(cache=cache, workers=1, queue_capacity=8) as srv:
        client = srv.client()
        blocker = client.submit({
            "kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 1.5, "token": "blocker"}},
        })
        queued = client.submit(_echo_spec("will-cancel"))
        cancelled = client.cancel(queued["id"])
        assert cancelled["status"] == "cancelled"
        final = client.wait(queued["id"], timeout=10)
        assert final["status"] == "cancelled"
        client.wait(blocker["id"], timeout=120)


# ----------------------------------------------------------------------
# timing: latencies ride the monotonic clock, never the wall clock


def test_latency_survives_backward_wall_clock_step(monkeypatch):
    """An NTP step (wall clock jumps 1h backward mid-job) skews the
    display timestamps but must never produce a negative latency."""
    import time as _time

    from repro.serve.server import JobRecord

    spec = ExperimentSpec.from_json(_echo_spec("clock-step"))
    real_time = _time.time
    record = JobRecord("j000001", spec, "queued")
    # the step lands between submission and start
    monkeypatch.setattr(_time, "time", lambda: real_time() - 3600.0)
    record.started_at = _time.time()
    record.started_mono = _time.monotonic()
    record.finish("done", result={"ok": True})
    assert record.finished_at < record.submitted_at  # display JSON skews...
    assert record.latency_s() >= 0.0                 # ...durations do not
    assert record.queue_wait_s() >= 0.0


def test_latency_metrics_ignore_forward_wall_clock_step(monkeypatch):
    """Symmetric: a forward step must not inflate the histogram feed."""
    import time as _time

    from repro.serve.server import JobRecord

    spec = ExperimentSpec.from_json(_echo_spec("clock-fwd"))
    real_time = _time.time
    record = JobRecord("j000002", spec, "queued")
    monkeypatch.setattr(_time, "time", lambda: real_time() + 3600.0)
    record.finish("done", result={})
    assert record.finished_at - record.submitted_at > 3000  # wall: absurd
    assert record.latency_s() < 60.0                        # mono: sane


# ----------------------------------------------------------------------
# client deadlines: timeout=0 and backoff clamping


def test_wait_timeout_zero_is_single_nonblocking_check(server):
    import time

    client = server.client()
    record = client.submit({
        "kind": "job",
        "params": {"fn": "debug.sleep",
                   "params": {"seconds": 1.0, "token": "wait-zero"}},
    })
    # poll=5.0: if the buggy full-interval sleep were still there this
    # would take 5 seconds; a single non-blocking check takes millis.
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        client.wait(record["id"], timeout=0, poll=5.0)
    assert time.monotonic() - t0 < 2.0
    final = client.wait(record["id"], timeout=60)
    # terminal record: timeout=0 returns it instead of raising
    assert client.wait(record["id"], timeout=0)["status"] == final["status"]


def test_wait_clamps_poll_sleep_to_remaining_deadline(server):
    import time

    client = server.client()
    record = client.submit({
        "kind": "job",
        "params": {"fn": "debug.sleep",
                   "params": {"seconds": 1.5, "token": "wait-clamp"}},
    })
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        client.wait(record["id"], timeout=0.3, poll=5.0)
    # must overshoot by at most one status poll, not one poll *interval*
    assert time.monotonic() - t0 < 2.0
    client.wait(record["id"], timeout=60)


def test_submit_and_wait_clamps_backpressure_backoff(tmp_path):
    import time

    cache = ResultCache(tmp_path / "clamp-cache")
    with ServerThread(cache=cache, workers=1, queue_capacity=1) as srv:
        client = srv.client()
        blockers = []
        while True:
            try:
                blockers.append(client.submit({
                    "kind": "job",
                    "params": {"fn": "debug.sleep",
                               "params": {"seconds": 1.0,
                                          "token": len(blockers)}},
                }))
            except Backpressure:
                break
        # The server's Retry-After here is >= 1s; a 0.4s overall budget
        # must cut the backoff short rather than sleep through it.
        t0 = time.monotonic()
        with pytest.raises((TimeoutError, Backpressure)):
            client.submit_and_wait({
                "kind": "job",
                "params": {"fn": "debug.sleep",
                           "params": {"seconds": 1.0, "token": "late"}},
            }, timeout=0.4, backpressure_retries=50)
        assert time.monotonic() - t0 < 1.5
        for record in blockers:
            client.wait(record["id"], timeout=120)


# ----------------------------------------------------------------------
# cancellation: every coalesced waiter reaches a terminal state


def test_cancel_fans_out_to_all_coalesced_waiters(tmp_path):
    """Three clients coalesce onto one queued record; one DELETE must
    terminate all three event streams and all three pollers."""
    cache = ResultCache(tmp_path / "fanout-cache")
    with ServerThread(cache=cache, workers=1, queue_capacity=8) as srv:
        client = srv.client()
        blocker = client.submit({
            "kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 2.0, "token": "fan-blocker"}},
        })
        first = client.submit(_echo_spec("fan-cancel"))
        twins = [client.submit(_echo_spec("fan-cancel")) for _ in range(2)]
        assert all(t["id"] == first["id"] for t in twins)

        ends = [None, None, None]

        def stream(i):
            events = list(srv.client().events(first["id"]))
            ends[i] = events[-1]

        streamers = [threading.Thread(target=stream, args=(i,))
                     for i in range(3)]
        for t in streamers:
            t.start()
        cancelled = client.cancel(first["id"])
        assert cancelled["status"] == "cancelled"
        for t in streamers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in streamers), (
            "a coalesced waiter's event stream hung after cancellation")
        for end in ends:
            assert end["event"] == "end"
            assert end["record"]["status"] == "cancelled"
        # pollers see the same terminal state
        assert client.wait(first["id"], timeout=5)["status"] == "cancelled"
        client.wait(blocker["id"], timeout=120)


def test_backpressure_refusal_leaves_no_phantom_record(tmp_path):
    """A 429'd submission must not leak a forever-'queued' record into
    the job table -- such a record can never finish, answers 409 to
    DELETE, and would make a waiter poll for the rest of its life."""
    cache = ResultCache(tmp_path / "phantom-cache")
    with ServerThread(cache=cache, workers=1, queue_capacity=1) as srv:
        client = srv.client()
        accepted = []
        while True:
            try:
                accepted.append(client.submit({
                    "kind": "job",
                    "params": {"fn": "debug.sleep",
                               "params": {"seconds": 0.5,
                                          "token": len(accepted)}},
                }))
            except Backpressure:
                break
        listed = client.jobs()["jobs"]
        assert len(listed) == len(accepted)
        assert {r["id"] for r in listed} == {r["id"] for r in accepted}
        for record in accepted:
            client.wait(record["id"], timeout=120)
        # every tracked record reaches a terminal state: no zombies
        assert all(r["status"] in ("done", "failed", "timeout", "cancelled")
                   for r in client.jobs()["jobs"])


def test_drain_finishes_accepted_work_and_rejects_new(tmp_path):
    cache = ResultCache(tmp_path / "drain-cache")
    srv = ServerThread(cache=cache, workers=1, queue_capacity=8).start()
    client = srv.client()
    accepted = client.submit({
        "kind": "job",
        "params": {"fn": "debug.sleep",
                   "params": {"seconds": 1.0, "token": "drain-me"}},
    })
    stopper = threading.Thread(target=srv.stop)
    stopper.start()
    import time
    rejected = None
    for _ in range(100):
        try:
            client.submit(_echo_spec("too-late"))
        except ServeError as exc:
            rejected = exc
            break
        except OSError:
            break  # listener already closed: also a refusal
        time.sleep(0.02)
    stopper.join(timeout=120)
    assert not stopper.is_alive()
    if rejected is not None:
        assert rejected.status == 503
    # the accepted job finished before shutdown (drain, not abort)
    record = srv.service.jobs[accepted["id"]]
    assert record.status == "done"


# ----------------------------------------------------------------------
# program builds per admission: a spec builds each job's program once
# per process that parses it, and every later step reuses that key

_BUILDS: Counter = Counter()  # thread name -> program builds


def _counted_program(config, params):
    _BUILDS[threading.current_thread().name] += 1
    asm = Assembler()
    asm.emit(enc.nop(params["x"] % 15 + 1), enc.halt())
    return asm.assemble()


@register("test.counted_build", program_builder=_counted_program)
def _counted_build(config, seed, x):
    return {"x": x}


def test_warm_job_admission_builds_no_program(tmp_path):
    spec = {"kind": "job",
            "params": {"fn": "test.counted_build", "params": {"x": 7}}}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        assert client.submit_and_wait(spec)["status"] == "done"
        _BUILDS.clear()
        record = client.submit_and_wait(spec)
    assert record["source"] == "cache"
    # the front admitted this document before: its spec and key are reused
    assert sum(_BUILDS.values()) == 0


def test_reordered_document_builds_no_program(tmp_path):
    first = {"kind": "job", "cpu": "zen", "seed": 3,
             "params": {"fn": "test.counted_build", "params": {"x": 8}}}
    reordered = {"params": {"params": {"x": 8}, "fn": "test.counted_build"},
                 "seed": 3, "cpu": "zen", "kind": "job"}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        done = client.submit_and_wait(first)
        _BUILDS.clear()
        record = client.submit_and_wait(reordered)
    assert record["source"] == "cache"
    assert record["key"] == done["key"]
    assert sum(_BUILDS.values()) == 0


def test_repeated_sweep_builds_no_program(tmp_path):
    spec = {"kind": "sweep",
            "params": {"fn": "test.counted_build",
                       "axes": {"x": [1, 2, 3]}}}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        done = client.submit_and_wait(spec)
        _BUILDS.clear()
        record = client.submit_and_wait(spec)
    assert record["source"] == "cache"
    assert record["result"]["results"] == done["result"]["results"]
    assert sum(_BUILDS.values()) == 0


def test_repeat_through_the_coordinator_builds_no_program(tmp_path):
    plain = {"kind": "job",
             "params": {"fn": "test.counted_build", "params": {"x": 9}}}
    fresh = {**plain, "refresh": True}
    with ClusterThread(workers=2, worker_mode="thread",
                       root=str(tmp_path)) as fleet:
        client = fleet.client()
        for spec in (plain, fresh):
            assert client.submit_and_wait(spec)["status"] == "done"
        _BUILDS.clear()
        cached = client.submit_and_wait(plain)
        rerun = client.submit_and_wait(fresh)
        forwarded = sum(fleet.worker_client(i).metrics()["counters"]
                        ["forwarded"] for i in range(2))
    assert cached["source"] == "cache"
    assert cached["result"]["result"] == {"x": 9}
    # the refresh repeat is forwarded, so a worker front admits it too
    assert rerun["result"]["executed"] == 1
    assert forwarded == 3
    # neither the coordinator nor a worker front builds the program again
    assert sum(_BUILDS.values()) == 0


_FAILED_BUILDS: Counter = Counter()


def _failing_program(config, params):
    _FAILED_BUILDS[params["x"]] += 1
    raise ValueError("no program for this x")


@register("test.failing_build", program_builder=_failing_program)
def _failing_build(config, seed, x):
    return {"x": x}


def test_rejected_document_is_validated_every_time(tmp_path):
    spec = {"kind": "job",
            "params": {"fn": "test.failing_build", "params": {"x": 1}}}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        for _ in range(3):
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400
            assert "no program for this x" in str(excinfo.value)
        assert not srv.service._admitted
    assert _FAILED_BUILDS[1] == 3


def test_refresh_repeat_executes_every_time(tmp_path):
    spec = {"kind": "job", "refresh": True,
            "params": {"fn": "test.counted_build", "params": {"x": 10}}}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        for round_ in range(1, 4):
            record = client.submit_and_wait(spec)
            assert record["source"] == "queued"
            assert record["result"]["executed"] == 1
            assert client.metrics()["counters"]["executed"] == round_


def test_admission_memo_is_bounded_and_evicts_least_recent(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(server_mod, "MAX_RETAINED_JOBS", 2)

    def spec(x):
        return {"kind": "job",
                "params": {"fn": "test.counted_build", "params": {"x": x}}}

    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        for x in (21, 22, 21, 23):   # 22 is the least recent when 23 lands
            assert client.submit_and_wait(spec(x))["status"] == "done"
            assert len(srv.service._admitted) <= 2
        _BUILDS.clear()
        assert client.submit_and_wait(spec(21))["source"] == "cache"
        assert sum(_BUILDS.values()) == 0
        assert client.submit_and_wait(spec(22))["source"] == "cache"
        assert sum(_BUILDS.values()) == 1
        assert len(srv.service._admitted) == 2


def test_coordinator_sweep_builds_each_point_once(tmp_path):
    n = 4
    with ClusterThread(workers=2, worker_mode="thread",
                       root=str(tmp_path)) as fleet:
        _BUILDS.clear()
        record = fleet.client().submit_and_wait({
            "kind": "sweep",
            "params": {"fn": "test.counted_build",
                       "axes": {"x": list(range(n))}},
        })
    assert record["status"] == "done"
    assert [r["x"] for r in record["result"]["results"]] == list(range(n))
    coordinator = _BUILDS.pop("repro-CoordinatorService", 0)
    fronts = _BUILDS.pop("repro-ExperimentService", 0)
    # admission keys the grid; the cache probe and the split reuse it
    assert coordinator == n
    # each worker keys its point at admission; its pool runs the
    # admitted spec on that key
    assert fronts == n
    assert sum(_BUILDS.values()) == 0


def test_executed_job_builds_no_program_in_the_worker_pool(tmp_path):
    spec = {"kind": "job",
            "params": {"fn": "test.counted_build", "params": {"x": 11}}}
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        _BUILDS.clear()
        record = srv.client().submit_and_wait(spec)
    assert record["status"] == "done"
    assert record["result"]["executed"] == 1
    # admission keys the job; the pool executes the admitted spec
    assert _BUILDS.pop("repro-ExperimentService", 0) == 1
    assert sum(_BUILDS.values()) == 0


def test_keyed_spec_survives_a_pickle_round_trip():
    spec = ExperimentSpec.from_json(
        {"kind": "job",
         "params": {"fn": "test.counted_build", "params": {"x": 5}}})
    key = spec.key()
    _BUILDS.clear()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone._key == key
    assert [job.key() for job in clone.jobs()] == [key]
    assert sum(_BUILDS.values()) == 0
