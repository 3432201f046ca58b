"""Distributed serving tests: router, coordinator, fleet behaviour.

Unit tests cover rendezvous hashing's contract (stable assignment,
minimal movement on eviction, resurrection on re-registration).  The
integration tests boot a whole in-process fleet
(:class:`~repro.serve.testing.ClusterThread`: coordinator + N workers
sharing a read-through store) and assert the cluster-wide versions of
the serving guarantees: fleet-wide coalescing executes once per
unique key, sweeps split across workers and reassemble in grid order,
and a worker killed mid-sweep is evicted while the sweep still
completes via rebalancing.
"""

import gc
import http.client
import json
import socket
import sys
import threading
import time

import pytest

import repro.serve.server as server_mod
from repro.harness.cache import ResultCache
from repro.harness.executor import run_jobs
from repro.serve.client import ServeClient, ServeError
from repro.serve.router import RendezvousRouter
from repro.serve.spec import ExperimentSpec
from repro.serve.testing import ClusterThread, CoordinatorThread, ServerThread

# ----------------------------------------------------------------------
# rendezvous router (pure unit tests)


def _keys(n):
    return [f"{i:064x}" for i in range(n)]


def test_router_routes_every_key_to_a_live_node():
    router = RendezvousRouter()
    for port in (9001, 9002, 9003):
        router.add("10.0.0.1", port)
    owners = {k: router.route(k).node_id for k in _keys(200)}
    assert set(owners.values()) <= {n.node_id for n in router.live_nodes}
    # the spread is roughly even: every node owns something
    assert len(set(owners.values())) == 3


def test_router_eviction_moves_only_the_dead_nodes_keys():
    router = RendezvousRouter()
    for port in (9001, 9002, 9003):
        router.add("10.0.0.1", port)
    keys = _keys(300)
    before = {k: router.route(k).node_id for k in keys}
    assert router.evict("10.0.0.1:9002") is True
    after = {k: router.route(k).node_id for k in keys}
    for key in keys:
        if before[key] == "10.0.0.1:9002":
            assert after[key] != "10.0.0.1:9002"  # rerouted
        else:
            assert after[key] == before[key]      # untouched


def test_router_reregistration_resurrects_an_evicted_node():
    router = RendezvousRouter()
    router.add("10.0.0.1", 9001)
    node = router.add("10.0.0.1", 9002)
    node.failures = 3
    router.evict(node.node_id)
    assert len(router) == 1
    # the worker phoning home again is the recovery path
    again = router.add("10.0.0.1", 9002, now_mono=42.0)
    assert again is node and node.alive and node.failures == 0
    assert len(router) == 2


def test_router_ranked_is_the_failover_order():
    router = RendezvousRouter()
    for port in (9001, 9002, 9003):
        router.add("10.0.0.1", port)
    key = "ab" * 32
    ranked = router.ranked(key)
    assert ranked[0] is router.route(key)
    router.evict(ranked[0].node_id)
    assert router.route(key) is ranked[1]


def test_router_add_is_idempotent():
    router = RendezvousRouter()
    a = router.add("h", 1)
    b = router.add("h", 1)
    assert a is b and len(router) == 1


# ----------------------------------------------------------------------
# fleet integration (thread-mode workers: cheap to boot, I/O workloads)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster")
    with ClusterThread(workers=2, worker_processes=2,
                       worker_mode="thread", root=str(root)) as fleet:
        yield fleet


def _echo_spec(token):
    return {"kind": "job",
            "params": {"fn": "debug.echo", "params": {"token": token}}}


def test_workers_register_and_appear_in_healthz(cluster):
    doc = cluster.client().healthz()
    assert doc["role"] == "coordinator"
    assert doc["live_workers"] == 2
    # each worker's own healthz reports its cluster wiring
    for i in range(2):
        wdoc = cluster.worker_client(i).healthz()
        assert wdoc["shared_store"] == cluster.shared_store
        deadline = time.monotonic() + 10
        while not wdoc.get("registered") and time.monotonic() < deadline:
            time.sleep(0.1)
            wdoc = cluster.worker_client(i).healthz()
        assert wdoc["registered"] is True


def test_fleet_wide_coalescing_executes_once(cluster):
    """N identical submissions through the coordinator: one forward,
    one execution, everyone gets the result."""
    client = cluster.client(timeout=60)
    before = client.metrics()["counters"]["executed"]
    spec = _echo_spec("fleet-coalesce")
    records = [None] * 4
    errors = []

    def one(i):
        try:
            records[i] = cluster.client(timeout=60).submit_and_wait(
                spec, timeout=60)
        except Exception as exc:  # noqa: BLE001 -- collected
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert all(r["status"] == "done" for r in records)
    assert all(r["result"]["result"]["token"] == "fleet-coalesce"
               for r in records)
    after = client.metrics()["counters"]["executed"]
    assert after - before == 1  # one unique key -> one execution


def test_resubmission_is_answered_from_shared_store(cluster):
    client = cluster.client(timeout=60)
    spec = _echo_spec("fleet-warm")
    first = client.submit_and_wait(spec, timeout=60)
    assert first["status"] == "done"
    again = client.submit(spec)
    assert again["status"] == "done"
    assert again["source"] == "cache"


def test_sweep_splits_across_fleet_in_grid_order(cluster):
    client = cluster.client(timeout=120)
    values = list(range(6))
    record = client.submit_and_wait({
        "kind": "sweep",
        "params": {"fn": "debug.echo", "axes": {"x": values},
                   "base": {"token": "fleet-sweep"}},
    }, timeout=120)
    assert record["status"] == "done"
    result = record["result"]
    assert result["kind"] == "sweep"
    assert [r["x"] for r in result["results"]] == values  # grid order
    # both workers saw forwarded traffic (6 keys over 2 nodes)
    workers = client.healthz()["workers"]
    assert sum(w["forwarded"] for w in workers) >= 6


def test_forwarded_flag_shows_in_worker_metrics(cluster):
    client = cluster.client(timeout=60)
    client.submit_and_wait(_echo_spec("fleet-forwarded"), timeout=60)
    forwarded = sum(
        cluster.worker_client(i).metrics()["counters"]["forwarded"]
        for i in range(2))
    assert forwarded >= 1


def test_cancel_unknown_job_is_404(cluster):
    with pytest.raises(ServeError) as excinfo:
        cluster.client().cancel("c999999")
    assert excinfo.value.status == 404


def test_submit_with_no_fleet_is_503(tmp_path):
    from repro.serve.testing import CoordinatorThread

    with CoordinatorThread(shared_store=str(tmp_path / "shared")) as coord:
        with pytest.raises(ServeError) as excinfo:
            coord.client().submit(_echo_spec("no-fleet"))
        assert excinfo.value.status == 503


def test_drain_closes_stalled_connections_before_the_loop(monkeypatch):
    """Drain cancels *and awaits* what still holds a socket: a health
    probe stuck on a worker that accepts and never answers, and the
    handler of a client that never finishes its request.  Both close
    while the event loop still runs -- no "Event loop is closed"."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    silent = socket.create_server(("127.0.0.1", 0))
    silent.settimeout(0.05)
    accepted = []
    closing = threading.Event()

    def accept_until_closing():
        while not closing.is_set():
            try:
                accepted.append(silent.accept()[0])
            except socket.timeout:
                continue

    acceptor = threading.Thread(target=accept_until_closing, daemon=True)
    acceptor.start()
    coord = CoordinatorThread(probe_interval=0.05).start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", coord.port,
                                          timeout=10)
        conn.request("POST", "/v1/workers/register", json.dumps(
            {"host": "127.0.0.1", "port": silent.getsockname()[1]}))
        assert conn.getresponse().status == 200
        conn.close()
        deadline = time.monotonic() + 10
        while not accepted and time.monotonic() < deadline:
            time.sleep(0.01)
        assert accepted, "the health loop never probed the silent worker"
        stalled = socket.create_connection(("127.0.0.1", coord.port))
        stalled.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finished
        while (not coord.service._connections
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert coord.service._connections, "the stalled client was not served"
    finally:
        started = time.monotonic()
        coord.stop()
        stop_s = time.monotonic() - started
        stalled.close()
        closing.set()
        acceptor.join(timeout=5)
        silent.close()
        for sock in accepted:
            sock.close()
    assert not acceptor.is_alive()
    health_done = coord.service._health.done()
    del coord  # a probe still pending would now close on a dead loop
    gc.collect()
    assert unraisable == []
    assert health_done
    assert stop_s < 5.0  # cancelled, not left to its probe timeout


# ----------------------------------------------------------------------
# eviction and rebalancing (dedicated fleet: we kill a worker)


def test_sweep_survives_worker_killed_mid_grid(tmp_path):
    """Kill one of two workers while a sweep grid is in flight: the
    coordinator evicts it and reroutes its key share; the sweep still
    completes with every result, exactly once per unique key."""
    with ClusterThread(workers=2, worker_processes=1, worker_mode="thread",
                       root=str(tmp_path)) as fleet:
        client = fleet.client(timeout=120)
        seconds = [0.15 + i * 0.001 for i in range(10)]
        record = client.submit({
            "kind": "sweep",
            "params": {"fn": "debug.sleep", "axes": {"seconds": seconds}},
        })
        time.sleep(0.4)  # let the grid start landing on both workers
        fleet.kill_worker(0)
        final = client.wait(record["id"], timeout=90)
        assert final["status"] == "done", final.get("error")
        result = final["result"]
        assert len(result["results"]) == len(seconds)
        assert [r["slept"] for r in result["results"]] == [
            pytest.approx(s) for s in seconds]
        # every unique key was dispatched exactly once coordinator-side
        assert client.metrics()["counters"]["executed"] == len(seconds)
        health = client.healthz()
        assert health["evictions"] >= 1
        assert health["live_workers"] == 1


# ----------------------------------------------------------------------
# client failover across cluster endpoints


def test_client_fails_over_to_a_live_endpoint(tmp_path):
    from repro.harness.cache import ResultCache

    cache = ResultCache(tmp_path / "failover-cache")
    with ServerThread(cache=cache, workers=1,
                      worker_mode="thread") as srv:
        # first endpoint is dark; the client must rotate to the live one
        client = ServeClient(endpoints=[("127.0.0.1", 1),
                                        ("127.0.0.1", srv.port)],
                             timeout=10)
        record = client.submit_and_wait(_echo_spec("failover"), timeout=60)
        assert record["status"] == "done"
        assert client.port == srv.port  # sticky on the endpoint that works


def test_client_raises_when_every_endpoint_is_dark():
    client = ServeClient(endpoints=[("127.0.0.1", 1), ("127.0.0.1", 2)],
                         timeout=2)
    with pytest.raises(ConnectionError):
        client.healthz()


# ----------------------------------------------------------------------
# one front: artifacts, retention and route parity on both roles


def test_artifacts_are_served_through_the_coordinator(cluster):
    """The coordinator answers the artifact route from the shared
    store the workers write through to: same bytes as the worker."""
    spec = {"kind": "trace", "params": {"experiment": "covert"}}
    client = cluster.client(timeout=300)
    record = client.submit_and_wait(spec, timeout=300)
    assert record["status"] == "done", record.get("error")
    via_coordinator = client.artifact(record["id"], "chrome.json")
    worker = cluster.worker_client(0, timeout=300)
    wrec = worker.submit_and_wait(spec, timeout=300)
    assert wrec["source"] == "cache"
    assert via_coordinator == worker.artifact(wrec["id"], "chrome.json")
    assert json.loads(via_coordinator)["traceEvents"]
    with pytest.raises(ServeError) as excinfo:
        client.artifact(record["id"], "missing.bin")
    assert excinfo.value.status == 404


def _front(kind, root):
    """A server or a coordinator fleet whose cache is ``root/store``."""
    store = str(root / "store")
    if kind == "server":
        return ServerThread(cache=ResultCache(store), workers=1,
                            worker_mode="thread")
    return ClusterThread(workers=1, worker_processes=1,
                         worker_mode="thread", root=str(root))


@pytest.mark.parametrize("kind", ["server", "coordinator"])
def test_job_table_drops_oldest_terminal_records(kind, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(server_mod, "MAX_RETAINED_JOBS", 2)
    with _front(kind, tmp_path) as front:
        client = front.client(timeout=60)
        done = [client.submit_and_wait(_echo_spec(f"keep-{i}"),
                                       timeout=60)["id"]
                for i in range(3)]
        assert [r["id"] for r in client.jobs()["jobs"]] == done[1:]
        with pytest.raises(ServeError) as excinfo:
            client.status(done[0])  # issued, then dropped
        assert excinfo.value.status == 410
        with pytest.raises(ServeError) as excinfo:
            client.status(done[0][0] + "999999")  # never issued
        assert excinfo.value.status == 404

        # an in-flight record outlives every newer terminal record
        blocker = client.submit({
            "kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 1.0, "token": "keep"}},
        })
        warm = [client.submit(_echo_spec("keep-2"))["id"]
                for _ in range(3)]
        assert client.status(blocker["id"])["status"] in ("queued",
                                                          "running")
        assert {r["id"] for r in client.jobs()["jobs"]} == {
            blocker["id"], *warm[1:]}
        assert client.wait(blocker["id"], timeout=60)["status"] == "done"
        assert {r["id"] for r in client.jobs()["jobs"]} == {
            blocker["id"], warm[2]}
        assert client.metrics()["jobs_retained"] == 2


#: (method, path, status) sent to both fronts; ``{known}`` is a
#: retained cache-answered job, ``{dropped}`` one the table let go.
_ROUTE_TABLE = [
    ("GET", "/v1/jobs/{unknown}", 404),
    ("DELETE", "/v1/jobs/{unknown}", 404),
    ("GET", "/v1/jobs/{known}", 200),
    ("PUT", "/v1/jobs/{known}", 405),
    ("DELETE", "/v1/jobs/{known}", 409),
    ("GET", "/v1/jobs/{known}/artifacts/chrome.json", 404),
    ("GET", "/v1/jobs/{dropped}", 410),
    ("GET", "/v1/jobs/{dropped}/artifacts/chrome.json", 410),
    ("GET", "/v1/nowhere", 404),
]


def _status_code(port, method, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path)
        return conn.getresponse().status
    finally:
        conn.close()


@pytest.mark.parametrize("kind", ["server", "coordinator"])
def test_route_table_is_the_same_on_both_fronts(kind, tmp_path,
                                                monkeypatch):
    monkeypatch.setattr(server_mod, "MAX_RETAINED_JOBS", 1)
    spec = _echo_spec("parity")
    # warm the store so even a fleet-less coordinator answers
    run_jobs(ExperimentSpec.from_json(spec).jobs(),
             cache=ResultCache(tmp_path / "store"))
    if kind == "server":
        front = _front(kind, tmp_path)
    else:
        front = CoordinatorThread(shared_store=str(tmp_path / "store"))
    with front:
        client = front.client(timeout=60)
        dropped = client.submit(spec)["id"]
        known = client.submit(spec)["id"]  # pushes `dropped` out
        ids = {"known": known, "dropped": dropped,
               "unknown": known[0] + "999999"}
        codes = [_status_code(front.port, method, path.format(**ids))
                 for method, path, _ in _ROUTE_TABLE]
    assert codes == [status for *_, status in _ROUTE_TABLE]
