"""``serve-mix``: an open-loop request mix against ``python -m repro serve``.

The server runs in its own process with one worker and starts from a
warm cache.  One single-threaded client sends a seeded open-loop
schedule at a fixed mean rate and times every request from when it was
due.  The mix is mostly warm hits -- contention cells, benign workloads,
and ``synth.measure`` specs whose key builds the candidate program on
the event loop -- plus cold jobs with fresh seeds (cache writes),
in-flight duplicates of cold jobs (coalescing) and uncacheable lint
specs.  The service layers do the work here and the simulator little.

The end-to-end costs are the CPU time of the server and its worker
processes (``/proc``), divided by the host slowdown the client's
reference samples show over the same stretch (``pace.py``).  Request
latencies are wall time and are per-layer metrics.

Every seed sends the same number of requests of each kind; the seed
picks the order, the arrival times and the fresh job seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from perfbench.pace import PACER, slowdown
from perfbench.probe import Probe, clock, tree_cpu_s, tree_pids, tree_run_s
from perfbench.stats import OpenLoopSample, poisson_schedule, tail, timing

#: Mean request rate (1/s).
RATE = 26.0

#: Share of each request kind; dup requests ride on cold ones.  The cold
#: and lint shares keep the single worker about a quarter busy: at half
#: busy queueing amplified the host's speed swings into run-to-run latency
#: spreads of 30-40%.
MIX = {"warm_cell": 0.30, "warm_workload": 0.35, "warm_synth": 0.10,
       "cold": 0.15, "lint": 0.05, "dup": 0.05}

#: How often outstanding jobs are polled (seconds).  A job's completion
#: time is its record's ``finished_at``, not the poll that saw it, so the
#: interval does not set cold latencies; polling more often only adds
#: server work that the server's CPU time would count.
POLL_S = 0.025

#: How often the client takes a host-speed reference sample while it
#: waits (seconds of wall time).  The server's CPU times are divided by
#: the slowdown those samples show (``pace.py``).
REF_EVERY_S = 0.04

#: A duplicate is due this long after the cold request it copies.
DUP_DELAY_S = 0.002

#: Server spawns measured per run (``setup_s`` is their median).
SPAWNS = 5

#: Longest wait for the last outstanding job after the schedule.
DRAIN_S = 60.0

#: Sim counters a catalog entry records (deterministic per spec).
SIM_FIELDS = ("cpu.calls", "sim.uops", "sim.fetch_blocks", "sim.dsb_hits",
              "sim.dsb_misses", "sim.macro_ops_decoded", "sim.squashes",
              "sim.cycles")

WORKLOAD_NAMES = ("branchy", "hash_loop", "hot_loop", "interpreter",
                  "large_code", "matvec", "pointer_chase", "syscall_heavy")

#: contention.cell presets: uop_cache and store_buffer only.  An itlb
#: cell fails the preflight (RC003) under a plain ``cpu`` preset, which
#: cannot carry the resource's tuned config (see NOTES.md).
CELLS = [(r, m) for r in ("uop_cache", "store_buffer")
         for m in ("smt", "time_sliced")]

#: Cheap cold templates: (fn, params).  Their results do not depend on
#: the job seed, so each fresh-seed answer must equal the catalog's.
COLD = [("workloads.run", {"name": n, "scale": 1})
        for n in ("hot_loop", "syscall_heavy", "matvec", "pointer_chase",
                  "hash_loop")] + [
        ("contention.cell", {"resource": r, "mode": m, "variant": "conflict",
                             "trials": 1})
        for r, m in (("store_buffer", "smt"), ("store_buffer", "time_sliced"),
                     ("uop_cache", "time_sliced"))]

LINT_TARGETS = ("covert", "tigerzebra", "contention-sb", "spectre")


def _job(fn: str, params: Dict[str, Any], seed: int = 0) -> Dict[str, Any]:
    return {"kind": "job", "params": {"fn": fn, "params": params},
            "cpu": "skylake", "seed": seed}


def _synth_genomes() -> List[Dict[str, Any]]:
    """Six finalists the search could have produced: the hand-written
    baseline, four valid mutations of it and two episode-channel
    genomes.  Their keys take 5-60 ms to build on admission."""
    from repro.synth.genome import baseline_genome, mutate, new_smt_genome

    base = baseline_genome()
    return ([base] + [mutate(base, random.Random(s)) for s in (1, 7, 10)]
            + [new_smt_genome(random.Random(s)) for s in (3, 7)])


def catalog() -> Dict[str, List[Dict[str, Any]]]:
    """Spec documents by kind; the ``cold`` ones carry seed 0 here and a
    fresh seed when sent."""
    return {
        "warm_cell": [_job("contention.cell", {"resource": r, "mode": m,
                                               "variant": "conflict",
                                               "trials": 1})
                      for r, m in CELLS],
        "warm_workload": [_job("workloads.run", {"name": n, "scale": 1})
                          for n in WORKLOAD_NAMES],
        "warm_synth": [_job("synth.measure", {"genome": g, "payload_hex": "a5",
                                              "detector_bits": 2})
                       for g in _synth_genomes()],
        "cold": [_job(fn, params) for fn, params in COLD],
        "lint": [{"kind": "lint", "params": {"targets": [t]}}
                 for t in LINT_TARGETS],
    }


def _source_digest(root: Path) -> str:
    h = hashlib.sha256(json.dumps(catalog(), sort_keys=True).encode())
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prewarm(root: Path, work: Path) -> Tuple[Path, Dict[str, Any]]:
    """Execute the catalog once into a cache kept under ``work`` (keyed
    by the catalog and the source tree), recording each spec's answer
    and simulator counts.  Later runs in the same checkout reuse it.
    Returns the directory and the recorded catalog."""
    from repro.harness.cache import ResultCache
    from repro.serve.spec import ExperimentSpec

    target = work / f"serve-warm-{_source_digest(root)}"
    if (target / "catalog.json").exists():
        return target, json.loads((target / "catalog.json").read_text())
    tmp = work / f"{target.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cache = ResultCache(tmp / "cache")
    entries: Dict[str, List[Dict[str, Any]]] = {}
    with Probe() as probe:
        for kind, docs in catalog().items():
            entries[kind] = []
            for doc in docs:
                # Warm specs fill the cache; cold ones (and lint) run
                # uncached so their simulator counts are recorded even
                # when a warm twin has the same key.
                spec = ExperimentSpec.from_json(doc)
                before = probe.snapshot()
                result = spec.execute(cache if kind.startswith("warm")
                                      else None)
                counts = probe.since(before)
                expected = result["ok"] if kind == "lint" else result["result"]
                entries[kind].append({
                    "doc": doc, "expected": expected,
                    "sim": {k: counts[k] for k in SIM_FIELDS}})
    (tmp / "catalog.json").write_text(json.dumps(entries))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target, entries


# ----------------------------------------------------------------------
# schedule


@dataclass
class Request:
    kind: str                 # catalog kind, or "dup"
    doc: Dict[str, Any]
    entry: Dict[str, Any]     # catalog entry (expected answer, counts)
    due: float                # offset from schedule start (s)
    sent: float = 0.0
    admitted: float = 0.0     # POST answered
    done: Optional[float] = None
    status: str = "unsent"
    ok: bool = False
    job_id: str = ""
    record: Dict[str, Any] = field(default_factory=dict)
    copied: bool = False      # a dup request copies this one

    @property
    def warm(self) -> bool:
        return self.kind.startswith("warm")


def schedule(seed: int, seconds: float,
             entries: Dict[str, List[Dict[str, Any]]]) -> List[Request]:
    """The seeded open-loop schedule, sorted by due time."""
    rng = random.Random(seed)
    total = max(len(MIX), round(RATE * seconds))
    counts = {kind: max(1, round(share * total)) for kind, share in MIX.items()}
    kinds: List[str] = []
    for kind in ("warm_cell", "warm_workload", "warm_synth", "cold", "lint"):
        kinds.extend([kind] * counts[kind])
    rng.shuffle(kinds)
    dues = poisson_schedule(rng, len(kinds), seconds)

    used_seeds = set()
    turn = {kind: 0 for kind in entries}
    requests: List[Request] = []
    for kind, due in zip(kinds, dues):
        # round-robin over each kind's catalog: the same work every seed
        entry = entries[kind][turn[kind] % len(entries[kind])]
        turn[kind] += 1
        doc = json.loads(json.dumps(entry["doc"]))
        if kind == "cold":
            seed_value = rng.randrange(1, 2 ** 31)
            while seed_value in used_seeds:
                seed_value = rng.randrange(1, 2 ** 31)
            used_seeds.add(seed_value)
            doc["seed"] = seed_value
        requests.append(Request(kind, doc, entry, due))
    # duplicates, round-robin over the cold templates like the rest
    for i in range(counts["dup"]):
        template = entries["cold"][i % len(entries["cold"])]
        twins = [r for r in requests if r.kind == "cold"
                 and r.entry is template and not r.copied]
        if twins:
            twin = rng.choice(twins)
            twin.copied = True
            requests.append(Request("dup", twin.doc, twin.entry,
                                    twin.due + DUP_DELAY_S))
    requests.sort(key=lambda r: r.due)
    return requests


# ----------------------------------------------------------------------
# server process


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``python -m repro serve --workers 1`` in a child process."""

    def __init__(self, root: Path, cache_dir: Path, log_path: Path):
        from repro.serve.client import ServeClient

        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = open(log_path, "ab")
        start = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", str(self.port), "--cache-dir", str(cache_dir)],
            cwd=str(root), env=env, stdout=self.log, stderr=self.log)
        self.client = ServeClient(port=self.port, timeout=120.0)
        deadline = start + 120.0
        first = len(PACER.samples)
        while True:
            try:
                self.client.healthz()
                break
            except (OSError, ConnectionError):
                if self.proc.poll() is not None or clock() > deadline:
                    self.stop()
                    raise RuntimeError("server did not come up; see "
                                       f"{log_path}") from None
                PACER.sample()
                time.sleep(0.005)
        self.spawn_s = clock() - start
        self.spawn_cpu_s = tree_run_s(self.proc.pid)
        self.spawn_slowdown = slowdown(PACER.samples[first:])

    def cpu_s(self) -> Tuple[float, float]:
        """CPU seconds used so far by the server process (event loop,
        HTTP, admission) and by its worker processes."""
        by_pid = tree_cpu_s(self.proc.pid)
        own = by_pid.pop(self.proc.pid, 0.0)
        return own, sum(by_pid.values())

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and every process under it."""
        total_kb = 0
        for pid in tree_pids(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Drain (SIGTERM), then kill if the drain does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ----------------------------------------------------------------------
# client


def _answer_ok(req: Request, record: Dict[str, Any]) -> bool:
    if record.get("status") != "done":
        return False
    doc = record.get("result") or {}
    if req.kind == "lint":
        return doc.get("ok") == req.entry["expected"]
    return doc.get("result") == req.entry["expected"]


def drive(client, requests: List[Request]) -> float:
    """Send ``requests`` open-loop from one thread; poll outstanding jobs
    every :data:`POLL_S` and take a reference sample every
    :data:`REF_EVERY_S` while waiting.  Fills each request in place and
    returns the schedule's start on the :func:`clock`."""
    from repro.serve.client import Backpressure, ServeError

    # The server stamps records with time.time(); map those stamps onto
    # the clock the schedule runs on.
    epoch0, clock0 = time.time(), clock()
    start = clock() + 0.2
    pending = deque(requests)
    outstanding: Dict[str, List[Request]] = {}
    next_poll = next_ref = start
    end_by = start + (requests[-1].due if requests else 0.0) + DRAIN_S

    def finish(req: Request, record: Dict[str, Any], when: float) -> None:
        req.done = when
        req.status = record.get("status", "?")
        req.record = record
        req.ok = _answer_ok(req, record)

    while pending or outstanding:
        now = clock()
        if now > end_by:
            break
        if pending and start + pending[0].due <= now:
            req = pending.popleft()
            req.sent = clock()
            try:
                record = client.submit(req.doc)
            except (Backpressure, ServeError) as exc:
                req.admitted = req.done = clock()
                req.status = f"refused {getattr(exc, 'status', '?')}"
                continue
            req.admitted = clock()
            req.job_id = record["id"]
            if record.get("status") in ("done", "failed", "timeout",
                                        "cancelled"):
                finish(req, record, req.admitted)
            else:
                outstanding.setdefault(req.job_id, []).append(req)
            continue
        if outstanding and now >= next_poll:
            for job_id in list(outstanding):
                record = client.status(job_id)
                if record.get("status") in ("done", "failed", "timeout",
                                            "cancelled"):
                    seen = clock()
                    stamp = record.get("finished_at")
                    when = seen if stamp is None else min(
                        seen, clock0 + stamp - epoch0)
                    for req in outstanding.pop(job_id):
                        finish(req, record, max(when, req.sent))
            next_poll = clock() + POLL_S
            continue
        if now >= next_ref:
            PACER.sample()
            next_ref = clock() + REF_EVERY_S
            continue
        wake = [next_poll, next_ref] if outstanding else [next_ref]
        if pending:
            wake.append(start + pending[0].due)
        delay = min(wake) - clock()
        if delay > 0:
            time.sleep(min(delay, POLL_S))
    return start


def samples(requests: List[Request], start: float, warm: bool
            ) -> List[OpenLoopSample]:
    return [OpenLoopSample(start + r.due, r.sent, r.done)
            for r in requests if r.warm == warm and r.done is not None]


def run_once(root: Path, work: Path, warm: Path, entries: Dict[str, Any],
             seed: int, seconds: float, spawns: int) -> Dict[str, Any]:
    """Spawn the server ``spawns`` times (set-up), drive the schedule
    against the last one and collect what the run observed."""
    run_dir = work / f"serve-run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(warm / "cache", run_dir / "cache")
    spawn_s: List[float] = []
    spawn_cpu_s: List[float] = []
    server: Optional[Server] = None
    try:
        for i in range(spawns):
            server = Server(root, run_dir / "cache", run_dir / "serve.log")
            spawn_s.append(server.spawn_s)
            spawn_cpu_s.append(server.spawn_cpu_s / server.spawn_slowdown)
            if i < spawns - 1:
                server.stop()
        requests = schedule(seed, seconds, entries)
        own0, workers0 = server.cpu_s()
        first = len(PACER.samples)
        start = drive(server.client, requests)
        own1, workers1 = server.cpu_s()
        slow = slowdown(PACER.samples[first:])
        metrics = server.client.metrics()
        health = server.client.healthz()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    finished = [r.done for r in requests if r.done is not None]
    cold_sim = {k: 0 for k in SIM_FIELDS}
    for r in requests:
        if r.kind == "cold":
            for k in SIM_FIELDS:
                cold_sim[k] += r.entry["sim"][k]
    return {
        "requests": requests,
        "start": start,
        "wall": (max(finished) if finished else clock()) - start,
        "slowdown": slow,
        "raw_cpu": own1 - own0 + workers1 - workers0,
        "cpu": (own1 - own0 + workers1 - workers0) / slow,
        "executed": metrics["counters"]["executed"],
        "server_cpu": (own1 - own0) / slow,
        "worker_cpu": (workers1 - workers0) / slow,
        "spawn_s": spawn_s,
        "spawn_cpu_s": spawn_cpu_s,
        "metrics": metrics,
        "health": health,
        "rss_mb": rss,
        "sim": cold_sim,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r.ok),
    }


def _record_ms(req: Request, start: str, end: str) -> Optional[float]:
    a, b = req.record.get(start), req.record.get(end)
    return None if a is None or b is None else 1e3 * (b - a)


def measure(seed: int, seconds: float, trace: bool, work: Path
            ) -> Dict[str, Any]:
    """One run; with ``trace`` a second run of the same schedule follows
    and supplies the per-layer numbers.  Serve tracing is passive -- the
    client's own timestamps, the job records it already holds, and one
    read of ``/metrics`` and ``/healthz`` after the schedule -- so the
    two runs differ only by run-to-run noise."""
    root = Path(__file__).resolve().parent.parent
    warm_dir, entries = prewarm(root, work)
    plain = run_once(root, work, warm_dir, entries, seed, seconds, SPAWNS)
    runs = [plain]
    traced = None
    if trace:
        traced = run_once(root, work, warm_dir, entries, seed, seconds, 1)
        runs.append(traced)

    reqs = plain["requests"]
    warm = timing([s.latency for s in samples(reqs, plain["start"], True)])
    cold = timing([s.latency for s in samples(reqs, plain["start"], False)])
    end_to_end = {
        "setup_s": median(plain["spawn_cpu_s"]),
        "cpu_s": plain["cpu"],
        "sim_uops_per_cpu_s": plain["sim"]["sim.uops"] / plain["cpu"],
        "cold_op_ms": 1e3 * plain["worker_cpu"] / max(1, plain["executed"]),
        "warm_op_ms": 1e3 * plain["server_cpu"] / len(reqs),
        "peak_rss_mb": plain["rss_mb"],
    }
    per_layer: Dict[str, float] = {}
    if traced is not None:
        reqs = traced["requests"]

        def admit_ms(kind: str) -> float:
            return median([1e3 * (r.admitted - r.sent)
                           for r in reqs if r.kind == kind])

        executed = [r for r in reqs if r.kind in ("cold", "lint")]
        waits = [v for v in (_record_ms(r, "submitted_at", "started_at")
                             for r in executed) if v is not None]
        service = [v for v in (_record_ms(r, "started_at", "finished_at")
                               for r in executed) if v is not None]
        counters = traced["metrics"]["counters"]
        rates = traced["metrics"]["rates"]
        warm_samples = samples(reqs, traced["start"], True)
        cold_samples = samples(reqs, traced["start"], False)
        warm_t = timing([s.latency for s in warm_samples])
        cold_t = timing([s.latency for s in cold_samples])
        late = [s.late for s in warm_samples + cold_samples]
        per_layer = {k: traced["sim"][k] for k in SIM_FIELDS
                     if k not in ("sim.dsb_hits", "sim.dsb_misses")}
        hits, misses = traced["sim"]["sim.dsb_hits"], traced["sim"]["sim.dsb_misses"]
        per_layer.update({
            "sim.dsb_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serve.admit_warm_cell_ms": admit_ms("warm_cell"),
            "serve.admit_warm_synth_ms": admit_ms("warm_synth"),
            "serve.admit_lint_ms": admit_ms("lint"),
            "serve.queue_wait_ms": median(waits) if waits else 0.0,
            "serve.service_ms": median(service) if service else 0.0,
            "serve.worker_busy_frac": sum(service) / 1e3 / traced["wall"],
            "serve.cache_hit_rate": rates["cache_hit_rate"],
            "serve.coalesce_rate": rates["coalesce_hit_rate"],
            "serve.executed": counters["executed"],
            "serve.rejected": counters["rejected"],
            "serve.jobs_retained": traced["health"]["jobs_tracked"],
            "client.late_ms": 1e3 * tail(late)[0] if late else 0.0,
            "client.warm_p50_ms": 1e3 * warm_t["p50"],
            "client.warm_tail_ms": 1e3 * warm_t["tail"],
            "client.cold_p50_ms": 1e3 * cold_t["p50"],
            "client.cold_tail_ms": 1e3 * cold_t["tail"],
            "trace.overhead_frac": traced["cpu"] / plain["cpu"] - 1.0,
        })
    problems = [f"{r.kind} {r.doc.get('params', {}).get('fn', r.kind)}: "
                f"{r.status} {r.record.get('error') or ''}".strip()
                for run in runs for r in run["requests"] if not r.ok]
    return {
        "end_to_end": end_to_end, "per_layer": per_layer,
        "samples": {"cold": cold, "warm": warm},
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "problems": problems,
        "notes": [f"schedule: wall {plain['wall']:.4f} s, server cpu "
                  f"{plain['raw_cpu']:.4f} s, host slowdown "
                  f"{plain['slowdown']:.4f}; spawn wall "
                  + ", ".join(f"{v:.4f}" for v in plain["spawn_s"])
                  + " s, cpu " + ", ".join(f"{v:.4f}"
                                           for v in plain["spawn_cpu_s"])
                  + " s"],
        "sim_passes": [{k: v for k, v in run["sim"].items()
                        if k.startswith("sim.")} for run in runs],
    }
