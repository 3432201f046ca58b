"""Instrumentation the benchmark installs from outside the program.

Nothing under ``src/`` knows about it.  A :class:`Probe` replaces a few
public entry points of each layer with wrappers for as long as it is
installed, and restores the originals afterwards:

- ``Core.call`` / ``Core.run_smt`` (``repro.cpu``): the returned counter
  deltas feed the ``sim.*`` counts, and the cycle count read after the
  call feeds ``sim.cycles``.  Counting needs no clock and is always on.
- with ``timed=True`` also clocks (CPU time of the calling thread, see
  :data:`cpu_clock`): time inside those two calls (``cpu.step_s``),
  session and core construction (``AttackSession`` and ``Core``
  constructors, outermost only), the construction-time lint
  preflight (``repro.lint``'s public ``analyze`` / ``check_program`` /
  ``verify_claims`` / ``verify_secret_claims``), harness job keys
  (``Job.key``) and cache writes (``ResultCache.put``).
- a job log: with ``job_log`` set, every ``Job.run`` appends one JSON line
  with its duration (wall and CPU seconds), the host-speed reference
  samples taken during it (``pace.py``) and the probe totals it moved.
  Pool workers fork from the process that installed the probe, so they
  inherit the wrappers and write to the same file; lines are written
  with one ``O_APPEND`` write each, which keeps them whole.

Timings are CPU time, less the host-speed reference's, wherever the work
runs on a thread the benchmark can ask: the host these runs share lends its
cores out, and time spent waiting for a core (another process on it, or
the hypervisor running someone else's guest) lands in wall time but not in
CPU time.  The workloads then divide CPU times by the reference's slowdown
over the same stretch of work.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.pace import PACER, work_time

#: Totals a probe keeps, all starting at zero.
FIELDS = (
    "cpu.calls", "cpu.step_s",
    "sim.uops", "sim.fetch_blocks", "sim.dsb_hits", "sim.dsb_misses",
    "sim.macro_ops_decoded", "sim.squashes", "sim.cycles",
    "session.init_s", "lint.preflight_s",
    "harness.key_s", "harness.cache_put_s",
)

#: Public lint entry points the session preflight calls.
LINT_ENTRY_POINTS = ("analyze", "check_program", "verify_claims",
                     "verify_secret_claims")

#: Wall clock (open-loop schedules, request latencies).
clock = time.perf_counter

#: CPU time of the calling thread, less the host-speed reference's (see
#: ``pace.py``); every workload runs its program's work on one thread per
#: process.
cpu_clock = work_time


def children_cpu_s() -> float:
    """User + system CPU seconds of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tree_pids(pid: int) -> List[int]:
    """A live process and every process under it."""
    pids: List[int] = []
    stack = [pid]
    while stack:
        pid = stack.pop()
        try:
            children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        except OSError:
            continue
        pids.append(pid)
        stack.extend(int(c) for c in children.split())
    return pids


def tree_cpu_s(pid: int) -> Dict[int, float]:
    """User + system CPU seconds of a live process and of every process
    under it, by pid (clock ticks from ``/proc``; children a process has
    already reaped count through its ``cutime``/``cstime``)."""
    tick = os.sysconf("SC_CLK_TCK")
    out: Dict[int, float] = {}
    for pid in tree_pids(pid):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        out[pid] = sum(int(f) for f in fields[11:15]) / tick  # utime..cstime
    return out


def tree_run_s(pid: int) -> float:
    """Seconds every live thread of a process and of the processes under
    it has run on a CPU (``/proc/<pid>/task/*/schedstat``, nanoseconds;
    threads that already exited are not counted)."""
    total = 0
    for pid in tree_pids(pid):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                total += int(Path(f"/proc/{pid}/task/{tid}/schedstat")
                             .read_text().split()[0])
            except OSError:
                pass
    return total / 1e9


class Probe:
    """Counters (and, when ``timed``, clocks) around layer entry points."""

    def __init__(self, timed: bool = False, job_log: Optional[str] = None):
        self.timed = timed
        self.job_log = job_log
        self.totals: Dict[str, float] = dict.fromkeys(FIELDS, 0)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._depth = {"init": 0, "lint": 0}

    # ------------------------------------------------------------------
    # totals

    def snapshot(self) -> Dict[str, float]:
        return dict(self.totals)

    def since(self, before: Dict[str, float]) -> Dict[str, float]:
        return {k: self.totals[k] - before[k] for k in FIELDS}

    def _count(self, delta, cycles: int) -> None:
        t = self.totals
        t["cpu.calls"] += 1
        t["sim.uops"] += delta.uops_dsb + delta.uops_mite + delta.uops_msrom
        t["sim.fetch_blocks"] += delta.fetch_blocks
        t["sim.dsb_hits"] += delta.dsb_hits
        t["sim.dsb_misses"] += delta.dsb_misses
        t["sim.macro_ops_decoded"] += delta.macro_ops_decoded
        t["sim.squashes"] += delta.squashes
        t["sim.cycles"] += cycles

    # ------------------------------------------------------------------
    # install / uninstall

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: Any, name: str,
               make: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        from repro.cpu.core import Core
        from repro.harness.job import Job

        self._patch(Core, "call", self._wrap_call)
        self._patch(Core, "run_smt", self._wrap_run_smt)
        if self.job_log is not None:
            self._patch(Job, "run", self._wrap_job_run)
        if not self.timed:
            return

        import repro.lint
        from repro.harness.cache import ResultCache
        from repro.session import AttackSession

        self._patch(Core, "__init__", self._wrap_timed("init", "session.init_s"))
        self._patch(AttackSession, "__init__",
                    self._wrap_timed("init", "session.init_s"))
        for name in LINT_ENTRY_POINTS:
            self._patch(repro.lint, name,
                        self._wrap_timed("lint", "lint.preflight_s"))
        self._patch(Job, "key", self._wrap_timed(None, "harness.key_s"))
        self._patch(ResultCache, "put",
                    self._wrap_timed(None, "harness.cache_put_s"))

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_call(self, original):
        probe, timed = self, self.timed

        def call(core, entry, thread_id=0, *args, **kwargs):
            start = cpu_clock() if timed else 0.0
            delta = original(core, entry, thread_id, *args, **kwargs)
            if timed:
                probe.totals["cpu.step_s"] += cpu_clock() - start
            probe._count(delta, core.cycles(thread_id))
            return delta

        return call

    def _wrap_run_smt(self, original):
        probe, timed = self, self.timed

        def run_smt(core, *args, **kwargs):
            start = cpu_clock() if timed else 0.0
            deltas = original(core, *args, **kwargs)
            if timed:
                probe.totals["cpu.step_s"] += cpu_clock() - start
            cycles = max(core.cycles(0), core.cycles(1))
            probe._count(deltas[0], cycles)
            probe._count(deltas[1], 0)
            probe.totals["cpu.calls"] -= 1   # one call, two threads
            return deltas

        return run_smt

    def _wrap_timed(self, group: Optional[str], field: str):
        """Clock a function into ``field``; within one ``group`` only the
        outermost call counts, so nested constructors or lint passes are
        not charged twice."""
        probe = self

        def make(original):
            def timed(*args, **kwargs):
                if group is not None and probe._depth[group]:
                    return original(*args, **kwargs)
                if group is not None:
                    probe._depth[group] += 1
                start = cpu_clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.totals[field] += cpu_clock() - start
                    if group is not None:
                        probe._depth[group] -= 1

            return timed

        return make

    def _wrap_job_run(self, original):
        probe = self

        def run(job):
            # A forked pool worker arms its own timer, for the job only.
            armed = PACER.armed
            PACER.start()
            before = probe.snapshot()
            first = len(PACER.samples)
            start, cpu_start = clock(), cpu_clock()
            try:
                result = original(job)
            finally:
                if not armed:
                    PACER.stop()
            cpu = cpu_clock() - cpu_start
            seconds = clock() - start
            line = json.dumps({"fn": job.fn, "seconds": seconds, "cpu": cpu,
                               "ref": PACER.samples[first:],
                               "pid": os.getpid(),
                               "stats": probe.since(before)})
            fd = os.open(probe.job_log,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, (line + "\n").encode())
            finally:
                os.close(fd)
            return result

        return run


def read_job_log(path: str) -> List[Dict[str, Any]]:
    """Records a job log holds (none when no job ran)."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cpu_layers(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-pass medians of the cpu layer's time and the sim counts it
    produced, from probe totals (one dict per pass)."""
    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out = {key: median([p[key] for p in passes])
           for key in ("cpu.calls", "cpu.step_s", "sim.uops",
                       "sim.fetch_blocks", "sim.macro_ops_decoded",
                       "sim.squashes", "sim.cycles")}
    out["sim.dsb_hit_rate"] = median([
        ratio(p["sim.dsb_hits"], p["sim.dsb_hits"] + p["sim.dsb_misses"])
        for p in passes])
    out["cpu.ns_per_uop"] = median([
        ratio(p["cpu.step_s"], p["sim.uops"], 1e9) for p in passes])
    out["cpu.ns_per_block"] = median([
        ratio(p["cpu.step_s"], p["sim.fetch_blocks"], 1e9) for p in passes])
    return out
