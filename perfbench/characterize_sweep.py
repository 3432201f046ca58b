"""``characterize-sweep``: the Figures 3-7 ``--fast`` grid through the harness.

One pass runs the 100 grid points through ``run_jobs`` with one worker
per CPU into a fresh cache directory, the seed fixing the job order.
The 100 programs are distinct and each runs briefly, with no session
reset reuse, so per-program construction and DSB misses weigh more here
than in ``attack-cold``; the pass also writes the cache and uses the
harness pool.  Afterwards the whole grid is asked for again in one
``run_jobs`` call and must come back from the cache: the *warm* op,
:data:`WARM_ASKS` per pass, timed per job.  (Per-job warm asks were
tried first: the grid's programs differ in size, the per-job latencies
cluster, and their median jumped between clusters from run to run.)

Times are CPU seconds: the pass's is the parent's plus that of every
pool worker (reaped when ``run_jobs`` shuts its pool down), a job's is
its worker thread's.  The reference kernel's own CPU time is taken out
and each time is divided by the host's slowdown (``pace.py``): over the
cold pass, from the reference samples of the parent and of every job,
or over the warm ask.  Wall times are printed alongside.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

from perfbench.pace import PACER, slowdown
from perfbench.probe import (FIELDS, Probe, children_cpu_s, clock, cpu_clock,
                             cpu_layers, read_job_log)
from perfbench.stats import timing

#: Nominal seconds per pass on the reference machine (2 workers): sets
#: how many passes a run makes, so runs of one length do the same work.
PASS_S = 10.0

#: Set-ups measured per run (``setup_s`` is their median).
SETUPS = 5

#: Times per pass the whole grid is asked for again (warm ops).
WARM_ASKS = 10


def _noop() -> int:
    return os.getpid()


def _cpu_now() -> float:
    """This thread's CPU seconds plus those of every reaped child."""
    return cpu_clock() + children_cpu_s()


def setup(seed: int, workers: int) -> float:
    """CPU seconds a sweep spends before its first job can run: build the
    grid's jobs, compute their keys (each builds its program), and start
    a pool of the harness's kind until every worker answered a no-op.
    Returned at nominal host speed."""
    first = len(PACER.samples)
    start = _cpu_now()
    for _, _, job in grid(seed)[1]:
        job.key()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(_noop) for _ in range(workers)]:
            future.result()
    return (_cpu_now() - start) / slowdown(PACER.samples[first:])


def grid(seed: int) -> Tuple[Dict[str, Any], List[Tuple[str, int, Any]]]:
    """The sweeps and their jobs as ``(sweep, index, job)``, shuffled by
    ``seed``.  Fresh job objects each call, so keys are computed anew."""
    from repro.harness.experiments import characterize_sweeps

    sweeps = characterize_sweeps(fast=True)
    entries = [(name, i, job) for name, sweep in sweeps.items()
               for i, job in enumerate(sweep.jobs())]
    random.Random(seed).shuffle(entries)
    return sweeps, entries


def check_figures(figures: Dict[str, Any]) -> List[str]:
    """The paper shapes the figure benchmarks assert, on the fast grid's
    points; returns the names of the checks that fail."""
    failures = []

    def check(name: str, cond: bool) -> None:
        if not cond:
            failures.append(name)

    size = figures["fig3a_size"]
    knee = size.knee()
    check("fig3a capacity knee in [256, 288]",
          knee is not None and 256 <= knee <= 288)
    assoc = figures["fig3b_associativity"]
    below = max(y for x, y in zip(assoc.x, assoc.y) if x <= 8)
    above = min(y for x, y in zip(assoc.x, assoc.y) if x >= 10)
    check("fig3b rises past 8 ways", below < above)

    place = figures["fig4_placement"]

    def series(n: int) -> Dict[int, float]:
        return dict(zip(place.uops_per_region, place.dsb_uops[n]))

    s2, s4, s8 = series(2), series(4), series(8)
    check("fig4 2-region cliff after 18 uops", s2[18] > 5 * max(s2[20], 1))
    check("fig4 4-region cap at 12 uops", s4[12] > 1.5 * max(s4[14], 1))
    check("fig4 8-region cap at 6 uops", s8[6] > 2 * max(s8[8], 1))

    repl = figures["fig5_replacement"]
    check("fig5 cold main loop evicted", repl.cell(1, 4) < 10)
    check("fig5 hot main loop retained", repl.cell(8, 4) > 35)
    check("fig5 hottest main loop retained", repl.cell(12, 4) > 35)
    check("fig5 hotter evictor evicts more",
          repl.cell(8, 12) <= repl.cell(8, 4))
    check("fig5 hotter main loop keeps more",
          repl.cell(2, 8) <= repl.cell(12, 8))

    # The fast grid steps by 64 regions, too coarse for the full-grid
    # "fits below 5 uops" bounds; the paper's claim is the SMT knee at
    # half the single-thread one.
    smt = figures["fig6_smt"]
    single_knee, smt_knee = smt.knee_single(), smt.knee_smt()
    check("fig6 single-thread knee at 256", single_knee == 256)
    check("fig6 SMT knee at half the single-thread knee",
          smt_knee is not None and single_knee is not None
          and 2 * smt_knee == single_knee)

    geo = figures["fig7_geometry"]
    check("fig7a no way partitioning",
          max(geo.sweep_t1_mite) < 5 and max(geo.sweep_t2_mite) < 5)
    single_fit = max((n for n, y in zip(geo.group_counts, geo.groups_single)
                      if y < 80), default=None)
    smt_fit = max((n for n, y in zip(geo.group_counts, geo.groups_smt)
                   if y < 80), default=None)
    check("fig7b 32 groups single-threaded", single_fit == 32)
    check("fig7b 16 groups under SMT", smt_fit == 16)
    return failures


def run_pass(seed: int, workers: int, cache_dir: str, probe: Probe
             ) -> Dict[str, Any]:
    """One cold pass into a fresh cache, then the warm re-asks."""
    from repro.harness.cache import ResultCache
    from repro.harness.executor import run_jobs
    from repro.harness.experiments import assemble_characterize

    shutil.rmtree(cache_dir, ignore_errors=True)
    Path(probe.job_log).unlink(missing_ok=True)
    cache = ResultCache(cache_dir)
    sweeps, entries = grid(seed)
    before = probe.snapshot()
    first = len(PACER.samples)
    start, cpu_start = clock(), _cpu_now()
    outcomes, summary = run_jobs([job for _, _, job in entries],
                                 workers=workers, cache=cache)
    cpu = _cpu_now() - cpu_start
    wall = clock() - start
    parent_ref = PACER.samples[first:]
    parent = probe.since(before)

    records = read_job_log(probe.job_log)
    Path(probe.job_log).unlink(missing_ok=True)
    # The workers' reference kernels (a job run in this process took its
    # samples from this process's pacer, which cpu_clock already leaves out).
    job_ref = [v for r in records if r["pid"] != os.getpid() for v in r["ref"]]
    cpu -= sum(job_ref)
    jobs_stats = dict.fromkeys(FIELDS, 0.0)
    for record in records:
        for name in FIELDS:
            jobs_stats[name] += record["stats"][name]

    failed = sum(1 for o in outcomes if not o.ok)
    problems = [f"{o.job.label}: {o.error}" for o in outcomes if not o.ok]
    if len(records) != summary.executed:
        problems.append(f"job log holds {len(records)} records for "
                        f"{summary.executed} executed jobs")
    if not failed:
        results = {name: [None] * len(sweep) for name, sweep in sweeps.items()}
        for (name, i, _), outcome in zip(entries, outcomes):
            results[name][i] = outcome.result
        shape = check_figures(assemble_characterize(sweeps, results))
        failed += len(shape)
        problems.extend(shape)

    expected = {o.key: o.result for o in outcomes if o.ok}
    warm = []   # per job, at nominal speed by the slowdown during the ask
    for _ in range(WARM_ASKS):
        _, again = grid(seed)
        ask_first = len(PACER.samples)
        t0 = _cpu_now()
        hits, _ = run_jobs([job for _, _, job in again], cache=cache)
        warm.append((_cpu_now() - t0) / len(again)
                    / slowdown(PACER.samples[ask_first:]))
        for hit in hits:
            if not (hit.ok and hit.from_cache
                    and expected.get(hit.key) == hit.result):
                failed += 1
                problems.append(f"warm {hit.job.label} not answered "
                                "from cache")

    return {
        "wall": wall,
        "cpu": cpu,
        "slowdown": slowdown(parent_ref + job_ref),
        "cold": [r["cpu"] for r in records],
        "warm": warm,
        "attempted": len(outcomes) + WARM_ASKS * len(entries),
        "failed": failed,
        "problems": problems,
        "parent": parent,
        "jobs": jobs_stats,
        "job_s": sum(r["seconds"] for r in records),
        "job_cpu": sum(r["cpu"] for r in records),
        "executed": summary.executed,
        "retries": summary.retries,
    }


def measure(seed: int, seconds: float, trace: bool, work: Path
            ) -> Dict[str, Any]:
    """Untraced passes (and, with ``trace``, traced ones interleaved)."""
    import repro.harness.experiments  # noqa: F401 -- import before forking

    workers = len(os.sched_getaffinity(0))
    passes = max(2, round(seconds / PASS_S))
    log = str(work / f"jobs-{os.getpid()}.ndjson")
    cache_dir = str(work / f"sweep-cache-{os.getpid()}")
    plain, traced = [], []
    try:
        with PACER:
            setup(seed, workers)   # first use of the program builders
            setups = [setup(seed, workers) for _ in range(SETUPS)]
            for i in range(passes * (2 if trace else 1)):
                timed = trace and i % 2 == 1
                with Probe(timed=timed, job_log=log) as probe:
                    result = run_pass(seed, workers, cache_dir, probe)
                (traced if timed else plain).append(result)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        Path(log).unlink(missing_ok=True)

    def norm(key: str) -> List[float]:
        """Per untraced pass: ``key`` at nominal host speed."""
        return [r[key] / r["slowdown"] for r in plain]

    everything = plain + traced
    cold = timing([t / r["slowdown"] for r in plain for t in r["cold"]])
    warm = timing([t for r in plain for t in r["warm"]])
    cpu = median(norm("cpu"))
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    end_to_end = {
        "setup_s": median(setups),
        "cpu_s": cpu,
        "sim_uops_per_cpu_s": median([r["jobs"]["sim.uops"] / c
                                      for r, c in zip(plain, norm("cpu"))]),
        # A mean per job, not the median: the grid's jobs cluster by
        # program size, and a median over them jumps between clusters.
        "cold_op_ms": 1e3 * median([c / len(r["cold"]) for r, c
                                    in zip(plain, norm("job_cpu"))]),
        "warm_op_ms": 1e3 * warm["p50"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    per_layer: Dict[str, float] = {}
    if traced:
        per_layer = cpu_layers([r["jobs"] for r in traced])

        def med(fn) -> float:
            return median([fn(r) for r in traced])

        per_layer.update({
            "session.build_s": med(lambda r: r["jobs"]["session.init_s"]
                                   - r["jobs"]["lint.preflight_s"]),
            "lint.preflight_s": med(lambda r: r["jobs"]["lint.preflight_s"]),
            "core.glue_s": med(lambda r: r["job_cpu"]
                               - r["jobs"]["session.init_s"]
                               - r["jobs"]["cpu.step_s"]),
            "harness.key_s": med(lambda r: r["parent"]["harness.key_s"]),
            "harness.job_s": med(lambda r: r["job_s"]),
            "harness.parallel_eff": med(
                lambda r: r["job_s"] / (workers * r["wall"])),
            "harness.cache_put_s": med(
                lambda r: r["parent"]["harness.cache_put_s"]),
            "harness.executed": med(lambda r: r["executed"]),
            "harness.retries": med(lambda r: r["retries"]),
            "trace.unattributed_s": med(
                lambda r: r["cpu"] - r["parent"]["harness.key_s"]
                - r["parent"]["harness.cache_put_s"] - r["job_cpu"]),
            "trace.overhead_frac": (med(lambda r: r["cpu"] / r["slowdown"])
                                    / cpu - 1.0),
        })
    return {
        "end_to_end": end_to_end, "per_layer": per_layer,
        "samples": {"cold": cold, "warm": warm},
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "problems": [p for r in everything for p in r["problems"]],
        "notes": [f"pass {i}: wall {r['wall']:.4f} s, cpu {r['cpu']:.4f} s "
                  f"(parent and workers), host slowdown {r['slowdown']:.4f}"
                  for i, r in enumerate(plain)],
        "sim_passes": [{k: v for k, v in r["jobs"].items()
                        if k.startswith("sim.")} for r in everything],
    }
