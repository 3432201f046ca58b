"""Command-line interface: ``python -m repro <command>``.

The paper's figures and tables run through ``batch``; the scripts in
``examples/`` walk through the same experiments with commentary.

Batch orchestration (``repro.harness``):

- ``batch``         -- run an experiment as a parallel, cached job grid
  and check the paper's claims about it (``batch characterize``:
  Figures 3-7; ``batch covert``: Table I; ``batch attacks``: Tables I &
  II, key extraction, the transient variants and Figure 10 as one
  cached grid; ``batch contention``: the resource x sharing-mode
  contention matrix; ``batch workloads``: the benign suite's DSB hit
  rates), each an ``artifact`` spec run in process as a worker runs it
- ``cache``         -- inspect / clear the content-addressed result store
- ``profile``       -- cProfile a seconds-scale slice of an experiment
- ``trace``         -- run an experiment under the structured event bus
  (``repro.observe``): event summary, optional set-occupancy heatmaps
  (``--heatmap``) and Chrome trace-event export (``--chrome out.json``,
  loadable in chrome://tracing or Perfetto)

Serving (``repro.serve``):

- ``serve``         -- async experiment service over the harness:
  bounded admission queue with 429 backpressure, in-flight coalescing
  of identical submissions, NDJSON event streams, graceful SIGTERM
  drain
- ``submit``        -- client: expand a shorthand (``covert``,
  ``itlb``, ``storebuffer``, ``table2``, ``workloads``, ``lint``,
  ``trace``, raw ``job``) into a spec, POST it, optionally ``--wait``
  for the result

Synthesis (``repro.synth``):

- ``synth``         -- automated attack synthesis: a seeded
  generate -> lint -> submit -> score search over the attack-program
  space; finalists measured locally, against a running service
  (``--port``), or an in-process fleet (``--fleet K``)
"""

from __future__ import annotations

import argparse
import time


# ----------------------------------------------------------------------
# Batch harness


def _make_cache(args: argparse.Namespace):
    from repro.harness import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)  # None root -> default location


def _print_rows(rows) -> None:
    for row in rows:
        print("  " + row.format())


def _print_table1(rows) -> None:
    print(f"  {'Mode':32s} {'BitErr':>8s} {'Kbit/s':>10s} {'w/ECC':>10s}")
    _print_rows(rows)


def _print_table2(rows) -> None:
    print(f"\n  {'Attack':24s} {'Seconds':>11s} {'LLC refs':>12s} "
          f"{'LLC miss':>12s} {'DSB penalty':>14s} {'Acc':>7s}")
    _print_rows(rows)


def _print_keyextract(runs) -> None:
    exact = sum(1 for r in runs if r["exact"])
    print(f"\n  key extraction: {exact}/{len(runs)} exact")
    for r in runs:
        print(f"    {r['nbits']}-bit key {r['true_key']:#x} -> "
              f"{r['recovered_key']:#x} ({r['bit_errors']} bit errors)")


def _print_contention(matrix) -> None:
    from repro.harness.contention import format_matrix

    cells = sum(len(c) for per_mode in matrix.values()
                for c in per_mode.values())
    print(f"contention matrix ({len(matrix)} resources, {cells} cells; "
          "slowdown = (contended - baseline) / baseline):")
    print(format_matrix(matrix))


def _print_workloads(suite) -> None:
    rows = suite["workloads"]
    print(f"workload suite on {suite['cpu']} "
          f"({suite['uop_cache_capacity']}-uop cache):")
    print(f"{'workload':16s} {'cycles':>9s} {'IPC':>6s} {'DSB hit':>9s} "
          f"{'DSB uops':>9s} {'mispred':>8s}")
    for row in rows:
        print(f"{row['name']:16s} {row['cycles']:9d} {row['ipc']:6.2f} "
              f"{row['dsb_hit_rate'] * 100:8.1f}% "
              f"{row['dsb_uop_fraction'] * 100:8.1f}% "
              f"{row['mispredict_rate'] * 100:7.1f}%")
    avg = sum(row["dsb_hit_rate"] for row in rows) / len(rows)
    print(f"\nmean DSB hit rate: {avg * 100:.1f}% "
          "(paper cites ~80% average, ~100% for hotspots)")


def _print_leak(label: str):
    return lambda r: print(f"  {label}: {r['byte_accuracy'] * 100:.1f}% "
                           f"bytes, {r['bit_errors']} bit errors")


#: How ``batch`` prints each artifact (a figure prints only the
#: verdicts of its claims).
_ARTIFACT_PRINTERS = {
    "contention": _print_contention,
    "workloads": _print_workloads,
    "table1": _print_table1,
    "table1_contention": _print_rows,  # non-DSB channels, same format
    "table2": _print_table2,
    "keyextract": _print_keyextract,
    "bti": _print_leak("BTI (variant 2)"),
    "jumptable": _print_leak("jump table (multi-bit v1)"),
    "fig10_lfence": lambda s: print(
        f"  fence signal (Fig 10): none={s['none']:.1f} "
        f"lfence={s['lfence']:.1f} cpuid={s['cpuid']:.1f} cycles"),
}


#: Each ``repro batch`` experiment's title line (``{points}``: the job
#: count); it runs the artifact of its name unless :func:`_batch_spec`
#: lists others.
_BATCH_TITLES = {
    "attacks": "Attack evaluation (Tables I & II, key extraction, "
               "variants):",
    "characterize": "characterization study (Figures 3-7, {points} "
                    "points):",
    "contention": "", "workloads": "",
    "covert": "Table I -- bandwidth and error rate (simulated):",
}


def _batch_spec(args: argparse.Namespace) -> dict:
    """The ``artifact`` spec document ``repro batch`` runs."""
    from repro.harness import experiments as ex

    names = {"attacks": ex.ATTACKS, "characterize": ex.FIGURES,
             "covert": ("table1",)}.get(args.experiment, (args.experiment,))
    spec = {"kind": "artifact", "cpu": args.cpu, "retries": args.retries,
            "refresh": args.refresh,
            "params": {"names": list(names), "fast": args.fast}}
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    return spec


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run one batch's artifacts and print them with the verdict of
    every claim made about them; exit 1 if one fails."""
    from repro.harness import outcome_records, write_csv, write_json, write_jsonl
    from repro.serve.spec import ExperimentSpec, SpecError

    try:
        spec = ExperimentSpec.from_json(_batch_spec(args))
        artifacts, outcomes, summary = spec.run_artifacts(
            _make_cache(args), workers=args.jobs)
    except SpecError as exc:
        print(f"batch {args.experiment}: {exc}")
        return 2
    except RuntimeError as exc:
        # Job failures (timeouts, exhausted retries) arrive here with
        # the first failing job's label and error already formatted.
        print(f"batch {args.experiment} failed: {exc}")
        return 1
    title = _BATCH_TITLES[args.experiment]
    if title:
        print(title.format(points=len(outcomes)))
    for name in spec.params["names"]:
        if name in _ARTIFACT_PRINTERS:
            _ARTIFACT_PRINTERS[name](artifacts[name])
    # The served result document: its claim verdicts and JSON artifacts.
    doc = spec.artifact_result(artifacts, summary)
    claims = doc["claims"]
    for c in claims:
        print(f"  {'pass' if c['holds'] else 'FAIL'}  {c['artifact']}: "
              f"{c['claim']} [{c['section']}]")
    records = outcome_records(outcomes)
    if args.jsonl:
        print(f"wrote {write_jsonl(args.jsonl, records)}")
    if args.csv:
        print(f"wrote {write_csv(args.csv, records)}")
    if args.json:
        print("wrote " + str(write_json(args.json, {
            "experiment": args.experiment, "points": records,
            "artifacts": doc["artifacts"], "claims": claims})))
    print(summary.format())
    failed = sum(1 for c in claims if not c["holds"])
    if failed:
        print(f"{failed} of {len(claims)} paper claim(s) failed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Profiler


def _profile_target(name: str):
    """The zero-argument run ``repro profile NAME`` times: a registry
    driver's demo on a freshly built driver, or one characterization
    point."""
    if name == "characterize":
        from repro.core.characterize import size_point
        from repro.cpu.config import CPUConfig

        return lambda: size_point(CPUConfig.skylake(), 64, 8)
    from repro.drivers import DRIVERS

    driver = DRIVERS[name]
    return lambda: driver.demo(driver.make())


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.cpu.profiling import PhaseTimer

    target = _profile_target(args.experiment)

    # Pass 1: per-phase wall clock (pipeline terms), without cProfile's
    # tracing overhead skewing the split.
    with PhaseTimer() as timer:
        t0 = time.perf_counter()
        target()
        wall = time.perf_counter() - t0
    print(f"profile: {args.experiment}")
    print(f"phase breakdown (cumulative seconds, {wall:.3f}s wall):")
    for phase, seconds, share in timer.report(wall):
        calls = timer.calls[phase]
        print(f"  {phase:<8} {seconds:8.3f}s  {share:6.1%}  "
              f"({calls} calls)")
    other = wall - timer.total
    print(f"  {'other':<8} {other:8.3f}s  "
          f"{(other / wall if wall else 0.0):6.1%}  "
          "(assembly, calibration glue, classifier)")

    # Pass 2: the classic cProfile view.
    prof = cProfile.Profile()
    prof.enable()
    target()
    prof.disable()
    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    print(f"top {args.top} functions by cumulative time:")
    stats.print_stats(args.top)
    return 0


# ----------------------------------------------------------------------
# Structured tracing (repro.observe)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.observe import (OccupancySnapshot, store_trace,
                               write_chrome_trace)
    from repro.serve.spec import ExperimentSpec

    cache = _make_cache(args)
    # The served trace spec's key: either run answers the other warm.
    spec = ExperimentSpec.from_json(
        {"kind": "trace", "params": {"experiment": args.experiment}})
    key = spec.key()
    record = spec.cached_result(cache)
    blobs = {name: cache.get_artifact(key, name)
             for name in (record or {}).get("artifacts", ())
             if (args.heatmap and name.startswith("heatmap-"))
             or (args.chrome and name == "chrome.json")}
    warm = record is not None and None not in blobs.values()
    if warm:
        docs = {name: json.loads(blob) for name, blob in blobs.items()}
        snaps = [OccupancySnapshot.from_json(doc) for name, doc
                 in docs.items() if name != "chrome.json"]
        chrome = docs.get("chrome.json")
    else:  # cold, or a stored blob went missing: capture
        try:
            trace = store_trace(args.experiment, cache, key)
        except RuntimeError as exc:
            print(exc)
            return 1
        record, snaps, chrome = trace.record, trace.snaps, trace.chrome

    counts = record["events"]
    print(f"trace: {args.experiment} -- {sum(counts.values())} events"
          + (" (from cache)" if warm else ""))
    for kind, count in sorted(counts.items()):
        print(f"  {kind:16s} {count:8d}")
    by_source = record["uops_by_source"]
    if by_source:
        rendered = ", ".join(
            f"{source}={n}" for source, n in sorted(by_source.items())
        )
        print(f"  uops by source: {rendered}")

    if args.heatmap:
        for snap in snaps:
            print()
            print(snap.render_text())

    if args.chrome:
        write_chrome_trace(args.chrome, chrome)
        print(f"wrote {args.chrome} "
              f"({len(chrome['traceEvents'])} trace events)")
    if record["artifacts"]:
        print(
            f"cached {len(record['artifacts'])} artifact(s) under "
            f"{cache.artifact_path(key, 'events.json').parent}"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint.runner import run_lint

    names = args.targets
    if args.all or not names:
        names = None  # every registered target
    try:
        run = run_lint(names, cross=args.cross_check, taint=args.taint)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    if args.json != "-":  # keep stdout pure JSON when piping
        print(run.render(show_info=args.show_info))
    if args.json is not None:
        doc = json.dumps(run.as_dict(), indent=2)
        if args.json == "-":
            print(doc)
        else:
            with open(args.json, "w") as fh:
                fh.write(doc + "\n")
            print(f"wrote {args.json}")
    return run.exit_code


def _cmd_synth(args: argparse.Namespace) -> int:
    import json

    from repro.synth import (
        LocalEvaluator,
        ServeEvaluator,
        SynthConfig,
        best_report,
        run_search,
    )

    kwargs = dict(objective=args.objective, budget=args.budget,
                  seed=args.seed)
    if args.fast:
        # smoke-sized: a 2-byte payload, a 2-round detector window and
        # a smaller per-generation cohort (same search semantics)
        kwargs.update(population=16, finalists=4,
                      payload=b"sy", detector_bits=2)
    config = SynthConfig(**kwargs)
    cache = _make_cache(args)

    cluster = None
    try:
        if args.port is not None:
            from repro.serve.client import ServeClient

            client = ServeClient(host=args.host, port=args.port)
            evaluator = ServeEvaluator(
                client, max_in_flight=args.in_flight,
                timeout=args.timeout)
        elif args.fleet:
            from repro.serve.testing import ClusterThread

            print(f"synth: booting in-process fleet "
                  f"({args.fleet} workers)...")
            cluster = ClusterThread(workers=args.fleet).start()
            evaluator = ServeEvaluator(
                cluster.client(), max_in_flight=args.in_flight,
                timeout=args.timeout)
        else:
            evaluator = LocalEvaluator(
                workers=args.jobs, cache=cache, timeout=args.timeout)
        result = run_search(config, evaluator, cache=cache,
                            log=lambda msg: print(f"synth: {msg}"))
    finally:
        if cluster is not None:
            cluster.stop()

    report = best_report(result)
    funnel = report.get("funnel", {})
    print(f"synth: objective={config.objective} budget={config.budget} "
          f"seed={config.seed}")
    print(f"  funnel: raw={funnel.get('raw')} "
          f"rejected={funnel.get('rejected')} "
          f"(reject rate {funnel.get('static_reject_rate', 0.0):.2f}) "
          f"measured={funnel.get('measured')} "
          f"executed={funnel.get('executed')} "
          f"cached={funnel.get('cached')}")
    best = result.best
    if best is None or best.row is None:
        print("  no measured candidate (budget too small?)")
        return 1
    row = best.row
    print(f"  best [{best.key[:16]}...]: {row['family']}"
          + (f"/{best.genome.get('resource')}"
             if best.genome.get("resource") else "")
          + f" fitness={best.fitness:.1f}")
    print(f"    bandwidth={row['bandwidth_kbps']:.1f} Kbit/s "
          f"error={row['error_rate']:.4f} "
          f"ecc_ok={row['corrected_ok']} "
          f"detector_auc={row['detector_auc']:.3f}")
    print(f"    genome: {json.dumps(best.genome, sort_keys=True)}")
    print(f"    static: capacity={best.capacity_bits:.2f} bits/symbol, "
          f"rate~{best.static_rate_kbps:.0f} Kbit/s, "
          f"{best.lint_findings} lint findings")
    print("    listing:")
    for line in report["listing"][:12]:
        print(f"      {line}")
    if len(report["listing"]) > 12:
        print(f"      ... ({len(report['listing']) - 12} more lines)")
    if args.json:
        from repro.harness import write_json

        print(f"wrote {write_json(args.json, report)}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().format())
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


# ----------------------------------------------------------------------
# Serving (repro.serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.coordinator and args.worker:
        raise SystemExit("--coordinator and --worker are mutually exclusive")

    if args.coordinator:
        from repro.serve.cluster import run_coordinator

        port = args.port if args.port != 8787 else 8786
        print(f"repro serve: coordinator on {args.host}:{port}"
              + (f" (shared store {args.shared_store})"
                 if args.shared_store else ""))
        print("workers register via POST /v1/workers/register; start them "
              "with: repro serve --worker HOST:PORT")
        run_coordinator(host=args.host, port=port,
                        shared_store=args.shared_store)
        print("repro serve: coordinator drained")
        return 0

    print(f"repro serve: listening on {args.host}:{args.port} "
          f"({args.workers} worker(s), queue capacity "
          f"{args.queue_capacity}, mode {args.worker_mode})")
    if args.worker:
        print(f"cluster worker: registering with coordinator {args.worker}")
    print("SIGTERM/SIGINT drains gracefully: running jobs finish, "
          "new submissions get 503")
    from repro.serve.server import run_server

    run_server(host=args.host, port=args.port, workers=args.workers,
               queue_capacity=args.queue_capacity, cache=_make_cache(args),
               worker_mode=args.worker_mode,
               shared_store=args.shared_store,
               coordinator_url=args.worker,
               advertise_host=args.advertise_host)
    print("repro serve: drained")
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """Expand a ``repro submit`` shorthand into a spec document."""
    import json

    from repro.core.report import CONTENTION_MODES, TABLE1_MODES
    from repro.harness.experiments import TABLE1_PAYLOAD

    # Table I-format rows, by shorthand.
    covert_modes = {"covert": TABLE1_MODES[0],
                    "itlb": CONTENTION_MODES[0],
                    "storebuffer": CONTENTION_MODES[1]}
    if args.experiment == "job":
        if not args.job_fn:
            raise SystemExit("submit job needs --fn NAME")
        params = {"fn": args.job_fn,
                  "params": json.loads(args.params) if args.params else {}}
        kind = "job"
    elif args.experiment in covert_modes:
        payload = args.payload.encode() if args.payload else TABLE1_PAYLOAD
        params = {"fn": "covert.table1_row",
                  "params": {"mode": covert_modes[args.experiment],
                             "payload_hex": payload.hex()}}
        kind = "job"
    elif args.experiment in ("table2", "workloads"):
        # The full grid ``repro batch`` runs, so they share every key.
        params = {"names": [args.experiment], "fast": False}
        kind = "artifact"
    elif args.experiment == "lint":
        params = {}
        if args.targets:
            params["targets"] = args.targets
        if args.taint:
            params["taint"] = True
        kind = "lint"
    elif args.experiment == "trace":
        params = {"experiment": args.target or "covert"}
        kind = "trace"
    else:  # pragma: no cover -- choices= forbids this
        raise SystemExit(f"unknown submit shorthand {args.experiment!r}")
    spec = {"kind": kind, "params": params, "priority": args.priority}
    if kind not in ("artifact", "trace"):  # these refuse a seed
        spec["seed"] = args.seed
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    if args.refresh:
        spec["refresh"] = True
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import threading

    from repro.serve.client import ServeClient, ServeError

    spec = _submit_spec(args)
    client = ServeClient(host=args.host, port=args.port)
    copies = max(1, args.copies)
    records = [None] * copies
    errors = [None] * copies

    def one(i: int) -> None:
        try:
            if args.wait:
                records[i] = client.submit_and_wait(spec)
            else:
                records[i] = client.submit(spec)
        except (ServeError, OSError) as exc:
            errors[i] = exc

    if copies == 1:
        one(0)
    else:
        # Concurrent identical submissions: the server must coalesce
        # them onto one execution (the CI smoke test asserts this via
        # the /metrics 'coalesced' counter).
        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(copies)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    failures = [e for e in errors if e is not None]
    for exc in failures:
        print(f"submit failed: {exc}")
    done = [r for r in records if r is not None]
    for record in done:
        status = record.get("status")
        print(f"{record.get('id')}: {record.get('describe')} "
              f"[{status}] source={record.get('source')} "
              f"key={str(record.get('key'))[:16]}...")
        if status == "done" and args.wait and not args.json:
            print(json.dumps(record.get("result"), indent=2,
                             sort_keys=True)[:2000])
        elif status in ("failed", "timeout"):
            print(f"  error: {record.get('error')}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"spec": spec, "records": done}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if failures:
        return 1
    if args.wait and any(r.get("status") != "done" for r in done):
        return 1
    return 0


def main(argv=None) -> int:
    """CLI dispatch."""
    from repro.drivers import DEMOS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="I See Dead uops (ISCA 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "batch",
        help="run an experiment as a parallel, cached job grid",
        description="Expand an experiment into a job grid, answer "
                    "already-computed points from the content-addressed "
                    "cache, and fan the rest out over worker processes.",
    )
    p.add_argument("experiment", nargs="?", default="characterize",
                   choices=sorted(_BATCH_TITLES))
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes (1 = serial in-process)")
    p.add_argument("--fast", action="store_true",
                   help="coarser sweeps / smoke-size grids "
                        "(characterize, covert, attacks, contention)")
    p.add_argument("--cpu", default="skylake",
                   choices=["skylake", "zen", "zen2", "sunny_cove"],
                   help="CPU preset (the contention and key-extraction "
                        "grids fix their own)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result store location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the result store")
    p.add_argument("--refresh", action="store_true",
                   help="recompute everything, then update the store")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-job wall-clock budget")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="extra attempts for transient failures")
    p.add_argument("--jsonl", metavar="PATH", default=None,
                   help="write per-point results as JSON lines")
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="write per-point results as CSV")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write per-point results as one JSON document")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser(
        "profile",
        help="cProfile a small named experiment",
        description="Run a seconds-scale slice of an experiment under "
                    "cProfile and print the hottest functions by "
                    "cumulative time.",
    )
    p.add_argument("experiment", choices=sorted(DEMOS + ("characterize",)))
    p.add_argument("--top", type=int, default=20, metavar="N",
                   help="rows of the report (default 20)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "trace",
        help="run an experiment under the structured event bus",
        description="Run a seconds-scale slice of an experiment with "
                    "repro.observe attached: print an event summary, "
                    "optionally render micro-op cache occupancy heatmaps "
                    "and export a Chrome trace-event JSON timeline.",
    )
    p.add_argument("experiment", choices=DEMOS)
    p.add_argument("--chrome", metavar="PATH", default=None,
                   help="write the run as Chrome trace-event JSON "
                        "(chrome://tracing / Perfetto)")
    p.add_argument("--heatmap", action="store_true",
                   help="render per-set/way occupancy heatmaps")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not persist trace artifacts")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "lint",
        help="static µop-cache footprint analysis of the attack programs",
        description="Build the shipped attack programs, statically "
                    "verify their micro-op cache footprints and gadget "
                    "claims, and report diagnostics.  Exits nonzero on "
                    "any error-severity finding.",
    )
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="lint targets (default: all); see repro.lint.runner")
    p.add_argument("--all", action="store_true",
                   help="lint every registered target (the default when "
                        "no targets are named)")
    p.add_argument("--cross-check", action="store_true",
                   help="also run short simulations and diff predicted "
                        "vs observed dsb_fill events (XC001 on divergence)")
    p.add_argument("--taint", action="store_true",
                   help="run the secret-flow taint analysis over targets "
                        "declaring secrets (TA diagnostics, capacity "
                        "bounds) and the two-secret XC004 differential "
                        "where a secret driver exists")
    p.add_argument("--show-info", action="store_true",
                   help="include info-severity diagnostics in the report")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full report as JSON ('-' for stdout)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "synth",
        help="automated attack synthesis (repro.synth)",
        description="Seeded generate -> lint -> submit -> score search "
                    "over the attack-program space: mutation/crossover "
                    "over gadget chains and contention templates, a "
                    "staged static fitness pipeline (assemble / lint / "
                    "taint) killing most raw candidates for free, and "
                    "measured evaluation of the finalists through the "
                    "content-addressed harness -- locally, against a "
                    "running 'repro serve', or an in-process fleet.",
    )
    p.add_argument("--objective", default="bandwidth",
                   choices=["bandwidth", "capacity", "stealth"],
                   help="fitness: raw covert bandwidth, error-corrected "
                        "capacity (repro.coding), or detector-evading "
                        "bandwidth (Table-II ROC penalty)")
    p.add_argument("--budget", type=int, default=200, metavar="N",
                   help="raw candidates drawn over the whole search "
                        "(default 200)")
    p.add_argument("--seed", type=int, default=2021,
                   help="search RNG seed (same seed + budget replays "
                        "the identical search)")
    p.add_argument("--fast", action="store_true",
                   help="smoke-sized payload/detector windows and "
                        "smaller generations")
    p.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                   help="local worker processes (0 = in-process)")
    p.add_argument("--host", default="127.0.0.1",
                   help="(--port) service host")
    p.add_argument("--port", type=int, default=None, metavar="PORT",
                   help="measure finalists against a running "
                        "'repro serve' (single service or coordinator)")
    p.add_argument("--fleet", type=int, default=None, metavar="K",
                   help="boot an in-process coordinator + K workers and "
                        "measure finalists through it")
    p.add_argument("--in-flight", type=int, default=8, metavar="N",
                   help="(--port/--fleet) bounded batch concurrency "
                        "(default 8)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-measurement budget")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result store location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the result store")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the best-candidate report as JSON")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("cache", help="inspect/clear the result store")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the async experiment service (repro.serve)",
        description="Expose the harness over HTTP/JSON: POST /v1/jobs "
                    "enqueues experiment specs on a bounded priority "
                    "queue, identical concurrent submissions coalesce "
                    "onto one execution, and results stream as NDJSON. "
                    "SIGTERM drains gracefully.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker processes executing specs (default 2)")
    p.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                   help="admission queue bound; beyond it, 429 + "
                        "Retry-After (default 64)")
    p.add_argument("--worker-mode", default="process",
                   choices=["process", "thread"],
                   help="worker tier flavour (threads lose in-worker "
                        "SIGALRM timeouts; default process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result store shared with 'batch' (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result store (no warm answers)")
    p.add_argument("--coordinator", action="store_true",
                   help="run the cluster coordinator instead of a worker "
                        "service: route submissions to registered workers "
                        "by rendezvous-hashed job key, coalesce identical "
                        "fleet submissions, split sweeps, evict dead "
                        "workers (default port 8786)")
    p.add_argument("--worker", default=None, metavar="COORD",
                   help="run as a cluster worker registering with the "
                        "coordinator at COORD (host:port)")
    p.add_argument("--shared-store", default=None, metavar="DIR",
                   help="fleet-shared read-through result store directory "
                        "(workers write through to it; the coordinator "
                        "answers warm submissions from it)")
    p.add_argument("--advertise-host", default=None, metavar="HOST",
                   help="(--worker) hostname to register with the "
                        "coordinator (default: --host)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit an experiment to a running 'repro serve'",
        description="Client for the experiment service: expand a "
                    "shorthand into a spec document, POST it, optionally "
                    "wait for the result.  --copies N submits N identical "
                    "specs concurrently (they coalesce server-side onto "
                    "one execution).",
    )
    p.add_argument("experiment",
                   choices=["covert", "itlb", "storebuffer", "table2",
                            "workloads", "lint", "trace", "job"],
                   help="shorthand: covert=Table I row, itlb/storebuffer="
                        "contention covert-channel rows, table2=Table II "
                        "artifact, workloads=benign suite artifact, lint, "
                        "trace, or a raw 'job' via --fn/--params")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal and print the "
                        "result")
    p.add_argument("--copies", type=int, default=1, metavar="N",
                   help="submit N identical specs concurrently "
                        "(coalescing demo/smoke)")
    p.add_argument("--fn", dest="job_fn", default=None, metavar="NAME",
                   help="(job) registered harness function")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="(job) parameters as a JSON object")
    p.add_argument("--payload", default=None,
                   help="(covert, itlb, storebuffer) message")
    p.add_argument("--targets", nargs="*", default=None, metavar="T",
                   help="(lint) target subset")
    p.add_argument("--taint", action="store_true",
                   help="(lint) also run the secret-flow taint analysis "
                        "and the XC004 two-secret differential")
    p.add_argument("--target", default=None, metavar="NAME",
                   help="(trace) experiment name (default covert)")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--priority", type=int, default=0, metavar="0-9")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-spec execution budget")
    p.add_argument("--refresh", action="store_true",
                   help="bypass the warm cache; recompute")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write spec + records as one JSON document")
    p.set_defaults(fn=_cmd_submit)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
