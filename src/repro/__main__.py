"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the example scripts so the headline
experiments are runnable without writing any code:

- ``characterize``  -- Figures 3-7 (Section III)
- ``covert``        -- the three covert channels (Section V)
- ``spectre``       -- variant-1 + classic baseline (Section VI-A, Table II)
- ``lfence``        -- variant-2 fence comparison (Section VI-B, Figure 10)
- ``census``        -- gadget census (Section VI-A)
- ``mitigations``   -- Section VIII countermeasures
- ``workloads``     -- benign suite with DSB hit rates

Batch orchestration (``repro.harness``):

- ``batch``         -- run an experiment as a parallel, cached job grid
  (``batch attacks`` runs Tables I & II, key extraction and the
  transient variants as one cached grid; ``batch contention`` runs the
  resource x sharing-mode contention matrix from ``repro.contention``)
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
from typing import List, Optional


def _load_example(name: str):
    """Import an example script as a module (``examples/`` is not a
    package; load by path).

    Only works from a source checkout: the scripts live next to
    ``src/``, not inside the installed package.  Fails with a clear
    message -- instead of an opaque ``AttributeError`` -- when the
    layout does not match (e.g. a wheel install).
    """
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    if not path.is_file():
        raise SystemExit(
            f"example script not found: {path}\n"
            f"'python -m repro' example commands need a source checkout "
            f"(the examples/ directory is not installed). Clone the "
            f"repository, or use the self-contained 'batch' subcommand."
        )
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load example script {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cmd_characterize(args: argparse.Namespace) -> int:
    if args.json:
        # Machine-readable path: run the same sweeps through the
        # harness (serially, uncached) and write one JSON document.
        from repro.harness import outcome_records, write_json
        from repro.harness.experiments import run_characterize

        figures, outcomes, summary = run_characterize(fast=args.fast)
        print(f"characterization study: {len(figures)} figures, "
              f"{len(outcomes)} measurement points")
        path = write_json(args.json, {
            "experiment": "characterize",
            "fast": args.fast,
            "points": outcome_records(outcomes),
        })
        print(summary.format())
        print(f"wrote {path}")
        return 0
    argv = ["--fast"] if args.fast else []
    _load_example("characterize_uop_cache").main(argv)
    return 0


def _cmd_covert(args: argparse.Namespace) -> int:
    _load_example("covert_channel").main(
        [args.message] if args.message else []
    )
    return 0


def _cmd_spectre(args: argparse.Namespace) -> int:
    _load_example("spectre_uop_cache").main(
        [args.secret] if args.secret else []
    )
    return 0


def _cmd_lfence(_args: argparse.Namespace) -> int:
    _load_example("lfence_bypass").main()
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    _load_example("gadget_census").main([str(args.functions)])
    return 0


def _cmd_mitigations(_args: argparse.Namespace) -> int:
    _load_example("mitigations_demo").main()
    return 0


def _workload_rows(results) -> List[dict]:
    rows = []
    for name, r in results.items():
        rows.append({
            "name": name,
            "cycles": r["cycles"] if isinstance(r, dict) else r.cycles,
            "ipc": r["ipc"] if isinstance(r, dict) else r.ipc,
            "dsb_hit_rate": (
                r["dsb_hit_rate"] if isinstance(r, dict) else r.dsb_hit_rate
            ),
            "dsb_uop_fraction": (
                r["dsb_uop_fraction"] if isinstance(r, dict)
                else r.dsb_uop_fraction
            ),
            "mispredict_rate": (
                r["mispredict_rate"] if isinstance(r, dict)
                else r.mispredict_rate
            ),
        })
    return rows


def _print_workload_table(config, rows) -> None:
    print(f"workload suite on {config.name} "
          f"({config.uop_cache_capacity}-uop cache):")
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


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.cpu.config import CPUConfig
    from repro.workloads import run_suite

    config = getattr(CPUConfig, args.cpu)()
    results = run_suite(config, scale=args.scale)
    rows = _workload_rows(results)
    _print_workload_table(config, rows)
    if args.json:
        from repro.harness import write_json

        path = write_json(args.json, {
            "experiment": "workloads",
            "cpu": args.cpu,
            "scale": args.scale,
            "workloads": rows,
        })
        print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# Batch harness


def _make_cache(args: argparse.Namespace):
    from repro.harness import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)  # None root -> default location


def _runner_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        workers=args.jobs,
        cache=_make_cache(args),
        timeout=args.timeout,
        retries=args.retries,
        refresh=args.refresh,
    )


def _export_artifacts(args: argparse.Namespace, experiment: str, outcomes,
                      summary, extra=None) -> None:
    from repro.harness import outcome_records, write_csv, write_json, write_jsonl

    records = outcome_records(outcomes)
    if args.jsonl:
        print(f"wrote {write_jsonl(args.jsonl, records)}")
    if args.csv:
        print(f"wrote {write_csv(args.csv, records)}")
    if args.json:
        doc = {"experiment": experiment, "points": records}
        if extra:
            doc.update(extra)
        print(f"wrote {write_json(args.json, doc)}")


def _batch_characterize(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_characterize

    figures, outcomes, summary = run_characterize(
        fast=args.fast, **_runner_kwargs(args)
    )
    fig3a = figures["fig3a_size"]
    fig3b = figures["fig3b_associativity"]
    fig6 = figures["fig6_smt"]
    geo = figures["fig7_geometry"]
    print("characterization study (Figures 3-7):")
    print(f"  fig3a: capacity knee at {fig3a.knee()} regions "
          f"({len(fig3a.x)} points; paper: 256 lines)")
    print(f"  fig3b: associativity knee at {fig3b.knee()} ways "
          f"({len(fig3b.x)} points; paper: 8 ways)")
    print(f"  fig4:  {sum(len(s) for s in figures['fig4_placement'].dsb_uops.values())} "
          "placement cells")
    print(f"  fig5:  {len(figures['fig5_replacement'].main_iters)}x"
          f"{len(figures['fig5_replacement'].evict_iters)} replacement matrix")
    print(f"  fig6:  SMT knee {fig6.knee_smt()} vs single-thread "
          f"{fig6.knee_single()} regions (static partitioning)")
    print(f"  fig7:  max cross-thread contention "
          f"t1={max(geo.sweep_t1_mite):.1f}, t2={max(geo.sweep_t2_mite):.1f}")
    _export_artifacts(args, "characterize", outcomes, summary)
    print(summary.format())
    return 0


def _batch_covert(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_table1

    payload = (args.payload or "uop cache leaks!").encode()
    rows, outcomes, summary = run_table1(payload, **_runner_kwargs(args))
    print("Table I -- bandwidth and error rate (simulated):")
    print(f"  {'Mode':32s} {'BitErr':>8s} {'Kbit/s':>10s} {'w/ECC':>10s}")
    for row in rows:
        print("  " + row.format())
    _export_artifacts(args, "covert", outcomes, summary)
    print(summary.format())
    return 0


def _batch_workloads(args: argparse.Namespace) -> int:
    from repro.cpu.config import CPUConfig
    from repro.harness.experiments import run_workloads

    config = getattr(CPUConfig, args.cpu)()
    results, outcomes, summary = run_workloads(
        config=config, scale=args.scale, **_runner_kwargs(args)
    )
    _print_workload_table(config, _workload_rows(results))
    _export_artifacts(args, "workloads", outcomes, summary)
    print(summary.format())
    return 0


def _batch_attacks(args: argparse.Namespace) -> int:
    from repro.harness.attacks import run_attacks

    kwargs = _runner_kwargs(args)
    if args.payload:
        kwargs["payload"] = args.payload.encode()
    results, outcomes, summary = run_attacks(fast=args.fast, **kwargs)

    print("Attack evaluation (Tables I & II, key extraction, variants):")
    print(f"  {'Mode':32s} {'BitErr':>8s} {'Kbit/s':>10s} {'w/ECC':>10s}")
    for row in results["table1"]:
        print("  " + row.format())
    for row in results["contention"]:  # non-DSB channels, same format
        print("  " + row.format())
    print()
    print(f"  {'Attack':24s} {'Seconds':>11s} {'LLC refs':>12s} "
          f"{'LLC miss':>12s} {'DSB penalty':>14s} {'Acc':>7s}")
    for row in results["table2"]:
        print("  " + row.format())
    print()
    exact = sum(1 for r in results["keyextract"] if r["exact"])
    print(f"  key extraction: {exact}/{len(results['keyextract'])} exact")
    for r in results["keyextract"]:
        print(f"    {r['nbits']}-bit key {r['true_key']:#x} -> "
              f"{r['recovered_key']:#x} ({r['bit_errors']} bit errors)")
    bti = results["bti"][0]
    print(f"  BTI (variant 2): {bti['byte_accuracy'] * 100:.1f}% bytes, "
          f"{bti['bit_errors']} bit errors")
    jt = results["jumptable"][0]
    print(f"  jump table (multi-bit v1): {jt['byte_accuracy'] * 100:.1f}% "
          f"bytes, {jt['bit_errors']} bit errors")
    fences = {r["fence"]: r["signal"] for r in results["lfence"]}
    print(f"  fence signal (Fig 10): none={fences['nf']:.1f} "
          f"lfence={fences['lf']:.1f} cpuid={fences['cp']:.1f} cycles")
    _export_artifacts(args, "attacks", outcomes, summary)
    print(summary.format())
    return 0


def _batch_contention(args: argparse.Namespace) -> int:
    from repro.harness.contention import format_matrix, run_contention

    matrix, outcomes, summary = run_contention(
        fast=args.fast, **_runner_kwargs(args)
    )
    n_cells = sum(
        len(cells) for per_mode in matrix.values()
        for cells in per_mode.values()
    )
    print(f"contention matrix ({len(matrix)} resources, {n_cells} cells; "
          "slowdown = (contended - baseline) / baseline):")
    print(format_matrix(matrix))
    _export_artifacts(args, "contention", outcomes, summary,
                      extra={"matrix": matrix})
    print(summary.format())
    return 0


_BATCH_EXPERIMENTS = {
    "attacks": _batch_attacks,
    "characterize": _batch_characterize,
    "contention": _batch_contention,
    "covert": _batch_covert,
    "workloads": _batch_workloads,
}


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        return _BATCH_EXPERIMENTS[args.experiment](args)
    except RuntimeError as exc:
        # Job failures (timeouts, exhausted retries) arrive here with
        # the first failing job's label and error already formatted.
        print(f"batch {args.experiment} failed: {exc}")
        return 1


# ----------------------------------------------------------------------
# Profiler


def _profile_covert() -> None:
    from repro.core.covert import ChannelParams, CovertChannel
    from repro.cpu.config import CPUConfig

    # Reset-loop shape: one cold transmit, then repeat trials.
    channel = CovertChannel(ChannelParams(), config=CPUConfig.skylake())
    channel.transmit(b"uop")
    for _ in range(3):
        channel.reset()
        channel.transmit(b"uop")


def _profile_spectre() -> None:
    from repro.core.transient import UopCacheSpectreV1
    from repro.cpu.config import CPUConfig

    UopCacheSpectreV1(secret=b"\xa5\x3c", config=CPUConfig.skylake()).leak()


def _profile_classic() -> None:
    from repro.core.transient import ClassicSpectreV1
    from repro.cpu.config import CPUConfig

    ClassicSpectreV1(secret=b"\xa5\x3c", config=CPUConfig.skylake()).leak()


def _profile_smt() -> None:
    from repro.core.smtchannel import SMTChannel, SMTChannelParams
    from repro.cpu.config import CPUConfig

    SMTChannel(SMTChannelParams(), config=CPUConfig.zen()).transmit(b"u")


def _profile_keyextract() -> None:
    from repro.core.keyextract import KeyExtractor
    from repro.cpu.config import CPUConfig

    KeyExtractor(nbits=8, config=CPUConfig.zen()).extract(0xB5)


def _profile_characterize() -> None:
    from repro.core.characterize import size_point
    from repro.cpu.config import CPUConfig

    size_point(CPUConfig.skylake(), 64, 8)


#: Small named workloads for ``repro profile`` (seconds, not minutes;
#: each is the hot loop of the matching full command).
_PROFILE_TARGETS = {
    "covert": _profile_covert,
    "spectre": _profile_spectre,
    "classic": _profile_classic,
    "smt": _profile_smt,
    "keyextract": _profile_keyextract,
    "characterize": _profile_characterize,
}


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.cpu.profiling import PhaseTimer

    target = _PROFILE_TARGETS[args.experiment]

    # Pass 1: per-phase wall clock (pipeline terms), without cProfile's
    # tracing overhead skewing the split.
    with PhaseTimer() as timer:
        t0 = time.perf_counter()
        target()
        wall = time.perf_counter() - t0
    print(f"profile: {args.experiment}")
    print(f"phase breakdown (cumulative seconds, {wall:.3f}s wall):")
    for phase, seconds, share in timer.report():
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

#: Names accepted by ``repro trace`` / ``repro submit trace`` -- the
#: implementations live in :mod:`repro.observe.capture` so the serving
#: layer's worker processes can run them too.
_TRACE_EXPERIMENTS = ("classic", "covert", "keyextract", "smt", "spectre")


def _cmd_trace(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from repro.harness.job import CACHE_SCHEMA_VERSION, canonical_json
    from repro.observe import (
        capture_trace,
        chrome_trace,
        validate_chrome_trace,
        write_chrome_trace,
    )

    recorder, snaps = capture_trace(args.experiment)

    print(f"trace: {args.experiment} -- {len(recorder.events)} events")
    for kind, count in sorted(recorder.counts().items()):
        print(f"  {kind:16s} {count:8d}")
    by_source = recorder.uops_by_source()
    if by_source:
        rendered = ", ".join(
            f"{source}={n}" for source, n in sorted(by_source.items())
        )
        print(f"  uops by source: {rendered}")

    if args.heatmap:
        for snap in snaps:
            print()
            print(snap.render_text())

    doc = chrome_trace(recorder.events, process_name=f"repro:{args.experiment}")
    problems = validate_chrome_trace(doc)
    if problems:
        print("chrome trace export is invalid:")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1
    if args.chrome:
        write_chrome_trace(args.chrome, doc)
        print(f"wrote {args.chrome} ({len(doc['traceEvents'])} trace events)")

    cache = _make_cache(args)
    if cache is not None:
        key = hashlib.sha256(
            canonical_json(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "kind": "trace",
                    "experiment": args.experiment,
                }
            )
        ).hexdigest()
        cache.put_artifact(key, "events.json", json.dumps(recorder.as_records()))
        cache.put_artifact(key, "chrome.json", json.dumps(doc))
        for i, snap in enumerate(snaps):
            cache.put_artifact(
                key, f"heatmap-{i}.json", json.dumps(snap.to_json())
            )
        print(
            f"cached {2 + len(snaps)} artifact(s) under "
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

    if args.experiment == "job":
        if not args.job_fn:
            raise SystemExit("submit job needs --fn NAME")
        params = {"fn": args.job_fn,
                  "params": json.loads(args.params) if args.params else {}}
        kind = "job"
    elif args.experiment == "covert":
        payload = (args.payload or "uop cache leaks!").encode().hex()
        params = {"fn": "covert.table1_row",
                  "params": {"mode": "Same address space",
                             "payload_hex": payload}}
        kind = "job"
    elif args.experiment == "itlb":
        payload = (args.payload or "uop cache leaks!").encode().hex()
        params = {"fn": "covert.table1_row",
                  "params": {"mode": "Cross-thread iTLB (SMT)",
                             "payload_hex": payload}}
        kind = "job"
    elif args.experiment == "storebuffer":
        payload = (args.payload or "uop cache leaks!").encode().hex()
        params = {"fn": "covert.table1_row",
                  "params": {"mode": "Cross-thread store buffer (SMT)",
                             "payload_hex": payload}}
        kind = "job"
    elif args.experiment == "table2":
        params = {"fn": "attacks.table2_row",
                  "axes": {"attack": ["classic", "uop_cache"]},
                  "base": {"secret_hex": "a53c"}}
        kind = "sweep"
    elif args.experiment == "workloads":
        params = {"fn": "workloads.run",
                  "axes": {"name": ["branchy", "hash_loop", "hot_loop",
                                    "interpreter", "large_code", "matvec",
                                    "pointer_chase", "syscall_heavy"]},
                  "base": {"scale": args.scale}}
        kind = "sweep"
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
    spec = {"kind": kind, "params": params, "seed": args.seed,
            "priority": args.priority}
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
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="I See Dead uops (ISCA 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="Figures 3-7")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write machine-readable results (runs via "
                        "the harness)")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("covert", help="Section V covert channels")
    p.add_argument("message", nargs="?", default=None)
    p.set_defaults(fn=_cmd_covert)

    p = sub.add_parser("spectre", help="variant-1 vs classic Spectre")
    p.add_argument("secret", nargs="?", default=None)
    p.set_defaults(fn=_cmd_spectre)

    p = sub.add_parser("lfence", help="variant-2 / Figure 10")
    p.set_defaults(fn=_cmd_lfence)

    p = sub.add_parser("census", help="gadget census")
    p.add_argument("functions", nargs="?", type=int, default=200)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("mitigations", help="Section VIII countermeasures")
    p.set_defaults(fn=_cmd_mitigations)

    p = sub.add_parser("workloads", help="benign suite + DSB hit rates")
    p.add_argument("--cpu", default="skylake",
                   choices=["skylake", "zen", "zen2", "sunny_cove"])
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write machine-readable results")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser(
        "batch",
        help="run an experiment as a parallel, cached job grid",
        description="Expand an experiment into a job grid, answer "
                    "already-computed points from the content-addressed "
                    "cache, and fan the rest out over worker processes.",
    )
    p.add_argument("experiment", nargs="?", default="characterize",
                   choices=sorted(_BATCH_EXPERIMENTS))
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes (1 = serial in-process)")
    p.add_argument("--fast", action="store_true",
                   help="coarser sweeps / smoke-size grids "
                        "(characterize, attacks)")
    p.add_argument("--cpu", default="skylake",
                   choices=["skylake", "zen", "zen2", "sunny_cove"],
                   help="CPU preset (workloads)")
    p.add_argument("--scale", type=int, default=1, help="(workloads)")
    p.add_argument("--payload", default=None, help="(covert, attacks)")
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
    p.add_argument("experiment", choices=sorted(_PROFILE_TARGETS))
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
    p.add_argument("experiment", choices=sorted(_TRACE_EXPERIMENTS))
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
                        "sweep, workloads=benign suite sweep, lint, "
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
    p.add_argument("--scale", type=int, default=1, help="(workloads)")
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
