"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload attack-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` additionally runs traced and prints
every per-layer metric, with the traced-vs-untraced difference as
``trace.overhead_frac``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import attack_cold, characterize_sweep, serve_mix

    workloads = {"attack-cold": attack_cold.measure,
                 "characterize-sweep": characterize_sweep.measure,
                 "serve-mix": serve_mix.measure}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    report = workloads[args.workload](args.seed, args.seconds,
                                      bool(args.trace), WORK)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in ("cold", "warm"):
        s = report["samples"][name]
        print(f"  {name} ops: n={s['n']}  p50={_fmt(1e3 * s['p50'])} ms  "
              f"tail=p{s['tail_pct']:.1f} {_fmt(1e3 * s['tail'])} ms")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in report["end_to_end"].items():
        print(f"  {name} = {_fmt(value)} {units[name]}")

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            value = report["per_layer"].get(m["name"])
            note = ""
            if value is None:
                value, note = 0.0, "  (layer not exercised by this workload)"
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']} = {_fmt(value)} {m['unit']}{note}")
    else:
        missing = set(units) - set(report["end_to_end"])
        if missing:
            print(f"perfbench: metrics not measured: {sorted(missing)}",
                  file=sys.stderr)
            return 1
        metrics = {name: {"value": report["end_to_end"][name],
                          "unit": units[name]} for name in units}

    digest = hashlib.sha256(
        json.dumps(report["sim_passes"], sort_keys=True).encode()).hexdigest()
    print(f"  sim digest {digest[:16]} over {len(report['sim_passes'])} "
          f"pass(es); first pass: {json.dumps(report['sim_passes'][0])}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  failed_frac = {_fmt(failed / attempted)} ({failed}/{attempted})")
    for note in report.get("notes", []):
        print(f"  {note}")
    for problem in report["problems"][:20]:
        print(f"  problem: {problem}")
    correct = failed == 0 and not report["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
