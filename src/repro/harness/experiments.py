"""Built-in experiment catalogue for the batch harness, and the one
definition of every paper figure and table it reproduces.

Registers one job function per *measurement point* of the headline
experiments -- the Section III characterization figures (3-7), the
covert-channel results (Table I, the Section IV signal, Figure 9,
Section VIII) and the benign workload suite (the attack jobs, Table II
among them, live in :mod:`repro.harness.attacks`; the contention cells
in :mod:`repro.harness.contention`).

:data:`ARTIFACTS` defines each result once: Figures 3-7
(:data:`FIGURES`), the covert-channel results, the attack evaluation
(:data:`ATTACKS`), the contention matrix and the workload suite.  An
:class:`Artifact` holds its fast (smoke) and full (paper-resolution)
grids as named :class:`~repro.harness.sweep.Sweep` s, one assemble
step that turns per-point results into the figure's result dataclass
or the table's rows, and the paper's claims as named :class:`Claim`
checks citing their section.  ``repro batch`` (as a serve
``artifact`` spec), the examples and the benchmarks all run them
through :func:`artifact_sweeps` and :func:`run_sweeps`;
``tests/test_golden_artifacts.py`` pins the output.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core import characterize, microbench
from repro.core.characterize import (
    PartitionGeometryResult,
    PlacementResult,
    ReplacementResult,
    SeriesResult,
    SMTPartitionResult,
)
from repro.contention.session import MODES as CONTENTION_CELL_MODES
from repro.contention.templates import RESOURCES, VARIANTS, contention_config
from repro.cpu.config import CPUConfig
from repro.harness.executor import (
    JobOutcome, RunSummary, raise_on_failure, run_jobs,
)
from repro.harness.job import Job, register
from repro.harness.sweep import Sweep

#: Default Table I payload.
TABLE1_PAYLOAD = b"uop cache leaks!"

#: Default Table II secret (also leaked by the BTI and jump-table jobs).
TABLE2_SECRET = b"\xa5\x3c\x5a\xc3"

#: The Figure 9 payload.
FIG9_PAYLOAD = b"\x5a\xa5\x3c\xc3"

#: Default key-extraction grid: 16-bit exponents with the MSB set.
KEYEXTRACT_KEYS = (0xB5A3, 0x9C3D, 0xF00F)

# ----------------------------------------------------------------------
# Characterization point jobs (Figures 3-7)


@register(
    "characterize.size",
    program_builder=lambda c, p: microbench.size_loop(p["n"], p["iters"]),
)
def _job_size(config: CPUConfig, seed: int, n: int, iters: int) -> float:
    return characterize.size_point(config, n, iters)


@register(
    "characterize.associativity",
    program_builder=lambda c, p: microbench.assoc_loop(p["n"], p["iters"]),
)
def _job_assoc(config: CPUConfig, seed: int, n: int, iters: int) -> float:
    return characterize.associativity_point(config, n, iters)


@register(
    "characterize.placement",
    program_builder=lambda c, p: microbench.placement_loop(
        p["nregions"], p["uops"] - 1, p["iters"]
    ),
)
def _job_placement(
    config: CPUConfig, seed: int, nregions: int, uops: int, iters: int
) -> float:
    return characterize.placement_point(config, nregions, uops, iters)


@register(
    "characterize.replacement",
    program_builder=lambda c, p: microbench.replacement_pair(),
)
def _job_replacement(
    config: CPUConfig, seed: int, main_iters: int, evict_iters: int,
    rounds: int,
) -> float:
    return characterize.replacement_point(config, main_iters, evict_iters, rounds)


@register(
    "characterize.smt_partitioning",
    program_builder=lambda c, p: microbench.smt_pair(
        p["n"], p["iters"], t2_kind=p["t2_kind"]
    ),
)
def _job_smt(
    config: CPUConfig, seed: int, n: int, iters: int, t2_kind: str
) -> Dict[str, float]:
    return characterize.smt_partitioning_point(config, n, iters, t2_kind)


@register(
    "characterize.geometry_sweep",
    program_builder=lambda c, p: microbench.partition_probe_pair(
        t1_set=p["set_index"], iters=p["iters"]
    ),
)
def _job_geometry_sweep(
    config: CPUConfig, seed: int, set_index: int, iters: int
) -> Dict[str, float]:
    return characterize.geometry_sweep_point(config, set_index, iters)


@register(
    "characterize.geometry_groups",
    program_builder=lambda c, p: microbench.eight_block_regions(
        p["n_groups"], p["iters"]
    ),
)
def _job_geometry_groups(
    config: CPUConfig, seed: int, n_groups: int, iters: int
) -> Dict[str, float]:
    return characterize.geometry_groups_point(config, n_groups, iters)


# ----------------------------------------------------------------------
# Table I rows


@register("covert.table1_row")
def _job_table1_row(
    config: CPUConfig, seed: int, mode: str, payload_hex: str
) -> Dict[str, Any]:
    # Imported lazily: report pulls in every channel implementation,
    # which worker processes only need when they actually run this job.
    from repro.core.report import table1_row

    row = table1_row(mode, bytes.fromhex(payload_hex), noise_seed=seed)
    return {
        "mode": row.mode,
        "error_rate": row.error_rate,
        "bandwidth_kbps": row.bandwidth_kbps,
        "corrected_bandwidth_kbps": row.corrected_bandwidth_kbps,
    }


@register("covert.signal")
def _job_signal(
    config: CPUConfig, seed: int, calibration_rounds: int
) -> Dict[str, Any]:
    """The tiger probe's hit and miss timing (Section IV)."""
    from repro.core.covert import ChannelParams, CovertChannel

    timing = CovertChannel(ChannelParams(
        calibration_rounds=calibration_rounds), config=config).calibrate()
    return {k: getattr(timing, k) for k in
            ("hit_mean", "miss_mean", "delta", "delta_sd", "separable")}


@register("covert.tuning_point")
def _job_tuning_point(
    config: CPUConfig, seed: int, nsets: int, nways: int, samples: int,
    payload_hex: str,
) -> Dict[str, float]:
    """One Figure 9 point: one transmit under a noise model seeded by
    ``seed``."""
    from repro.core.covert import ChannelParams, CovertChannel
    from repro.cpu.noise import NoiseModel

    report = CovertChannel(
        ChannelParams(nsets=nsets, nways=nways, samples=samples),
        config=config,
        noise=NoiseModel(evict_prob=0.02, jitter_sd=30.0, seed=seed),
    ).transmit(bytes.fromhex(payload_hex))
    return {"bandwidth_kbps": report.bandwidth_kbps,
            "error_rate": report.error_rate}


@register("mitigations.crossdomain")
def _job_crossdomain(
    config: CPUConfig, seed: int, payload_hex: str
) -> Dict[str, Any]:
    """The user/kernel channel's signal, bit error rate and transmit
    cycles (Section VIII)."""
    from repro.core.crossdomain import CrossDomainChannel

    chan = CrossDomainChannel(config=config)
    delta = chan.calibrate().delta
    report = chan.transmit(bytes.fromhex(payload_hex))
    return {"signal_delta": delta, "error_rate": report.error_rate,
            "kernel_cycles": report.total_cycles}


# ----------------------------------------------------------------------
# Workload suite


def _workload_program(config: CPUConfig, params) -> Any:
    from repro.workloads.suite import build_workload

    return build_workload(params["name"], params["scale"])


@register("workloads.run", program_builder=_workload_program)
def _job_workload(
    config: CPUConfig, seed: int, name: str, scale: int
) -> Dict[str, Any]:
    from repro.workloads.suite import run_workload

    result = run_workload(name, config, scale)
    return {
        "name": result.name,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "dsb_hit_rate": result.dsb_hit_rate,
        "dsb_uop_fraction": result.dsb_uop_fraction,
        "mispredict_rate": result.mispredict_rate,
        "counters": result.counters.as_dict(),
    }


# ----------------------------------------------------------------------
# The paper artifacts: one definition per figure and table


class Claim(NamedTuple):
    """One claim the paper makes about an artifact, as a named check.

    ``holds`` takes the assembled artifact.  Every claim is worded so
    that it holds on the fast grid and on the full grid alike.
    """

    name: str
    section: str
    holds: Callable[[Any], bool]


class Artifact(NamedTuple):
    """One paper figure or table.

    ``grid(config, fast)`` returns the named sweeps of the fast
    (smoke-sized) or the full (paper-resolution) grid; an artifact
    without a fast grid returns none.  ``assemble(sweeps, results)``
    builds the figure's result dataclass or the table's rows from the
    per-point results (one flat list per sweep, in grid order).
    """

    name: str
    sweeps: Tuple[str, ...]
    grid: Callable[[CPUConfig, bool], Dict[str, Sweep]]
    assemble: Callable[[Dict[str, Sweep], Dict[str, List[Any]]], Any]
    claims: Tuple[Claim, ...]


def _after(xs: Sequence[int], ys: Sequence[float], x: int) -> float:
    """The y value at the first measured point above ``x``."""
    return next(y for xi, y in zip(xs, ys) if xi > x)


def _rows(flat: List[Any], width: int) -> List[List[Any]]:
    """A row-major grid's flat results, one list per row."""
    return [flat[i:i + width] for i in range(0, len(flat), width)]


# Figure 3a -- size

def _fig3a_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    n, iters = (range(32, 385, 32), 8) if fast else (range(16, 385, 16), 10)
    return {"fig3a_size": Sweep("characterize.size", axes={"n": list(n)},
                                base={"iters": iters}, config=config)}


def _fig3a_assemble(sweeps, results) -> SeriesResult:
    return SeriesResult(
        list(sweeps["fig3a_size"].axes["n"]), results["fig3a_size"],
        "32-byte regions in loop", "legacy-decode uops/iter",
    )


_FIG3A_CLAIMS = (
    Claim("the capacity knee lies at 256-288 regions (256 lines)",
          "§III, Fig. 3a",
          lambda r: r.knee() is not None and 256 <= r.knee() <= 288),
    Claim("loops of at most 224 regions deliver < 4 legacy uops/iter",
          "§III, Fig. 3a",
          lambda r: all(y < 4 for x, y in zip(r.x, r.y) if x <= 224)),
)


# Figure 3b -- associativity

def _fig3b_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    return {"fig3b_associativity": Sweep(
        "characterize.associativity", axes={"n": list(range(1, 15))},
        base={"iters": 8 if fast else 10}, config=config)}


def _fig3b_assemble(sweeps, results) -> SeriesResult:
    return SeriesResult(
        list(sweeps["fig3b_associativity"].axes["n"]),
        results["fig3b_associativity"],
        "same-set regions in loop", "legacy-decode uops/iter",
    )


_FIG3B_CLAIMS = (
    Claim("8 ways: up to 8 same-set regions stay under 2 legacy uops/iter, "
          "10 or more exceed it",
          "§III, Fig. 3b",
          lambda r: max(y for x, y in zip(r.x, r.y) if x <= 8) < 2
          < min(y for x, y in zip(r.x, r.y) if x >= 10)),
)


# Figure 4 -- placement rules

def _fig4_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    uops, iters = (range(2, 25, 2), 8) if fast else (range(1, 25), 10)
    return {"fig4_placement": Sweep(
        "characterize.placement",
        axes={"nregions": [2, 4, 8], "uops": list(uops)},
        base={"iters": iters}, config=config)}


def _fig4_assemble(sweeps, results) -> PlacementResult:
    regions = list(sweeps["fig4_placement"].axes["nregions"])
    uop_counts = list(sweeps["fig4_placement"].axes["uops"])
    rows = _rows(results["fig4_placement"], len(uop_counts))
    return PlacementResult(regions, uop_counts, dict(zip(regions, rows)))


def _fig4_series(r: PlacementResult, nregions: int) -> Dict[int, float]:
    return dict(zip(r.uops_per_region, r.dsb_uops[nregions]))


def _fig4_cap(nregions: int, cap: int, factor: float):
    """At ``cap`` uops/region a ``nregions`` loop delivers ``factor``
    times more than at the next measured point above ``cap``."""
    def holds(r: PlacementResult) -> bool:
        after = _after(r.uops_per_region, r.dsb_uops[nregions], cap)
        return _fig4_series(r, nregions)[cap] > factor * max(after, 1)
    return holds


def _fig4_two_regions(r: PlacementResult) -> bool:
    return _fig4_cap(2, 18, 5)(r) and _fig4_series(r, 2)[18] > 30


def _fig4_eight_regions(r: PlacementResult) -> bool:
    s8 = _fig4_series(r, 8)
    return _fig4_cap(8, 6, 2)(r) and s8[6] > 40 and s8[6] > 2 * s8[12]


_FIG4_CLAIMS = (
    Claim("a region holds at most 18 uops: 2-region loops stream > 30 "
          "DSB uops/iter at 18 uops/region, > 5x the next point above 18",
          "§III, Fig. 4", _fig4_two_regions),
    Claim("a region spans at most 3 ways: 4-region loops deliver > 1.5x "
          "more at 12 uops/region than at the next point above 12",
          "§III, Fig. 4", _fig4_cap(4, 12, 1.5)),
    Claim("8-region loops fill one 6-uop line per way: > 40 DSB uops/iter "
          "at 6 uops/region, > 2x the next point above 6 and the point at 12",
          "§III, Fig. 4", _fig4_eight_regions),
)


# Figure 5 -- replacement policy

def _fig5_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    if fast:
        main, evict, rounds = [1, 2, 4, 8, 12], [0, 2, 4, 8, 12], 10
    else:
        main, evict, rounds = list(range(1, 13)), list(range(0, 13)), 12
    return {"fig5_replacement": Sweep(
        "characterize.replacement",
        axes={"main_iters": main, "evict_iters": evict},
        base={"rounds": rounds}, config=config)}


def _fig5_assemble(sweeps, results) -> ReplacementResult:
    mains = list(sweeps["fig5_replacement"].axes["main_iters"])
    evicts = list(sweeps["fig5_replacement"].axes["evict_iters"])
    return ReplacementResult(
        mains, evicts, _rows(results["fig5_replacement"], len(evicts)))


_FIG5_CLAIMS = (
    Claim("without an evicting loop every main loop stays resident "
          "(> 40 DSB uops/pass)",
          "§III, Fig. 5",
          lambda r: all(r.cell(m, 0) > 40 for m in r.main_iters)),
    Claim("hotness diagonal: 4 evicting passes evict a 1-pass main loop "
          "(< 10) but not an 8- or 12-pass one (> 35)",
          "§III, Fig. 5",
          lambda r: r.cell(1, 4) < 10 and r.cell(8, 4) > 35
          and r.cell(12, 4) > 35),
    Claim("more evicting passes evict more: M=8 keeps less at E=12 than "
          "at E=4",
          "§III, Fig. 5",
          lambda r: r.cell(8, 12) < r.cell(8, 4)),
    Claim("hotter main loops keep more: at E=8 retention never falls as "
          "M grows",
          "§III, Fig. 5",
          lambda r: all(r.cell(a, 8) <= r.cell(b, 8) for a, b in
                        zip(r.main_iters, r.main_iters[1:]))),
)


# Figure 6 -- SMT partitioning (6a: T2 pauses, 6b: T2 pointer-chases)

def _fig6_sweep(config: CPUConfig, fast: bool, t2_kind: str) -> Sweep:
    n = range(64, 289, 64) if fast else range(32, 289, 32)
    return Sweep("characterize.smt_partitioning", axes={"n": list(n)},
                 base={"iters": 8, "t2_kind": t2_kind}, config=config)


def _fig6_assembler(name: str):
    def assemble(sweeps, results) -> SMTPartitionResult:
        points = results[name]
        return SMTPartitionResult(
            list(sweeps[name].axes["n"]),
            [p["single"] for p in points],
            [p["smt"] for p in points],
        )
    return assemble


_FIG6_CLAIMS = (
    Claim("single-threaded, the capacity knee is at 256 regions",
          "§III, Fig. 6", lambda r: r.knee_single() == 256),
    Claim("a co-resident thread halves the knee (static partitioning)",
          "§III, Fig. 6",
          lambda r: r.knee_smt() is not None
          and 2 * r.knee_smt() == r.knee_single()),
    Claim("loops under 128 regions stream in SMT (< 5 legacy uops/iter); "
          "loops of 129-192 stream alone (< 5) and thrash in SMT (> 50)",
          "§III, Fig. 6",
          lambda r: all(y < 5 for x, y in zip(r.sizes, r.smt) if x < 128)
          and all(st < 5 and smt > 50 for x, st, smt in
                  zip(r.sizes, r.single_thread, r.smt) if 128 < x <= 192)),
)


# Figure 7 -- partition geometry

def _fig7_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    if fast:
        sets, groups = range(0, 32, 8), [8, 16, 20, 32, 36]
    else:
        sets, groups = range(0, 32, 2), range(4, 37, 4)
    return {
        "fig7_sweep": Sweep("characterize.geometry_sweep",
                            axes={"set_index": list(sets)},
                            base={"iters": 8}, config=config),
        "fig7_groups": Sweep("characterize.geometry_groups",
                             axes={"n_groups": list(groups)},
                             base={"iters": 8}, config=config),
    }


def _fig7_assemble(sweeps, results) -> PartitionGeometryResult:
    sweep_points = results["fig7_sweep"]
    group_points = results["fig7_groups"]
    return PartitionGeometryResult(
        list(sweeps["fig7_sweep"].axes["set_index"]),
        [p["t1"] for p in sweep_points],
        [p["t2"] for p in sweep_points],
        list(sweeps["fig7_groups"].axes["n_groups"]),
        [p["single"] for p in group_points],
        [p["smt"] for p in group_points],
    )


def _fig7_groups_fit(groups: int, thread: str):
    """``groups`` 8-way groups stream (< 80 legacy uops/iter) and the
    next measured group count thrashes (> 300)."""
    def holds(r: PartitionGeometryResult) -> bool:
        ys = r.groups_single if thread == "single" else r.groups_smt
        fit = max(n for n, y in zip(r.group_counts, ys) if y < 80)
        return (fit == groups
                and _after(r.group_counts, ys, groups) > 300)
    return holds


_FIG7_CLAIMS = (
    Claim("no way partitioning: wherever T1 probes, neither thread "
          "misses (< 5 legacy uops/iter)",
          "§III, Fig. 7a",
          lambda r: max(r.sweep_t1_mite) < 5 and max(r.sweep_t2_mite) < 5),
    Claim("32 8-way groups stream single-threaded; the next count thrashes",
          "§III, Fig. 7b", _fig7_groups_fit(32, "single")),
    Claim("16 8-way groups stream in SMT mode (16 private sets per "
          "thread); the next count thrashes",
          "§III, Fig. 7b", _fig7_groups_fit(16, "smt")),
)


# Table I -- covert-channel bandwidth and error rate, and the contention
# suite's two non-DSB channels (iTLB, store buffer) as extra rows in the
# same format, through the same job function

def _covert_grid(name: str):
    def grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
        # Imported lazily, as in the job function.
        from repro.core.report import CONTENTION_MODES, TABLE1_MODES

        modes = TABLE1_MODES if name == "table1" else CONTENTION_MODES
        return {name: Sweep(
            "covert.table1_row", axes={"mode": list(modes)},
            base={"payload_hex": (b"u" if fast else TABLE1_PAYLOAD).hex()},
            config=config, seed=17, tag=name)}
    return grid


def table1_rows(points: List[Dict[str, Any]]) -> List[Any]:
    """:class:`Table1Row` s from ``covert.table1_row`` results."""
    from repro.core.report import Table1Row

    return [Table1Row(**point) for point in points]


# The rows come in paper order, same address space first.
_TABLE1_CLAIMS = (
    Claim("the same-address-space channel outpaces the user/kernel one",
          "§V, Table I",
          lambda rows: rows[0].bandwidth_kbps > rows[1].bandwidth_kbps),
    Claim("every mode leaks (> 0 Kbit/s) at under 15% bit error",
          "§V, Table I",
          lambda rows: all(r.bandwidth_kbps > 0 and r.error_rate < 0.15
                           for r in rows)),
    Claim("Reed-Solomon correction costs bandwidth on every mode",
          "§V, Table I",
          lambda rows: all(r.corrected_bandwidth_kbps < r.bandwidth_kbps
                           for r in rows)),
)


# Section IV -- the tiger/zebra timing signal (one grid, fast or not:
# the calibration takes milliseconds)

_SEC4_CLAIMS = (
    Claim("the probe's hit and miss timings are separable", "§IV",
          lambda t: t["separable"]),
    Claim("the hit/miss gap exceeds 5 standard deviations (paper: 218.4 "
          "cycles at 27.8)", "§IV",
          lambda t: t["delta"] > 5 * max(t["delta_sd"], 1.0)),
)


# Figure 9 -- bandwidth and error rate, one knob at a time: each knob's
# sweep holds the other two at the operating point, so the operating
# point is one job shared by the three sweeps

_FIG9_POINT = {"nsets": 8, "nways": 6, "samples": 5}


def _fig9_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    values = ({"nsets": [1, 4, 8], "nways": [4, 6], "samples": [1, 5]}
              if fast else {"nsets": [1, 2, 4, 8, 16],
                            "nways": [4, 5, 6, 7, 8],
                            "samples": [1, 2, 5, 10, 20]})
    return {f"fig9_{knob}": Sweep(
        "covert.tuning_point", axes={knob: values[knob]},
        base={**{k: v for k, v in _FIG9_POINT.items() if k != knob},
              "payload_hex": FIG9_PAYLOAD.hex()},
        config=config, seed=7, tag=f"fig9_{knob}") for knob in _FIG9_POINT}


def _fig9_assemble(sweeps, results) -> Dict[str, List[tuple]]:
    """Per knob, ``(value, bandwidth_kbps, error_rate)`` rows."""
    return {knob: [(p[knob], r["bandwidth_kbps"], r["error_rate"]) for p, r
                   in zip(sweeps[f"fig9_{knob}"].points(),
                          results[f"fig9_{knob}"])]
            for knob in _FIG9_POINT}


# Each knob's rows run from its smallest value to its largest.
_FIG9_CLAIMS = (
    Claim("fewer sets leak faster: the fewest sets probed outpace the most",
          "§V, Fig. 9", lambda r: r["nsets"][0][1] > r["nsets"][-1][1]),
    Claim("the most sets probed err no more often than the fewest",
          "§V, Fig. 9", lambda r: r["nsets"][-1][2] <= r["nsets"][0][2]),
    Claim("at the 8-set operating point the bit error is under 5% "
          "(paper: under 1%)", "§V, Fig. 9",
          lambda r: next(e for v, _, e in r["nsets"] if v == 8) < 0.05),
    Claim("more samples cost bandwidth: the fewest samples outpace the most",
          "§V, Fig. 9", lambda r: r["samples"][0][1] > r["samples"][-1][1]),
)


# Table II -- Spectre-v1 vs micro-op cache Spectre; the branch-target
# injection and jump-table variants leak the same secret

def _leak_grid(name: str, fn: str, axes=None, **base: Any):
    """Leaks of the Table II secret through ``fn``: one per ``axes``
    point (one in all without ``axes``)."""
    def grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
        secret = b"\xa5" if fast else TABLE2_SECRET
        return {name: Sweep(fn, axes=axes or {},
                            base={"secret_hex": secret.hex(), **base},
                            config=config, tag=name)}
    return grid


def table2_rows(points: List[Dict[str, Any]]) -> List[Any]:
    """:class:`Table2Row` s from ``attacks.table2_row`` results."""
    from repro.core.report import Table2Row

    return [Table2Row(**{k: v for k, v in point.items() if k != "leaked_hex"})
            for point in points]


# The rows come in paper order: classic Spectre-v1, then the micro-op
# cache variant.
_TABLE2_CLAIMS = (
    Claim("both attacks leak the whole secret", "§VI-A, Table II",
          lambda rows: all(r.byte_accuracy == 1.0 for r in rows)),
    Claim("the micro-op cache variant is > 1.5x faster (paper: 2.6x)",
          "§VI-A, Table II",
          lambda rows: rows[0].seconds > 1.5 * rows[1].seconds),
    Claim("it makes > 3x fewer LLC references (paper: ~5x)",
          "§VI-A, Table II",
          lambda rows: rows[0].llc_references
          > 3 * max(rows[1].llc_references, 1)),
    Claim("it moves the signal into > 5x more micro-op cache miss "
          "penalty cycles (paper: ~15x)",
          "§VI-A, Table II",
          lambda rows: rows[1].uop_cache_penalty_cycles
          > 5 * max(rows[0].uop_cache_penalty_cycles, 1)),
)


def _whole_secret(attack: str, section: str) -> Tuple[Claim, ...]:
    return (Claim(f"{attack} leaks the whole secret", section,
                  lambda r: r["byte_accuracy"] == 1.0),)


# Key extraction -- the SMT channel against a square-and-multiply victim

def _keyextract_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    # The spy needs competitive micro-op cache sharing between the SMT
    # threads, which only the Zen preset has: the grid ignores ``config``.
    # 0xaaa is a pattern key: the fast grid recovers it exactly.
    keys, nbits = ((0xAAA,), 12) if fast else (KEYEXTRACT_KEYS, 16)
    return {"keyextract": Sweep(
        "attacks.keyextract", axes={"key": list(keys)},
        base={"nbits": nbits}, config=CPUConfig.zen(), tag="keyextract")}


_KEYEXTRACT_CLAIMS = (
    Claim("the SMT spy recovers at least 75% of the bits of every key",
          "§V-B, applied end to end",
          lambda runs: all(4 * r["bit_errors"] <= r["nbits"] for r in runs)),
)


# Figure 10 -- the variant-2 signal under no fence, LFENCE and CPUID

#: Figure 10's fence primitives: job parameter -> assembled name.
_FENCES = {"nf": "none", "lf": "lfence", "cp": "cpuid"}


def _fig10_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    return {"fig10_lfence": Sweep(
        "attacks.lfence_signal", axes={"fence": list(_FENCES)},
        base={"rounds": 2 if fast else 8}, config=config,
        tag="fig10_lfence")}


def _fig10_assemble(sweeps, results) -> Dict[str, float]:
    """Per fence, the mean probe-time separation (cycles) between
    secret 1 and secret 0."""
    return {_FENCES[p["fence"]]: p["signal"] for p in results["fig10_lfence"]}


_FIG10_CLAIMS = (
    Claim("with no fence the probe sees > 100 cycles of signal",
          "§VI-B, Fig. 10", lambda s: s["none"] > 100),
    Claim("LFENCE does not close the channel (> 100 cycles)",
          "§VI-B, Fig. 10", lambda s: s["lfence"] > 100),
    Claim("LFENCE keeps over half the unfenced signal",
          "§VI-B, Fig. 10", lambda s: s["lfence"] > 0.5 * s["none"]),
    Claim("CPUID closes the channel (|signal| < 50 cycles)",
          "§VI-B, Fig. 10", lambda s: abs(s["cpuid"]) < 50),
)


# Section VIII -- the user/kernel channel under each countermeasure, and
# variant-1 (the Table II job) with and without privilege partitioning.
# The countermeasures are Skylake features: the grid ignores ``config``.

_MITIGATIONS = {
    "baseline": {},
    "flush-on-crossing": {"flush_uop_cache_on_domain_crossing": True},
    "privilege-partition": {"privilege_partition_uop_cache": True},
}
_V1 = ("baseline", "privilege-partition")
_MITIGATION_SWEEPS = (*(f"crossdomain_{m}" for m in _MITIGATIONS),
                      *(f"variant1_{m}" for m in _V1))


def _mitigations_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    payload, secret = ("a5", "5a") if fast else (TABLE2_SECRET.hex(),) * 2
    sweeps = {f"crossdomain_{m}": Sweep(
        "mitigations.crossdomain", axes={}, base={"payload_hex": payload},
        config=CPUConfig.skylake(**flags), tag=f"crossdomain_{m}")
        for m, flags in _MITIGATIONS.items()}
    return {**sweeps, **{f"variant1_{m}": Sweep(
        "attacks.table2_row", axes={"attack": ["uop_cache"]},
        base={"secret_hex": secret}, tag=f"variant1_{m}",
        config=CPUConfig.skylake(**_MITIGATIONS[m])) for m in _V1}}


def _mitigations_assemble(sweeps, results) -> Dict[str, Any]:
    """Per countermeasure, the channel's ``signal_delta``,
    ``error_rate`` and ``kernel_cycles``, and variant-1's byte
    accuracy."""
    return {"crossdomain": {m: results[f"crossdomain_{m}"][0]
                            for m in _MITIGATIONS},
            "variant1": {m: results[f"variant1_{m}"][0]["byte_accuracy"]
                         for m in _V1}}


def _closed(m: str):
    """The channel is closed under ``m``: at >= 25% bit error the
    receiver is guessing."""
    return lambda r: r["crossdomain"][m]["error_rate"] >= 0.25


_MITIGATION_CLAIMS = (
    Claim("unmitigated, the user/kernel channel leaks: > 100 cycles of "
          "signal at < 25% bit error", "§VIII",
          lambda r: r["crossdomain"]["baseline"]["signal_delta"] > 100
          and not _closed("baseline")(r)),
    Claim("flushing the micro-op cache at domain crossings closes it",
          "§VIII", _closed("flush-on-crossing")),
    Claim("privilege-level partitioning closes it", "§VIII",
          _closed("privilege-partition")),
    Claim("flushing costs cycles: the transmit runs longer than unmitigated",
          "§VIII", lambda r: r["crossdomain"]["flush-on-crossing"]
          ["kernel_cycles"] > r["crossdomain"]["baseline"]["kernel_cycles"]),
    Claim("unmitigated, variant-1 leaks the whole secret", "§VIII",
          lambda r: r["variant1"]["baseline"] == 1.0),
    Claim("privilege partitioning does not stop variant-1: it still "
          "leaks the whole secret", "§VIII",
          lambda r: r["variant1"]["privilege-partition"] == 1.0),
)


def _one(name: str):
    """Assemble a one-point artifact: its only result."""
    return lambda sweeps, results: results[name][0]


# The contention matrix -- resource x sharing mode x variant
# (repro.contention); the disjoint variant is the negative control

_CONTENTION_SWEEPS = tuple(f"contention_{r}" for r in RESOURCES)


def _contention_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    # Each resource runs on its own tuned preset: the grid ignores
    # ``config``.  The fast grid spans the front-end, translation and
    # memory families under the two cheap sharing modes.
    resources, modes = ((("uop_cache", "itlb", "store_buffer"),
                         ("smt", "time_sliced")) if fast
                        else (RESOURCES, CONTENTION_CELL_MODES))
    return {f"contention_{r}": Sweep(
        "contention.cell", axes={"mode": list(modes),
                                 "variant": list(VARIANTS)},
        base={"resource": r, "trials": 2}, config=contention_config(r),
        tag=f"contention_{r}") for r in resources}


def _contention_assemble(sweeps, results) -> Dict[str, Any]:
    """``resource -> mode -> variant -> cell`` (the
    :meth:`~repro.contention.session.CellResult.as_dict` fields)."""
    matrix: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for name in _CONTENTION_SWEEPS:
        for cell in results.get(name, ()):
            matrix.setdefault(cell["resource"], {}) \
                  .setdefault(cell["mode"], {})[cell["variant"]] = cell
    return matrix


_CONTENTION_CLAIMS = (
    Claim("every resource has a conflict cell above 0.1 slowdown",
          "contention suite (extension)",
          lambda m: all(max(c["conflict"]["slowdown"] for c in pm.values())
                        > 0.1 for pm in m.values())),
    Claim("every disjoint control stays within +/-0.25 slowdown",
          "contention suite (extension)",
          lambda m: all(abs(c["disjoint"]["slowdown"]) < 0.25
                        for pm in m.values() for c in pm.values())),
)


# The benign workload suite: one grid, fast or not

def _workloads_grid(config: CPUConfig, fast: bool) -> Dict[str, Sweep]:
    from repro.workloads.suite import WORKLOADS

    return {"workloads": Sweep(
        "workloads.run", axes={"name": sorted(WORKLOADS)},
        base={"scale": 1}, config=config, tag="workloads")}


def _workloads_assemble(sweeps, results) -> Dict[str, Any]:
    c = sweeps["workloads"].config
    return {"cpu": c.name, "uop_cache_capacity": c.uop_cache_capacity,
            "workloads": results["workloads"]}


#: Every artifact: the Section III figures, the covert-channel results,
#: the attack evaluation in display order, the Section VIII
#: mitigations, the contention matrix and the workload suite.
ARTIFACTS: Dict[str, Artifact] = {a.name: a for a in (
    Artifact("fig3a_size", ("fig3a_size",), _fig3a_grid, _fig3a_assemble,
             _FIG3A_CLAIMS),
    Artifact("fig3b_associativity", ("fig3b_associativity",), _fig3b_grid,
             _fig3b_assemble, _FIG3B_CLAIMS),
    Artifact("fig4_placement", ("fig4_placement",), _fig4_grid,
             _fig4_assemble, _FIG4_CLAIMS),
    Artifact("fig5_replacement", ("fig5_replacement",), _fig5_grid,
             _fig5_assemble, _FIG5_CLAIMS),
    Artifact("fig6_smt", ("fig6_smt",),
             lambda c, fast: {"fig6_smt": _fig6_sweep(c, fast, "pause")},
             _fig6_assembler("fig6_smt"), _FIG6_CLAIMS),
    # Figure 6b: the same partition whatever T2 runs (full grid only).
    Artifact("fig6_smt_chase", ("fig6_smt_chase",),
             lambda c, fast: {} if fast else {
                 "fig6_smt_chase": _fig6_sweep(c, fast, "chase")},
             _fig6_assembler("fig6_smt_chase"), _FIG6_CLAIMS),
    Artifact("fig7_geometry", ("fig7_sweep", "fig7_groups"), _fig7_grid,
             _fig7_assemble, _FIG7_CLAIMS),
    Artifact("table1", ("table1",), _covert_grid("table1"),
             lambda sweeps, results: table1_rows(results["table1"]),
             _TABLE1_CLAIMS),
    Artifact("table1_contention", ("table1_contention",),
             _covert_grid("table1_contention"),
             lambda sweeps, results: table1_rows(
                 results["table1_contention"]),
             _TABLE1_CLAIMS[1:]),  # Table I's claims about every mode
    Artifact("sec4_signal", ("sec4_signal",), lambda c, fast: {
                 "sec4_signal": Sweep("covert.signal", axes={}, config=c,
                                      base={"calibration_rounds": 16},
                                      tag="sec4_signal")},
             _one("sec4_signal"), _SEC4_CLAIMS),
    Artifact("fig9_tuning", tuple(f"fig9_{axis}" for axis in _FIG9_POINT),
             _fig9_grid, _fig9_assemble, _FIG9_CLAIMS),
    Artifact("table2", ("table2",),
             _leak_grid("table2", "attacks.table2_row",
                        {"attack": ["classic", "uop_cache"]}),
             lambda sweeps, results: table2_rows(results["table2"]),
             _TABLE2_CLAIMS),
    Artifact("keyextract", ("keyextract",), _keyextract_grid,
             lambda sweeps, results: results["keyextract"],
             _KEYEXTRACT_CLAIMS),
    Artifact("bti", ("bti",), _leak_grid("bti", "attacks.bti"), _one("bti"),
             _whole_secret("branch-target injection",
                           "§VI-A, Spectre-v2 chaining")),
    Artifact("jumptable", ("jumptable",),
             _leak_grid("jumptable", "attacks.jumptable", bits_per_symbol=2),
             _one("jumptable"),
             _whole_secret("a 2-bit jump-table transmitter",
                           "§VI-A, multi-bit extension")),
    Artifact("fig10_lfence", ("fig10_lfence",), _fig10_grid,
             _fig10_assemble, _FIG10_CLAIMS),
    Artifact("mitigations", _MITIGATION_SWEEPS, _mitigations_grid,
             _mitigations_assemble, _MITIGATION_CLAIMS),
    Artifact("contention", _CONTENTION_SWEEPS, _contention_grid,
             _contention_assemble, _CONTENTION_CLAIMS),
    Artifact("workloads", ("workloads",), _workloads_grid,
             _workloads_assemble, ()),
)}

#: The attack evaluation (``batch attacks``), in display order.
ATTACKS = ("table1", "table1_contention", "table2", "keyextract", "bti",
           "jumptable", "fig10_lfence")

#: The Section III characterization figures (``batch characterize``).
FIGURES = ("fig3a_size", "fig3b_associativity", "fig4_placement",
           "fig5_replacement", "fig6_smt", "fig6_smt_chase", "fig7_geometry")


def artifact_sweeps(
    names: Sequence[str],
    config: Optional[CPUConfig] = None,
    fast: bool = False,
) -> Dict[str, Sweep]:
    """The grids of the named artifacts, in order.

    ``fast`` is the smoke-sized grid; the default is the paper's
    resolution (the grids the figure and table benchmarks check).
    """
    config = config or CPUConfig.skylake()
    sweeps: Dict[str, Sweep] = {}
    for name in names:
        sweeps.update(ARTIFACTS[name].grid(config, fast))
    return sweeps


def characterize_sweeps(
    config: Optional[CPUConfig] = None, fast: bool = False
) -> Dict[str, Sweep]:
    """The Figure 3-7 grids, in figure order."""
    return artifact_sweeps(FIGURES, config, fast)


def assemble_characterize(
    sweeps: Dict[str, Sweep], results: Dict[str, List[Any]]
) -> Dict[str, Any]:
    """Assemble every artifact whose grid contributed a sweep, keyed by
    artifact name (per-point results: one flat list per sweep, in grid
    order).  A figure's grid contributes all of its sweeps or none; the
    contention grid's resources differ between fast and full."""
    return {
        name: artifact.assemble(sweeps, results)
        for name, artifact in ARTIFACTS.items()
        if any(s in sweeps for s in artifact.sweeps)
    }


def check_claims(artifacts: Dict[str, Any]) -> List[Tuple[str, Claim, bool]]:
    """``(artifact, claim, holds)`` for every claim of every assembled
    artifact, in registry order."""
    return [
        (name, claim, bool(claim.holds(artifacts[name])))
        for name in ARTIFACTS if name in artifacts
        for claim in ARTIFACTS[name].claims
    ]


def assemble_results(sweeps: Dict[str, Sweep], flat: List[Any]
                     ) -> Dict[str, Any]:
    """Assemble the artifacts ``sweeps`` cover from their per-point
    results, flat in sweep order."""
    results, start = {}, 0
    for name, sweep in sweeps.items():
        results[name] = flat[start:start + len(sweep)]
        start += len(sweep)
    return assemble_characterize(sweeps, results)


def run_sweeps(
    sweeps: Dict[str, Sweep], jobs: Optional[List[Job]] = None,
    **runner_kwargs,
) -> Tuple[Dict[str, Any], List[JobOutcome], RunSummary]:
    """Run named sweeps through the harness as one job list, so a
    parallel run keeps every worker busy across sweep boundaries, and
    assemble every artifact they cover; returns ``(artifacts, outcomes,
    summary)``.  ``jobs`` is the sweeps' jobs in order, if the caller
    already built them.  Raises ``RuntimeError`` if any job failed.
    """
    if jobs is None:
        jobs = [job for sweep in sweeps.values() for job in sweep.jobs()]
    outcomes, summary = run_jobs(jobs, **runner_kwargs)
    raise_on_failure(outcomes)
    artifacts = assemble_results(sweeps, [o.result for o in outcomes])
    return artifacts, outcomes, summary


# ----------------------------------------------------------------------
# Attack jobs live in their own module; importing it here means
# ``resolve()``'s lazy load of this catalogue registers them too
# (worker processes start with an empty registry).  The ``debug.*``
# synthetic jobs ride along for the same reason: the serve worker tier
# and the load benchmarks resolve them inside fresh processes.

from repro.harness import attacks, contention, debugfns  # noqa: E402,F401  (registers)
from repro.synth import jobs as _synth_jobs  # noqa: E402,F401  (registers)
