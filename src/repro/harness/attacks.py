"""Harness-native attack jobs: the evaluation tables as job grids.

Registers one job per attack measurement -- the Table II Spectre
comparison rows, the key-extraction runs (Section VI-B), the
branch-target-injection and jump-table variants, and the Figure 10
fence signals -- and provides drivers that expand them into job lists
for :func:`repro.harness.executor.run_jobs`.  Together with the
Table I jobs in :mod:`repro.harness.experiments` this makes the whole
attack evaluation (``python -m repro batch attacks``) parallel and
content-addressed: a warm cache answers every row without running a
single simulation.

Each job builds its attack driver through the session layer
(:mod:`repro.session`).  Table II's grid, row assembly and claims are
defined once, in :data:`repro.harness.experiments.ARTIFACTS`;
``tests/test_golden_artifacts.py`` pins its rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig
from repro.harness.executor import JobOutcome, RunSummary
from repro.harness.job import Job, register

#: Default Table II secret.
TABLE2_SECRET = b"\xa5\x3c\x5a\xc3"

#: Default key-extraction grid: 16-bit exponents with the MSB set.
KEYEXTRACT_KEYS = (0xB5A3, 0x9C3D, 0xF00F)


# ----------------------------------------------------------------------
# Job functions


@register("attacks.table2_row")
def _job_table2_row(
    config: CPUConfig, seed: int, attack: str, secret_hex: str
) -> Dict[str, Any]:
    """One row of Table II (classic vs micro-op-cache Spectre)."""
    from repro.core.transient import ClassicSpectreV1, UopCacheSpectreV1

    secret = bytes.fromhex(secret_hex)
    if attack == "classic":
        name, driver = "Spectre (original)", ClassicSpectreV1(
            secret=secret, config=config)
    elif attack == "uop_cache":
        name, driver = "Spectre (uop cache)", UopCacheSpectreV1(
            secret=secret, config=config)
    else:
        raise ValueError(f"unknown Table II attack {attack!r}")
    stats = driver.leak()
    return {
        "attack": name,
        "seconds": stats.seconds,
        "llc_references": stats.counters.llc_refs,
        "llc_misses": stats.counters.llc_misses,
        "uop_cache_penalty_cycles": stats.counters.dsb_miss_penalty_cycles,
        "byte_accuracy": stats.byte_accuracy,
        "leaked_hex": stats.leaked.hex(),
    }


@register("attacks.keyextract")
def _job_keyextract(
    config: CPUConfig, seed: int, nbits: int, key: int
) -> Dict[str, Any]:
    """One key-recovery run through the SMT spy (Section VI-B)."""
    from repro.core.keyextract import KeyExtractor

    result = KeyExtractor(nbits=nbits, config=config).extract(key)
    return {
        "nbits": result.nbits,
        "true_key": result.true_key,
        "recovered_key": result.recovered_key,
        "exact": result.exact,
        "bit_errors": result.bit_errors,
    }


@register("attacks.bti")
def _job_bti(
    config: CPUConfig, seed: int, secret_hex: str
) -> Dict[str, Any]:
    """Branch-target injection leak (Spectre-v2 disclosure)."""
    from repro.core.bti import BranchTargetInjection

    stats = BranchTargetInjection(
        secret=bytes.fromhex(secret_hex), config=config).leak()
    return {
        "leaked_hex": stats.leaked.hex(),
        "byte_accuracy": stats.byte_accuracy,
        "bit_errors": stats.bit_errors,
        "seconds": stats.seconds,
    }


@register("attacks.jumptable")
def _job_jumptable(
    config: CPUConfig, seed: int, secret_hex: str, bits_per_symbol: int
) -> Dict[str, Any]:
    """Multi-bit jump-table variant-1 leak."""
    from repro.core.transient_multibit import JumpTableSpectre

    stats = JumpTableSpectre(
        secret=bytes.fromhex(secret_hex),
        bits_per_symbol=bits_per_symbol,
        config=config,
    ).leak()
    return {
        "leaked_hex": stats.leaked.hex(),
        "byte_accuracy": stats.byte_accuracy,
        "bit_errors": stats.bit_errors,
        "seconds": stats.seconds,
    }


@register("attacks.lfence_signal")
def _job_lfence_signal(
    config: CPUConfig, seed: int, fence: str, rounds: int
) -> Dict[str, Any]:
    """Figure 10 probe-time signal for one fence primitive."""
    from repro.core.transient import LfenceBypass

    signal = LfenceBypass(config=config).measure(fence, rounds=rounds)
    return {
        "fence": signal.fence,
        "signal": signal.signal,
        "threshold": signal.timing.threshold,
    }


# ----------------------------------------------------------------------
# Job-grid builders


def table2_jobs(
    secret: bytes = TABLE2_SECRET,
    config: Optional[CPUConfig] = None,
) -> List[Job]:
    """One job per Table II row, in paper order."""
    from repro.harness.experiments import _table2_sweep

    return _table2_sweep(secret, config).jobs()


def keyextract_jobs(
    keys: Sequence[int] = KEYEXTRACT_KEYS,
    nbits: int = 16,
    config: Optional[CPUConfig] = None,
) -> List[Job]:
    """One job per key in the extraction grid."""
    config = config or CPUConfig.zen()
    return [
        Job("attacks.keyextract", config=config,
            params={"nbits": nbits, "key": key},
            tag=f"keyextract[{key:#x}]")
        for key in keys
    ]


def attack_jobs(
    payload: bytes = b"uop cache leaks!",
    secret: bytes = TABLE2_SECRET,
    keys: Sequence[int] = KEYEXTRACT_KEYS,
    nbits: int = 16,
    noise_seed: int = 17,
    lfence_rounds: int = 8,
    config: Optional[CPUConfig] = None,
) -> Dict[str, List[Job]]:
    """The full attack evaluation as named job groups.

    Keys (in display order): ``table1``, ``contention``, ``table2``,
    ``keyextract``, ``bti``, ``jumptable``, ``lfence``.  The Table I
    group reuses the ``covert.table1_row`` jobs from
    :mod:`repro.harness.experiments`, so its cache keys are shared
    with ``batch covert``; the ``contention`` group adds the two
    non-DSB covert channels (iTLB, store buffer) from
    :mod:`repro.contention.channels` as extra Table-I-format rows
    through the same job function.
    """
    from repro.core.report import CONTENTION_MODES
    from repro.harness.experiments import table1_jobs
    from repro.harness.sweep import Sweep

    skl = config or CPUConfig.skylake()
    return {
        "table1": table1_jobs(payload, noise_seed, config=skl),
        "contention": Sweep(
            "covert.table1_row",
            axes={"mode": list(CONTENTION_MODES)},
            base={"payload_hex": payload.hex()},
            config=skl,
            seed=noise_seed,
            tag="contention",
        ).jobs(),
        "table2": table2_jobs(secret, config=skl),
        "keyextract": keyextract_jobs(keys, nbits),
        "bti": [Job("attacks.bti", config=skl,
                    params={"secret_hex": secret.hex()}, tag="bti")],
        "jumptable": [Job("attacks.jumptable", config=skl,
                          params={"secret_hex": secret.hex(),
                                  "bits_per_symbol": 2},
                          tag="jumptable")],
        "lfence": [Job("attacks.lfence_signal", config=skl,
                       params={"fence": fence, "rounds": lfence_rounds},
                       tag=f"lfence[{fence}]")
                   for fence in ("nf", "lf", "cp")],
    }


# ----------------------------------------------------------------------
# Drivers


def run_attacks(
    payload: bytes = b"uop cache leaks!",
    secret: bytes = TABLE2_SECRET,
    keys: Sequence[int] = KEYEXTRACT_KEYS,
    nbits: int = 16,
    noise_seed: int = 17,
    fast: bool = False,
    **runner_kwargs,
) -> Tuple[Dict[str, List[Any]], List[JobOutcome], RunSummary]:
    """Run the whole attack evaluation through the harness.

    All groups go into one job list so a parallel run keeps every
    worker busy across group boundaries.  ``fast`` shrinks each group
    to a single cheap point (1-byte payloads, a 12-bit key) for smoke
    tests.
    Returns ``(results, outcomes, summary)`` where ``results``
    maps each group name to its per-job result dicts (Table I/II
    groups get :class:`Table1Row` / :class:`Table2Row` instances).
    """
    from repro.harness.experiments import run_groups, table1_rows, table2_rows

    if fast:
        payload, secret = b"u", b"\xa5"
        keys, nbits = (0xAAA,), 12  # pattern key: recovers exactly
        groups = attack_jobs(payload, secret, keys, nbits, noise_seed,
                             lfence_rounds=2)
    else:
        groups = attack_jobs(payload, secret, keys, nbits, noise_seed)

    results, outcomes, summary = run_groups(groups, **runner_kwargs)
    for name in ("table1", "contention"):
        results[name] = table1_rows(results[name])
    results["table2"] = table2_rows(results["table2"])
    return results, outcomes, summary
