"""Harness-native attack jobs: one job function per attack measurement.

Registers the Table II Spectre comparison rows, the key-extraction runs
(the Section V-B SMT channel applied end to end), the
branch-target-injection and jump-table variants, and the Figure 10
fence signals.  Their grids, assembly and the paper's claims about them
are defined once, in :data:`repro.harness.experiments.ARTIFACTS`, which
``python -m repro batch attacks`` runs as one parallel,
content-addressed job list: a warm cache answers every row without
running a single simulation.

Each job builds its attack driver through the session layer
(:mod:`repro.session`).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cpu.config import CPUConfig
from repro.harness.job import register


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
