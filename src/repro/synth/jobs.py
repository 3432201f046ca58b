"""The ``synth.measure`` harness job: one finalist, one cached row.

One registered job measures everything every objective needs -- raw
and error-corrected bandwidth plus the Table-II detector's view of the
transmission -- so a candidate revisited under a *different* objective
still hits the same cache entry.  The registry entry declares a
``program_builder`` (the candidate's assembled program), which folds
the program bytes into the job key: genomes that differ only in
non-structural genes but assemble identically share one key, and the
serve tier coalesces them for free.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.detector import roc_sweep
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.harness.job import register
from repro.session import ChannelSession
from repro.synth.candidate import build_program, build_session

#: Noise operating point of the Table-I "Same address space" row
#: (:func:`repro.core.report.table1_row`): measured rows are directly
#: comparable to that baseline.
EVICT_PROB = 0.01
JITTER_SD = 25.0


def _benign_window(session: ChannelSession) -> None:
    """Receiver-only activity: what the detector sees when nobody is
    transmitting (the channel's own footprint, sender silent)."""
    if session.genome["family"] == "covert":
        session._prime()
        session._probe_time()
    else:
        session._call("rx_epoch")


@register("synth.measure", program_builder=build_program)
def _job_measure(
    config: CPUConfig,
    seed: int,
    genome: Dict[str, Any],
    payload_hex: str,
    detector_bits: int = 8,
) -> Dict[str, Any]:
    """Measure one finalist: ECC transmission + detector windows.

    The genome rides in ``params`` (the session derives its own
    ``CPUConfig`` from the family, like ``covert.table1_row`` does);
    ``seed`` drives the noise model.  Returns a flat JSON row every
    objective can score.
    """
    payload = bytes.fromhex(payload_hex)
    noise = NoiseModel(evict_prob=EVICT_PROB, jitter_sd=JITTER_SD, seed=seed)
    session = build_session(genome, noise=noise)

    report = session.transmit(payload, ecc=True)

    # Table-II detector's view: DSB-miss counts per observation window,
    # benign (receiver idling) vs. attack (one bit on the wire).
    benign, attack = [], []
    for i in range(max(2, detector_bits)):
        before = session.core.counters().snapshot()
        _benign_window(session)
        benign.append(session.core.counters().delta(before).dsb_misses)
        before = session.core.counters().snapshot()
        session.send_bits([i & 1])
        attack.append(session.core.counters().delta(before).dsb_misses)
    auc = roc_sweep(benign, attack).auc

    return {
        "family": genome["family"],
        "resource": genome.get("resource"),
        "bits_sent": report.bits_sent,
        "bit_errors": report.bit_errors,
        "error_rate": report.error_rate,
        "total_cycles": report.total_cycles,
        "bandwidth_kbps": report.bandwidth_kbps,
        "ecc_overhead": report.ecc_overhead,
        "corrected_ok": report.corrected_ok,
        "corrected_bandwidth_kbps": report.corrected_bandwidth_kbps,
        "detector_auc": auc,
        "payload_bytes": report.payload_bytes,
    }
