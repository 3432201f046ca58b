"""Performance-counter monitoring (Section VIII): a sliding-window
anomaly detector over the DSB miss rate, with the false-positive
liability the paper warns about.  The other two countermeasures,
flushing at domain crossings and privilege-level partitioning, are
``CPUConfig`` flags; the ``mitigations`` entry of
:data:`repro.harness.experiments.ARTIFACTS` evaluates them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class DetectionReport:
    """Sliding-window DSB-miss-rate anomaly detection results."""

    threshold: float
    attack_windows_flagged: int
    attack_windows_total: int
    benign_windows_flagged: int
    benign_windows_total: int

    @property
    def detection_rate(self) -> float:
        """Fraction of attack windows flagged."""
        if not self.attack_windows_total:
            return 0.0
        return self.attack_windows_flagged / self.attack_windows_total

    @property
    def false_positive_rate(self) -> float:
        """Fraction of benign windows flagged (the mimicry liability)."""
        if not self.benign_windows_total:
            return 0.0
        return self.benign_windows_flagged / self.benign_windows_total


def collect_benign_windows(names: Optional[Sequence[str]] = None) -> List[int]:
    """DSB-miss counts per benign observation window.

    Each window is one run of one workload from
    :mod:`repro.workloads` -- giving the monitor a baseline with
    honest cross-workload variance rather than synthetic numbers.  A
    workload run is deterministic, so each gives one window.
    """
    from repro.workloads import WORKLOADS, run_workload

    return [run_workload(name).counters.dsb_misses
            for name in (names or sorted(WORKLOADS))]


def collect_attack_windows(bits: int = 16) -> List[int]:
    """DSB-miss counts per attack window (one covert-channel bit)."""
    from repro.core.covert import ChannelParams, CovertChannel

    chan = CovertChannel(ChannelParams(samples=1, calibration_rounds=2))
    chan.calibrate()
    windows = []
    for i in range(bits):
        before = chan.core.counters().snapshot()
        chan.send_bits([i & 1])
        windows.append(chan.core.counters().delta(before).dsb_misses)
    return windows


class UopCacheMonitor:
    """Counts DSB misses per observation window and flags windows whose
    miss count exceeds a threshold learned from a benign baseline."""

    def __init__(self, sigma: float = 3.0):
        self.sigma = sigma
        self.threshold: Optional[float] = None

    def train(self, benign_windows: Sequence[int]) -> float:
        """Fit the threshold as mean + sigma * stdev of benign windows."""
        mean = statistics.fmean(benign_windows)
        sd = statistics.stdev(benign_windows) if len(benign_windows) > 1 else 0.0
        self.threshold = mean + self.sigma * sd
        return self.threshold

    def flag(self, window: int) -> bool:
        """True if this window's DSB miss count looks anomalous."""
        if self.threshold is None:
            raise RuntimeError("train() the monitor first")
        return window > self.threshold

    def evaluate(
        self,
        benign_windows: Sequence[int],
        attack_windows: Sequence[int],
    ) -> DetectionReport:
        """Train on half the benign trace, evaluate on the rest."""
        split = max(2, len(benign_windows) // 2)
        self.train(benign_windows[:split])
        held_out = benign_windows[split:]
        return DetectionReport(
            threshold=self.threshold,
            attack_windows_flagged=sum(1 for w in attack_windows if self.flag(w)),
            attack_windows_total=len(attack_windows),
            benign_windows_flagged=sum(1 for w in held_out if self.flag(w)),
            benign_windows_total=len(held_out),
        )
