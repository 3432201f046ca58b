"""Small statistics helpers shared by the workloads.

Timings are reported as a median plus a *tail*: the highest percentile
that still has at least ten samples beyond it, so the tail never rests
on a handful of outliers.  Open-loop requests are timed from when they
were due, not from when the generator got round to sending them.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.

    The candidate is the sorted sample at index ``n - TAIL_BEYOND - 1``.
    Below ``2 * TAIL_BEYOND + 1`` samples that index falls under the
    median, where a "tail" would read lower than the median it is meant
    to bound; the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    index = n - TAIL_BEYOND - 1
    if index < (n - 1) // 2:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / n


def timing(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail value, tail percentile and sample count."""
    value, pct = tail(values)
    return {"p50": statistics.median(values), "tail": value, "tail_pct": pct,
            "n": len(values)}


def poisson_schedule(rng: random.Random, count: int,
                     duration: float) -> List[float]:
    """Due offsets (seconds) of ``count`` open-loop arrivals in
    ``[0, duration)``.

    Sorted uniform draws are the arrival times of a Poisson process
    conditioned on its count, so every seed gets the same number of
    requests at the same mean rate.
    """
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


@dataclass
class OpenLoopSample:
    """One open-loop request, on a single monotonic clock."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until it completed;
        a late send is charged to the request."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return max(0.0, self.sent - self.due)
