"""A host-speed reference, sampled while the program runs.

The host these runs share changes speed on its own: a fixed piece of
pure-Python work takes up to 1.9x longer in CPU time from one minute to
the next, and the program slows down with it.  A :class:`Pacer` runs a
fixed reference kernel at short intervals alongside the program -- every
:data:`INTERVAL_S` of the process's CPU time (``ITIMER_PROF``), or
whenever :meth:`Pacer.sample` is called -- and records the kernel's CPU
time.  Dividing the program's CPU time by the window's *slowdown*
(median kernel time over :data:`REF_S`, the kernel's time on a nominal
host) gives the program's CPU time at nominal host speed.  Over 183
identical attack ops (one covert-channel transmission each, about 1 s)
the raw CPU time varied with a coefficient of variation of 0.14; the
kernel's median over each op tracked it (correlation 0.92, log-log slope
0.89), the normalized times varied by 0.057, and sums of 12 ops (a pass
of ``attack-cold``) by 0.017.

The kernel's own CPU time is kept apart (:attr:`Pacer.spent`) so callers
subtract it from what they measured.  It is about 1% of the work.
"""

from __future__ import annotations

import os
import signal
import time
from statistics import median
from typing import List, Optional

#: Process CPU time between two timer-driven samples (seconds).
INTERVAL_S = 0.02

#: CPU seconds of one :func:`kernel` run on the nominal host; normalized
#: times are in seconds at that speed.
REF_S = 0.00025

#: Loop iterations of one kernel run.
KERNEL_N = 3000


def kernel() -> int:
    """Fixed pure-Python work: a loop of small-int arithmetic.  (Kernels
    of dict stores, attribute and method traffic, an interpreter-style
    dispatch loop or pointer chasing through large containers, closer to
    what the simulator does, tracked its speed no better.)"""
    total = 0
    for i in range(KERNEL_N):
        total += i * i % 7
    return total


class Pacer:
    """Reference samples taken in this process.

    ``start()`` arms the profiling timer (main thread only); ``sample()``
    takes one sample on demand.  Both append to :attr:`samples`, and the
    CPU time they took accumulates in :attr:`spent`.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous: Optional[object] = None
        self._armed_in: Optional[int] = None   # pid; timers do not survive fork

    def sample(self) -> None:
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    @property
    def armed(self) -> bool:
        """Whether this process's timer is taking samples."""
        return self._armed_in == os.getpid()

    def start(self) -> "Pacer":
        if not self.armed:
            self._previous = signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            self._armed_in = os.getpid()
        return self

    def stop(self) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._armed_in = None

    def __enter__(self) -> "Pacer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def slowdown(samples: List[float]) -> float:
    """How much slower than nominal the host ran while ``samples`` were
    taken (median kernel time over :data:`REF_S`); 1.0 without samples."""
    return median(samples) / REF_S if samples else 1.0


#: This process's pacer (a forked child inherits a copy, samples and all,
#: and arms its own timer with ``start()``).
PACER = Pacer()


def work_time() -> float:
    """This thread's CPU seconds, less those the reference kernel took."""
    return time.thread_time() - PACER.spent
