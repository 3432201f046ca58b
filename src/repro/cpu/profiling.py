"""Per-phase wall-clock accounting for the simulator hot path.

``repro profile`` wants to answer "where does a trial's *host* time
go?" in pipeline terms -- fetch, decode, execute, commit -- rather
than in Python-function terms (which cProfile already covers).
:class:`PhaseTimer` patches the four hot entry points for the duration
of a ``with`` block and attributes *exclusive* wall time to phases:

- **fetch**   -- ``FrontEnd.fetch_block`` (DSB lookup, delivery walk,
  timing), minus the nested decode time;
- **decode**  -- ``FrontEnd._walk_region``: only an entry's *first*
  walk (region extent, shape lookup, delivery plan and line packing;
  a shape new to the process also derives its packing and decode
  tables) costs anything; later fetches of the entry read the memo.
  The per-prefix MITE cost the shape memoizes is filled inside
  ``fetch_block``, so it counts as fetch;
- **execute** -- ``Core._step``: the block loop (scoreboard, inline
  micro-op kinds, ``Backend.execute``'s functional execution, branch
  resolution and squashes), minus the nested fetch, decode and commit
  time;
- **commit**  -- ``Backend._store_timing`` (the bounded store-drain
  model) plus the functional ``StoreBuffer`` drains.

Patching happens at class level, so the timer sees every core in the
process; it is a CLI-profiling aid, not something to leave attached in
library code.  Nesting is handled with an explicit stack so a child's
time is subtracted from its parent's phase exactly once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.backend.execute import Backend
from repro.backend.storebuffer import StoreBuffer
from repro.cpu.core import Core
from repro.frontend.pipeline import FrontEnd

#: (phase, owning class, method name) patch points, in pipeline order.
PHASE_PATCHES: Tuple[Tuple[str, type, str], ...] = (
    ("fetch", FrontEnd, "fetch_block"),
    ("decode", FrontEnd, "_walk_region"),
    ("execute", Core, "_step"),
    ("commit", Backend, "_store_timing"),
    ("commit", StoreBuffer, "drain_upto"),
    ("commit", StoreBuffer, "drain_all"),
)

#: Report ordering (phases appear once even with multiple patch points).
PHASE_ORDER = ("fetch", "decode", "execute", "commit")


class PhaseTimer:
    """Context manager accumulating exclusive per-phase wall time.

    Usage::

        with PhaseTimer() as timer:
            run_workload()
        for phase, seconds, share in timer.report():
            ...
    """

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {p: 0.0 for p in PHASE_ORDER}
        #: Number of calls into each phase's entry points.
        self.calls: Dict[str, int] = {p: 0 for p in PHASE_ORDER}
        self._saved: List[Tuple[type, str, object]] = []
        # Stack of accumulated child time, one slot per live wrapped
        # frame; lets each wrapper subtract nested wrapped calls so a
        # second is attributed to exactly one phase.
        self._child: List[float] = []

    def _wrap(self, phase: str, fn):
        timer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            timer.calls[phase] += 1
            start = perf()
            timer._child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                child = timer._child.pop()
                elapsed = perf() - start
                timer.phases[phase] += elapsed - child
                if timer._child:
                    timer._child[-1] += elapsed

        return wrapper

    def __enter__(self) -> "PhaseTimer":
        for phase, cls, name in PHASE_PATCHES:
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(phase, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        """Seconds attributed across all phases."""
        return sum(self.phases.values())

    def report(self) -> List[Tuple[str, float, float]]:
        """``(phase, cumulative seconds, share of attributed time)``
        rows in pipeline order."""
        total = self.total
        return [
            (phase, self.phases[phase],
             self.phases[phase] / total if total else 0.0)
            for phase in PHASE_ORDER
        ]
