"""The live differential: static predictions vs the running simulator.

The static side re-states the front end's region walk, the cache's set
mapping, the iTLB's page working set, the store buffer's drain sites
and the secret dependence of all three on purpose; this module closes
the loop with one differential for every one of them.  A
:class:`Prediction` names the event kinds to record, a key per event and
the keys the static side predicts.  :func:`live_check` resets the core,
runs a drive -- once, or once per secret value -- under a
:class:`repro.observe.TraceRecorder` and diffs the observed keys against
the prediction.

The static object that makes a claim builds its prediction:

- **XC001** -- :meth:`FootprintReport.fill_prediction`: every
  ``dsb_fill`` (entry, set, lines) must be one the footprint walk
  predicts.  Both the simulator and the analyzer claim to implement
  Section II-B; a divergence means one of them drifted.
- **XC002** / **XC003** -- :meth:`ITLBClaim.prediction` /
  :meth:`StoreClaim.prediction`: the ``itlb_fill`` pages / ``sb_drain``
  sites must equal the claimed set exactly (a claimed key the run never
  touches is an error too).
- **XC004** -- :meth:`TaintReport.prediction`, run once per secret:
  every event key present in some runs but not all must fall inside the
  static secret-dependence prediction.  The taint analysis promises an
  over-approximation; this is the soundness check that keeps it one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.diagnostics import MAX_DIVERGENCE_DIAGNOSTICS, Diagnostic
from repro.observe.events import Event, TraceRecorder


@dataclass
class Prediction:
    """What the static side says a live run shows.

    ``key`` maps each recorded event of ``kinds`` to the value compared;
    ``keys`` are the predicted values and ``covers`` (default:
    membership in ``keys``) decides whether an observed key was
    predicted.  ``describe(key, event)`` words the diagnostic for an
    unpredicted key, or -- with ``event=None`` -- for a predicted key a
    ``strict`` prediction never saw.  Predictions checked once per
    secret key events by ``(group, value)`` and list ``groups``.
    """

    code: str
    kinds: Tuple[str, ...]
    key: Callable[[Event], Hashable]
    keys: AbstractSet[Hashable]
    describe: Callable[[Hashable, Optional[Event]], Diagnostic]
    covers: Optional[Callable[[Hashable], bool]] = None
    strict: bool = False
    #: what one event is, for the summary line
    noun: str = "fill"
    #: what the summary's distinct count counts, and the projection of
    #: a key onto one of them (XC001 keys project to their fetch entry)
    unit: str = "entries"
    unit_of: Callable[[Hashable], Hashable] = lambda key: key
    groups: Tuple[str, ...] = ()

    def covered(self, key: Hashable) -> bool:
        if self.covers is not None:
            return self.covers(key)
        return key in self.keys


@dataclass
class LiveCheck:
    """Outcome of one live differential.

    ``seen`` holds the keys the run showed or, run once per secret, the
    keys that diverged between the runs.  ``escapes`` maps each seen key
    the prediction does not cover to its first event; ``missing`` holds
    the predicted keys a strict prediction never saw.
    """

    prediction: Prediction
    per_secret: bool = False
    events: int = 0
    #: events whose key the prediction covers
    matches: int = 0
    seen: Set[Hashable] = field(default_factory=set)
    escapes: Dict[Hashable, Event] = field(default_factory=dict)
    missing: Set[Hashable] = field(default_factory=set)

    @property
    def agreement(self) -> float:
        """Fraction of events whose key the prediction covers."""
        return self.matches / self.events if self.events else 1.0

    @property
    def clean(self) -> bool:
        return not self.escapes and not self.missing

    def _findings(self) -> List[Diagnostic]:
        describe = self.prediction.describe
        return [describe(key, self.escapes[key])
                for key in sorted(self.escapes)] + [
            describe(key, None) for key in sorted(self.missing)]

    def diagnostics(self) -> List[Diagnostic]:
        """One error per divergent key, capped."""
        found = self._findings()
        out = found[:MAX_DIVERGENCE_DIAGNOSTICS]
        if len(found) > len(out):
            out.append(Diagnostic(
                self.prediction.code,
                f"... plus {len(found) - len(out)} further "
                f"divergence(s) suppressed",
            ))
        return out

    def _distinct(self) -> int:
        return len({self.prediction.unit_of(key) for key in self.seen})

    def _grouped(self, keys) -> Dict[str, List[int]]:
        return {group: sorted(v for g, v in keys if g == group)
                for group in self.prediction.groups}

    def summary(self) -> str:
        if self.per_secret:
            parts = ", ".join(f"{group}={len(values)}" for group, values
                              in self._grouped(self.seen).items())
            return (
                f"{len(self.seen)} divergent event key(s) over "
                f"{self.events} events ({parts}); "
                f"{len(self.escapes)} escape(s)"
            )
        return (
            f"{self.matches}/{self.events} {self.prediction.noun}s agree "
            f"({self.agreement:.1%}) over {self._distinct()} "
            f"distinct {self.prediction.unit}"
        )

    def as_dict(self) -> Dict[str, object]:
        if self.per_secret:
            return {
                "events": self.events,
                "divergent": self._grouped(self.seen),
                "escapes": self._grouped(self.escapes),
                "clean": self.clean,
            }
        return {
            "fills": self.events,
            "matches": self.matches,
            "agreement": self.agreement,
            "entries_seen": self._distinct(),
            "diffs": [d.message for d in self._findings()],
        }


def live_check(
    core,
    drive: Callable[..., None],
    prediction: Prediction,
    secrets: Optional[Sequence[int]] = None,
) -> LiveCheck:
    """Reset ``core``, run ``drive()`` and diff its events.

    With ``secrets`` the drive runs as ``drive(secret)`` once per value,
    each after a reset so every run starts from the identical
    post-construction state, and the keys diffed are those present in
    some runs but not in all.  A reset also makes first touches miss:
    a warm iTLB would under-report fills.
    """
    result = LiveCheck(prediction, per_secret=secrets is not None)
    runs: List[Dict[Hashable, Event]] = []
    for secret in (None,) if secrets is None else secrets:
        core.reset()
        with TraceRecorder(kinds=prediction.kinds, core=core) as recorder:
            if secrets is None:
                drive()
            else:
                drive(secret)
        first: Dict[Hashable, Event] = {}
        for event in recorder.events:
            key = prediction.key(event)
            first.setdefault(key, event)
            result.matches += prediction.covered(key)
        result.events += len(recorder.events)
        runs.append(first)
    result.seen = set().union(*runs)
    if result.per_secret and runs:
        result.seen -= set(runs[0]).intersection(*runs[1:])
    for key in result.seen:
        if not prediction.covered(key):
            result.escapes[key] = next(r[key] for r in runs if key in r)
    if prediction.strict:
        result.missing = set(prediction.keys) - result.seen
    return result
