"""The attack drivers by name: one table for lint, trace and profile.

The paper's results come from a handful of drivers: the covert
channels of Section V, the Spectre variants of Section VI and the key
extraction.  :data:`DRIVERS` says once how to build each one
(``make``), which seconds-scale operation demonstrates it (``demo``)
and which micro-op cache heatmaps to take afterwards (``heatmaps``).
``repro lint`` builds its session-backed targets from ``make``;
``repro trace`` and the serve ``trace`` kind
(:func:`repro.observe.capture.capture_trace`) and ``repro profile``
run ``demo`` on the drivers listed in :data:`DEMOS`.

Only the standard library is imported at module level: the CLI reads
:data:`DEMOS` to build its argument choices at start-up, and a driver
module pulls in the whole simulator.
"""

from __future__ import annotations

from importlib import import_module
from operator import methodcaller
from typing import Any, Callable, Dict, List, NamedTuple, Optional

#: The one-byte secret the Spectre-style demos leak.
DEMO_SECRET = b"\xa5"


class Driver(NamedTuple):
    """How to build one attack driver and demonstrate it."""

    #: zero-argument constructor (the preflight runs unless the caller
    #: is inside :func:`repro.session.no_preflight`)
    make: Callable[[], Any]
    #: one demonstration run on a built driver; ``None`` for drivers
    #: only lint builds
    demo: Optional[Callable[[Any], Any]] = None
    #: occupancy snapshots of the driver's micro-op cache after ``demo``
    heatmaps: Optional[Callable[[Any], List[Any]]] = None


def _ctor(path: str, **kwargs) -> Callable[[], Any]:
    """A constructor for the class at ``module.Class``, imported on
    first call."""
    module, _, name = path.rpartition(".")
    return lambda: getattr(import_module(module), name)(**kwargs)


def _snapshot(core, label: str):
    from repro.observe.heatmap import OccupancySnapshot

    return OccupancySnapshot.capture(core.uop_cache, label)


def _after(label: str) -> Callable[[Any], List[Any]]:
    """One heatmap of the cache as the demo left it."""
    return lambda session: [_snapshot(session.core, label)]


def _listing1(channel) -> List[Any]:
    """Listing 1's conflict pattern: prime the receiver, then run the
    tiger (same stripes: conflict) and the zebra (complementary
    stripes: no conflict)."""
    channel.reset()
    channel._prime()
    snaps = [_snapshot(channel.core, "receiver primed")]
    channel._send(1)
    snaps.append(_snapshot(channel.core, "after tiger (bit=1)"))
    channel._send(0)
    snaps.append(_snapshot(channel.core, "after zebra (bit=0)"))
    return snaps


#: Every driver by name, in lint's report order.
DRIVERS: Dict[str, Driver] = {
    "covert": Driver(_ctor("repro.core.covert.CovertChannel"),
                     methodcaller("transmit", b"uop"), _listing1),
    "smt": Driver(_ctor("repro.core.smtchannel.SMTChannel"),
                  methodcaller("transmit", b"u"), _after("after transmit")),
    "crossdomain": Driver(_ctor("repro.core.crossdomain.CrossDomainChannel")),
    "spectre": Driver(
        _ctor("repro.core.transient.UopCacheSpectreV1", secret=DEMO_SECRET),
        methodcaller("leak"), _after("after leak")),
    "classic": Driver(
        _ctor("repro.core.transient.ClassicSpectreV1", secret=DEMO_SECRET),
        methodcaller("leak"), _after("after leak")),
    "lfence": Driver(_ctor("repro.core.transient.LfenceBypass")),
    "bti": Driver(_ctor("repro.core.bti.BranchTargetInjection",
                        secret=DEMO_SECRET)),
    "jumptable": Driver(_ctor("repro.core.transient_multibit.JumpTableSpectre",
                              secret=DEMO_SECRET)),
    "keyextract": Driver(_ctor("repro.core.keyextract.KeyExtractor", nbits=8),
                         methodcaller("extract", 0xB5),
                         _after("after extraction")),
    "contention-itlb": Driver(_ctor("repro.contention.channels.ITLBChannel")),
    "contention-sb": Driver(
        _ctor("repro.contention.channels.StoreBufferChannel")),
}

#: The drivers with a demo: the names ``repro trace``, the serve
#: ``trace`` kind and ``repro profile`` accept.
DEMOS = tuple(sorted(name for name, d in DRIVERS.items() if d.demo))
