"""Structured observability: event bus, occupancy heatmaps, counter
timeseries and Chrome-trace export.

The package the paper's characterization figures would have been built
with: :class:`EventBus` publishes structured events from the
simulator's hot paths (``Core.observe()`` attaches one lazily;
unobserved cores pay a single attribute check per site),
:class:`TraceRecorder` collects them, :class:`OccupancySnapshot`
freezes the micro-op cache's per-set/way state for tiger/zebra
conflict heatmaps, :class:`CounterSampler` folds events into Table
II-style windowed counter rows, and :func:`chrome_trace` renders a
run as a ``chrome://tracing``/Perfetto-loadable timeline.
"""

from .capture import capture_trace, store_trace
from .chrometrace import chrome_trace, validate_chrome_trace, write_chrome_trace
from .events import (
    ALL_KINDS,
    BRANCH_PREDICT,
    BRANCH_RESOLVE,
    DSB_EVICT,
    DSB_FILL,
    DSB_FLUSH,
    FETCH_BLOCK,
    ITLB_FILL,
    SB_DRAIN,
    SQUASH,
    STORE_COMMIT,
    Event,
    EventBus,
    TraceRecorder,
)
from .heatmap import HEATMAP_SCHEMA, LineView, OccupancySnapshot, owner_classifier
from .timeseries import WINDOW_COUNTERS, CounterSampler

__all__ = [
    "ALL_KINDS",
    "capture_trace",
    "store_trace",
    "BRANCH_PREDICT",
    "BRANCH_RESOLVE",
    "DSB_EVICT",
    "DSB_FILL",
    "DSB_FLUSH",
    "FETCH_BLOCK",
    "ITLB_FILL",
    "SB_DRAIN",
    "SQUASH",
    "STORE_COMMIT",
    "Event",
    "EventBus",
    "TraceRecorder",
    "HEATMAP_SCHEMA",
    "LineView",
    "OccupancySnapshot",
    "owner_classifier",
    "WINDOW_COUNTERS",
    "CounterSampler",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
