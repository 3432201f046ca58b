"""Execution backend: a functional-first, scoreboard-timed dataflow
model with speculative stores buffered until retirement.

The property the attacks need from the backend is precise: a micro-op
executes as soon as its operands are ready (no in-order constraint), a
mispredicted branch is only *discovered* when it executes, and
everything younger is then squashed -- discarding architectural effects
(registers, buffered stores) while leaving microarchitectural effects
(data caches, micro-op cache fills, predictor training) in place.
"""

from repro.backend.execute import Backend
from repro.backend.storebuffer import StoreBuffer

__all__ = ["Backend", "StoreBuffer"]
