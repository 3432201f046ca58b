"""Attack-session layer: shared driver lifecycle over reusable cores."""

from repro.session.base import (
    AttackSession,
    AttackStats,
    no_preflight,
    preflight_suppressed,
    read_elapsed,
)
from repro.session.channel import ChannelReport, ChannelSession
from repro.session.pool import SessionPool, shared_pool

__all__ = [
    "AttackSession",
    "AttackStats",
    "ChannelReport",
    "ChannelSession",
    "SessionPool",
    "no_preflight",
    "preflight_suppressed",
    "read_elapsed",
    "shared_pool",
]
