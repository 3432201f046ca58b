"""Attack-session layer: shared driver lifecycle over reusable cores,
with the channel protocol (:class:`ChannelSession`) and the leak
protocol (:class:`TransientSession`) on top."""

from repro.session.base import (
    AttackSession,
    AttackStats,
    no_preflight,
    preflight_suppressed,
    read_elapsed,
)
from repro.session.channel import ChannelReport, ChannelSession
from repro.session.pool import SessionPool, shared_pool
from repro.session.transient import TransientSession

__all__ = [
    "AttackSession",
    "AttackStats",
    "ChannelReport",
    "ChannelSession",
    "SessionPool",
    "TransientSession",
    "no_preflight",
    "preflight_suppressed",
    "read_elapsed",
    "shared_pool",
]
