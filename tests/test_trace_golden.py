"""Golden trace captures: every ``repro trace`` experiment, pinned by
digest.

Each digest is the SHA-256 of the capture's event records
(``json.dumps(recorder.as_records())``) followed by each heatmap's
``json.dumps(snap.to_json())``, in order.  The capture runs twice: cold
(the pooled session dropped first, so the driver is built from
scratch) and again from the pool (the same session, reset).  Both must
give the golden digest, so a refactor of how the captures are built
or pooled must leave every event and every heatmap byte-identical.
"""

import hashlib
import json

import pytest

from repro.observe.capture import capture_trace
from repro.session.pool import shared_pool

#: First 16 hex digits of each experiment's capture digest.
GOLDEN = {
    "covert": "f33306029735a524",
    "spectre": "78e3a3bc30ed4b9f",
    "classic": "02f2986df06263f6",
    "smt": "a3dc25c79b06af7f",
    "keyextract": "545bdc9665edece7",
}


def _digest(name: str) -> str:
    recorder, snaps = capture_trace(name)
    digest = hashlib.sha256(json.dumps(recorder.as_records()).encode())
    for snap in snaps:
        digest.update(json.dumps(snap.to_json()).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_capture_is_golden_cold_and_pooled(name):
    shared_pool().discard(f"trace.{name}")
    assert _digest(name) == GOLDEN[name], "cold capture"
    assert f"trace.{name}" in shared_pool()
    assert _digest(name) == GOLDEN[name], "pooled capture"
