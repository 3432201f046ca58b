"""Golden session preflight: every registry driver's own static check,
pinned by digest.

Each attack session lints its layout when it is built
(``AttackSession._run_preflight``): the footprint rules, the driver's
claims and the secret-flow taint pass.  ``test_lint_golden`` pins the
lint runner, which builds the drivers with that preflight off; this
file pins what the sessions themselves conclude.  Each digest is the
SHA-256 of a canonical JSON rendering of

- ``lint_findings``: code, severity, message, address and label of
  every finding, in order;
- ``taint_report``: every :class:`~repro.lint.taint.LeakReport` field,
  the capacity bound in bits and the taint diagnostics.

A change to the analysis that keeps its verdicts must leave every
digest unchanged.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.drivers import DRIVERS

#: SHA-256 of each driver's rendered preflight.
GOLDEN = {
    "bti":
        "83e245ff35a1e233192580d59269597ecccffea7ffeba11c1376a1d1802adb7a",
    "classic":
        "f2bd4a3f185d83a57e56325d357bca9f3ec50d12b6a911124927635ba6668b4c",
    "contention-itlb":
        "dc7dc2216874486c854b00d8629cc001477db0fe30cb5f1ac271e7eab58bf061",
    "contention-sb":
        "e001f2deb5fa4c6e40ff6f822d74e8ae3d491b2d6e17c7d646fc305d32fb72fd",
    "covert":
        "2b9a4552fcc009a8f7a6c6b87a7b949c6a595565b67a31a0eba23c8f72bfe682",
    "crossdomain":
        "e0581e66069d1e182f11f7feee90826e98be73d88e4921e7837ce6ce8977fcf4",
    "jumptable":
        "af9735dfeb2ae36d0a4d0a6ea5d70897daf14464edd375effe513faa87d40ffe",
    "keyextract":
        "aec73e4a2f77f924e37d9b0d9ce8edfd61b3a2a2f2c4ce553a18a38aa06c2611",
    "lfence":
        "ab64e06bc2e0897afff621d7e5f0ea0edefe8e5fff72248dac407e960f9155a5",
    "smt":
        "e7ca05a0f25103cce4e537f4afd292bc52da7f4aeb28b4a2b69ee77d4c13260e",
    "spectre":
        "950aa0af66feca63a8c7db994402d25570d133c8481172d8721640136641d0b6",
}


def _finding(diag):
    return [diag.code, str(diag.severity), diag.message, diag.addr,
            diag.label]


def _field(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return [_field(v) for v in value]
    if dataclasses.is_dataclass(value):
        return repr(value)
    return value


def _leak(leak):
    out = {f.name: _field(getattr(leak, f.name))
           for f in dataclasses.fields(leak)}
    out["capacity_bits"] = repr(leak.capacity_bits)
    return out


def render(session) -> str:
    """The canonical rendering of one built session's preflight."""
    report = session.taint_report
    taint = None if report is None else {
        "leaks": [_leak(leak) for leak in report.leaks],
        "capacity_bits": repr(report.capacity_bits),
        "diagnostics": [_finding(d) for d in report.diagnostics],
    }
    return json.dumps({
        "lint_findings": [_finding(d) for d in session.lint_findings],
        "taint_report": taint,
    }, sort_keys=True)


def build(name):
    """The registry driver's session, built with its preflight on.  The
    key extractor wraps its victim/spy session and builds it on first
    use, so that session is the one whose preflight is pinned."""
    driver = DRIVERS[name].make()
    if name == "keyextract":
        return driver._victim_session()
    return driver


def test_every_registry_driver_is_pinned():
    assert sorted(GOLDEN) == sorted(DRIVERS)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_session_preflight_is_golden(name):
    session = build(name)
    assert session.lint_findings is not None, "the preflight did not run"
    digest = hashlib.sha256(render(session).encode()).hexdigest()
    assert digest == GOLDEN[name]
