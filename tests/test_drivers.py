"""The driver registry: one table feeds lint, trace and profile."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.drivers import DEMOS, DRIVERS
from repro.lint.runner import TARGETS
from repro.observe.capture import capture_trace
from repro.serve.spec import ExperimentSpec, SpecError


def test_every_demo_name_passes_trace_spec_validation():
    assert DEMOS == ("classic", "covert", "keyextract", "smt", "spectre")
    for name in DEMOS:
        spec = ExperimentSpec.from_json(
            {"kind": "trace", "params": {"experiment": name}})
        assert spec.describe() == f"trace:{name}"


def test_unknown_name_is_refused_everywhere():
    with pytest.raises(SpecError, match="trace experiment must be one of"):
        ExperimentSpec.from_json(
            {"kind": "trace", "params": {"experiment": "lfence"}})
    with pytest.raises(KeyError, match="unknown trace experiment"):
        capture_trace("lfence")
    with pytest.raises(SystemExit):
        main(["trace", "lfence"])


def test_lint_builds_every_registry_driver_in_registry_order():
    drivers = [name for name in TARGETS if name in DRIVERS]
    assert drivers == list(DRIVERS)


def test_registry_imports_only_the_standard_library():
    """The CLI builds its choices from the registry at start-up, so
    importing it must load no ``repro`` module beyond itself."""
    code = (
        "import sys, repro\n"
        "before = {m for m in sys.modules if m.startswith('repro')}\n"
        "import repro.drivers\n"
        "after = {m for m in sys.modules if m.startswith('repro')}\n"
        "print(sorted(after - before))\n"
    )
    src = str(pathlib.Path(repro.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['repro.drivers']"



def test_trace_cli_stores_events_chrome_and_every_heatmap(tmp_path, capsys):
    assert main(["trace", "covert", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cached 5 artifact(s)" in out
    stored = pathlib.Path(out.rsplit(" under ", 1)[1].strip())
    names = sorted(p.name for p in stored.iterdir()
                   if not p.name.endswith(".sha256"))
    assert names == ["chrome.json", "events.json", "heatmap-0.json",
                     "heatmap-1.json", "heatmap-2.json"]
    # Listing 1's three phases, in order
    labels = [json.loads((stored / f"heatmap-{i}.json").read_text())["label"]
              for i in range(3)]
    assert labels == ["receiver primed", "after tiger (bit=1)",
                      "after zebra (bit=0)"]
