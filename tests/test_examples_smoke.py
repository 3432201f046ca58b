"""Smoke tests that the (fast) example scripts run end to end --
guards the documented entry points against bitrot.  The expensive
examples are exercised through their underlying APIs elsewhere."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "warm run" in out
    assert "micro-op cache" in out


def test_gadget_census(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gadget_census", "40"])
    load_example("gadget_census").main()
    out = capsys.readouterr().out
    assert "abundance ratio" in out


def test_lfence_bypass(capsys):
    load_example("lfence_bypass").main()
    out = capsys.readouterr().out
    assert "LFENCE bypassed" in out
    assert "CPUID blocks the leak" in out


def test_examples_all_have_docstrings_and_main():
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), path
        assert "def main(" in source, path
        assert '__name__ == "__main__"' in source, path


def test_observe_heatmap(capsys):
    load_example("observe_heatmap").main()
    out = capsys.readouterr().out
    assert "µop cache occupancy" in out
    assert "conflict evictions" in out
    assert "mutually exclusive sets" in out


def test_attack_sessions(capsys):
    load_example("attack_sessions").main()
    out = capsys.readouterr().out
    assert "byte-identical (reset parity)" in out
    assert "reset-reuse" in out


def test_mitigations_demo(capsys):
    load_example("mitigations_demo").main()
    out = capsys.readouterr().out
    assert "flush-on-crossing" in out
    assert "privilege-partitioned accuracy: 100%" in out
    assert "mimicry evades" in out
