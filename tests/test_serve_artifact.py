"""The ``artifact`` spec kind and the trace key: one path for the CLI
and the service.

``repro batch`` runs an ``artifact`` spec in process, so a cache that a
batch run warmed answers the served spec without a worker, with the
same claim verdicts.  ``repro trace`` stores its capture under the
served trace spec's key, so either one answers the other warm.
"""

import json

import pytest

from repro.__main__ import main
from repro.harness.cache import ResultCache
from repro.serve.client import ServeError
from repro.serve.spec import ExperimentSpec, SpecError
from repro.serve.testing import ServerThread


def _artifact(names, **params):
    return {"kind": "artifact", "params": {"names": names, **params}}


@pytest.mark.parametrize("doc, match", [
    (_artifact(["fig11_nope"]), "unknown artifact"),
    (_artifact([]), "non-empty 'names'"),
    (_artifact(["table2"], fast="yes"), "'fast' must be a boolean"),
    ({**_artifact(["table2"]), "seed": 17}, "seed must be 0"),
    (_artifact(["table2"], payload="x"), "unknown artifact spec field"),
    (_artifact(["fig6_smt_chase"], fast=True), "no jobs"),
])
def test_artifact_spec_refuses(doc, match):
    with pytest.raises(SpecError, match=match):
        ExperimentSpec.from_json(doc)


def test_artifact_spec_refusals_are_400(tmp_path):
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        for doc in (_artifact(["fig11_nope"]),
                    _artifact(["table2"], fast=1),
                    {**_artifact(["table2"]), "seed": 17}):
            with pytest.raises(ServeError) as excinfo:
                client.submit(doc)
            assert excinfo.value.status == 400


def test_artifact_spec_keys_its_grid():
    fast = ExperimentSpec.from_json(_artifact(["table2"], fast=True))
    again = ExperimentSpec.from_json(_artifact(["table2"], fast=True))
    full = ExperimentSpec.from_json(_artifact(["table2"]))
    assert fast.key() == again.key() != full.key()
    assert full.key() == ExperimentSpec.from_json(
        _artifact(["table2"], fast=False)).key()
    assert fast.describe() == "artifact:table2"
    assert [job.params["attack"] for job in fast.jobs()] == [
        "classic", "uop_cache"]


def test_batch_warm_cache_answers_the_served_table2(fast_attacks, tmp_path,
                                                    capsys):
    _, _, cache = fast_attacks
    path = tmp_path / "attacks.json"
    assert main(["batch", "attacks", "--fast", "--cache-dir",
                 str(cache.root), "--json", str(path)]) == 0
    assert "0 executed, 14 from cache" in capsys.readouterr().out
    batch = json.loads(path.read_text())
    with ServerThread(cache=ResultCache(cache.root), workers=1,
                      worker_mode="thread") as srv:
        record = srv.client().submit_and_wait(
            _artifact(["table2"], fast=True), timeout=60)
    assert record["status"] == "done" and record["source"] == "cache"
    result = record["result"]
    assert (result["executed"], result["cached"]) == (0, 2)
    assert result["claims"] == [c for c in batch["claims"]
                                if c["artifact"] == "table2"]
    assert result["artifacts"]["table2"] == batch["artifacts"]["table2"]


def test_a_worker_and_the_cache_render_one_document(tmp_path):
    """Executed in a worker, then answered from the jobs it stored."""
    spec = _artifact(["workloads"])
    with ServerThread(cache=ResultCache(tmp_path / "cache"), workers=1,
                      worker_mode="thread") as srv:
        client = srv.client()
        cold = client.submit_and_wait(spec, timeout=120)
        warm = client.submit_and_wait(spec, timeout=60)
    assert cold["source"] != "cache" and warm["source"] == "cache"
    assert (cold["result"]["executed"], warm["result"]["executed"]) == (8, 0)
    for doc in (cold["result"], warm["result"]):
        del doc["executed"], doc["cached"]
    assert cold["result"] == warm["result"]
    suite = warm["result"]["artifacts"]["workloads"]
    assert len(suite["workloads"]) == 8 and warm["result"]["claims"] == []


def _trace_cli(cache_dir, capsys, *flags):
    assert main(["trace", "covert", "--cache-dir", str(cache_dir),
                 *flags]) == 0
    return capsys.readouterr().out


def test_cli_trace_answers_a_served_one(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cold = _trace_cli(cache_dir, capsys, "--heatmap")
    assert "(from cache)" not in cold
    with ServerThread(cache=ResultCache(cache_dir), workers=1,
                      worker_mode="thread") as srv:
        record = srv.client().submit_and_wait(
            {"kind": "trace", "params": {"experiment": "covert"}})
    assert record["source"] == "cache"
    assert record["result"]["artifacts"][:2] == ["events.json", "chrome.json"]
    warm = _trace_cli(cache_dir, capsys, "--heatmap")
    assert warm == cold.replace(" events\n", " events (from cache)\n", 1)


def test_served_trace_answers_the_cli(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    with ServerThread(cache=ResultCache(cache_dir), workers=1,
                      worker_mode="thread") as srv:
        record = srv.client().submit_and_wait(
            {"kind": "trace", "params": {"experiment": "covert"}},
            timeout=300)
    assert record["status"] == "done" and record["source"] != "cache"
    chrome = tmp_path / "covert.json"
    out = _trace_cli(cache_dir, capsys, "--chrome", str(chrome))
    assert out.startswith("trace: covert -- ")
    assert out.splitlines()[0].endswith(" events (from cache)")
    assert json.loads(chrome.read_text())["traceEvents"]
    events = record["result"]["events"]
    assert f"-- {sum(events.values())} events" in out
