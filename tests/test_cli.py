"""CLI smoke tests (fast commands only; the heavy experiments are
covered by examples/ and benchmarks/)."""

import re

import pytest

from repro.__main__ import main


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "hot_loop" in out
    assert "mean DSB hit rate" in out


def test_workloads_cpu_selection(capsys):
    assert main(["workloads", "--cpu", "zen2"]) == 0
    out = capsys.readouterr().out
    assert "4096-uop cache" in out
    # the 4K Zen 2 cache swallows the capacity-bound workload
    for line in out.splitlines():
        if line.startswith("large_code"):
            assert "100.0%" in line


def test_census_command(capsys):
    assert main(["census", "60"]) == 0
    out = capsys.readouterr().out
    assert "gadget census" in out
    assert "micro-op cache attack" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_load_example_missing_script_is_clear():
    from repro.__main__ import _load_example

    with pytest.raises(SystemExit, match="example script not found"):
        _load_example("no_such_example")


def test_workloads_json_export(tmp_path, capsys):
    import json

    out_path = tmp_path / "workloads.json"
    assert main(["workloads", "--json", str(out_path)]) == 0
    assert "mean DSB hit rate" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["experiment"] == "workloads"
    names = {row["name"] for row in doc["workloads"]}
    assert "hot_loop" in names
    assert all(0.0 <= row["dsb_hit_rate"] <= 1.0 for row in doc["workloads"])


def test_batch_workloads_cold_then_warm(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["batch", "workloads", "--jobs", "1", "--cache-dir", cache_dir]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "8 executed, 0 from cache" in out
    assert "mean DSB hit rate" in out

    # Warm re-run: every job answered from the content-addressed store.
    assert main(args) == 0
    assert "0 executed, 8 from cache" in capsys.readouterr().out


def test_batch_artifact_export(tmp_path, capsys):
    import json

    jsonl = tmp_path / "wl.jsonl"
    csv_path = tmp_path / "wl.csv"
    assert main(["batch", "workloads", "--no-cache",
                 "--jsonl", str(jsonl), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 8
    record = json.loads(lines[0])
    assert record["fn"] == "workloads.run"
    assert "result_dsb_hit_rate" in record
    assert csv_path.read_text().splitlines()[0].startswith("fn,")


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["batch", "workloads", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "8 cached result(s)" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 8" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "0 cached result(s)" in capsys.readouterr().out


def test_batch_attacks_cold_then_warm(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["batch", "attacks", "--fast", "--cache-dir", cache_dir]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "14 executed, 0 from cache" in out
    assert "Spectre (uop cache)" in out
    assert "key extraction: 1/1 exact" in out
    assert "fence signal" in out

    # Warm re-run: the whole evaluation without one simulation.
    assert main(args) == 0
    assert "0 executed, 14 from cache" in capsys.readouterr().out


def test_profile_command(capsys):
    assert main(["profile", "characterize", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "profile: characterize" in out
    assert "cumulative" in out
    assert "size_point" in out
    # Every phase's patch points must still be hit: a renamed hot
    # method would otherwise silently zero its phase.
    for phase in ("fetch", "decode", "execute", "commit"):
        match = re.search(rf"^  {phase} .*\((\d+) calls\)$", out, re.M)
        assert match, phase
        assert int(match.group(1)) > 0, phase


def test_profile_unknown_experiment():
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["profile", "frobnicate"])


def test_cache_stats_counts_artifacts(tmp_path, capsys):
    from repro.harness import ResultCache

    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    cache.put("ab" * 32, "cli.test", {"x": 1})
    cache.put_artifact("ab" * 32, "trace.json", '{"events": []}')
    cache.put_artifact("ab" * 32, "heatmap-0.json", "{}")
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 cached result(s)" in out
    assert "2 artifact(s)" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 3" in capsys.readouterr().out


def test_submit_requires_fn_for_raw_job():
    with pytest.raises(SystemExit, match="--fn"):
        main(["submit", "job"])


def test_submit_unreachable_server_fails_cleanly(capsys):
    # nothing listens on this port: a clean nonzero exit, not a traceback
    assert main(["submit", "covert", "--port", "1"]) == 1
    assert "submit failed" in capsys.readouterr().out


def test_submit_shorthands_expand_to_valid_specs():
    """Every shorthand must pass server-side admission validation."""
    import argparse

    from repro.__main__ import _submit_spec
    from repro.serve.spec import ExperimentSpec

    base = dict(job_fn=None, params=None, payload=None, scale=1, targets=None,
                target=None, seed=17, priority=0, timeout=None,
                refresh=False, taint=False)
    for shorthand in ("covert", "table2", "workloads", "lint", "trace"):
        args = argparse.Namespace(experiment=shorthand, **base)
        spec = ExperimentSpec.from_json(_submit_spec(args))
        assert spec.kind in ("job", "sweep", "lint", "trace")
    args = argparse.Namespace(
        experiment="job", **{**base, "job_fn": "debug.echo",
                             "params": '{"x": 1}'})
    spec = ExperimentSpec.from_json(_submit_spec(args))
    assert spec.params["params"] == {"x": 1}


def test_serve_parser_accepts_flags():
    """Parser smoke: 'serve' wiring is valid without binding a socket."""
    parser_error = None
    try:
        # parse_known_args via main's parser is not exposed; drive the
        # subparser through a dry run that stops before run_server by
        # pointing at an invalid choice first.
        main(["serve", "--worker-mode", "bogus"])
    except SystemExit as exc:
        parser_error = exc
    assert parser_error is not None and parser_error.code == 2
