"""Harness unit tests: job hashing, the content-addressed cache, the
executor (parallel, serial, retries, timeouts) and sweep expansion.

The determinism tests are the cache's safety argument: same job hash
must mean byte-identical result JSON even across fresh processes, and
any change to seed/config/params must change the hash (no false hits).
"""

import json
import subprocess
import sys
import time

import pytest

from repro.cpu.config import CPUConfig
from repro.harness import (
    CACHE_SCHEMA_VERSION,
    Job,
    NullCache,
    ResultCache,
    Sweep,
    TieredResultCache,
    TransientJobError,
    canonical_json,
    fingerprint_program,
    grid,
    outcome_records,
    register,
    run_jobs,
    write_csv,
    write_jsonl,
)
from repro.harness.job import resolve


# ----------------------------------------------------------------------
# Test-only job functions (run serially so registration in this module
# is always visible; cross-process tests use the built-in catalogue).

_FLAKY_STATE = {"calls": 0}


@register("test.echo")
def _echo(config, seed, value):
    return {"value": value, "seed": seed, "config": config.name}


@register("test.flaky")
def _flaky(config, seed, fail_times):
    _FLAKY_STATE["calls"] += 1
    if _FLAKY_STATE["calls"] <= fail_times:
        raise TransientJobError("not yet")
    return "ok"


@register("test.fatal")
def _fatal(config, seed):
    raise ValueError("permanently broken")


@register("test.sleepy")
def _sleepy(config, seed, seconds):
    time.sleep(seconds)
    return "done"


def _size_job(n=32, iters=2, **kwargs) -> Job:
    return Job("characterize.size", CPUConfig.skylake(),
               {"n": n, "iters": iters}, **kwargs)


# ----------------------------------------------------------------------
# Hashing


def test_same_job_same_hash():
    assert _size_job().key() == _size_job().key()


def test_seed_changes_hash():
    assert _size_job(seed=0).key() != _size_job(seed=1).key()


def test_params_change_hash():
    assert _size_job(n=32).key() != _size_job(n=64).key()


def test_config_changes_hash():
    a = _size_job()
    b = Job("characterize.size", CPUConfig.skylake(uop_cache_ways=12),
            {"n": 32, "iters": 2})
    assert a.key() != b.key()
    c = Job("characterize.size", CPUConfig.zen(), {"n": 32, "iters": 2})
    assert a.key() != c.key()


def test_tag_does_not_change_hash():
    assert _size_job(tag="a").key() == _size_job(tag="b").key()


def test_hash_stable_across_interpreters():
    """The key must be reproducible in a brand-new interpreter (no
    dependence on hash randomisation or import order)."""
    here = _size_job().key()
    code = (
        "from repro.cpu.config import CPUConfig\n"
        "from repro.harness import Job\n"
        "print(Job('characterize.size', CPUConfig.skylake(),"
        " {'n': 32, 'iters': 2}).key())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == here


def test_program_fingerprint_sensitive_to_code():
    from repro.core import microbench

    a = fingerprint_program(microbench.size_loop(8, 2))
    b = fingerprint_program(microbench.size_loop(9, 2))
    assert a != b
    assert a == fingerprint_program(microbench.size_loop(8, 2))


def test_table1_job_key_and_fingerprint_are_pinned():
    """Warm caches stay valid only while keys do not drift: a Table-I
    covert job's key and its channel program's fingerprint are pinned
    as literals, and state the simulator derives while running (memoized
    decodes, per-uop tables) must not enter the fingerprint."""
    from repro.core.covert import CovertChannel
    from repro.harness.experiments import artifact_sweeps

    job = artifact_sweeps(["table1"])["table1"].jobs()[0]
    assert job.params["mode"] == "Same address space"
    assert job.key() == (
        "85af4944af815bf73484c2d3d6b4d827225c0a4b375b296b4d5aaf482ba64b97"
    )
    channel = CovertChannel()
    pinned = "b3d7486ea4d41973106b36a87190325dc7b22e0427504e0a18af21a59105c3d2"
    assert fingerprint_program(channel.program) == pinned
    channel.send_bits([1, 0])
    assert fingerprint_program(channel.program) == pinned


def test_unknown_fn_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown job function"):
        Job("no.such.fn").key()


def test_unserialisable_params_rejected():
    with pytest.raises(TypeError, match="JSON-serialisable"):
        canonical_json({"bad": object()})


# ----------------------------------------------------------------------
# Cache


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    cache.put(key, "test.echo", {"x": 1})
    assert cache.get(key) == {"x": 1}
    assert key in cache
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.total_bytes > 0
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_cache_rejects_wrong_schema(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" + "0" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA_VERSION + 1, "key": key, "result": 5}
    ))
    assert cache.get(key) is None


def test_cache_rejects_corrupt_blob(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" + "0" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(key) is None


def test_cache_blob_is_canonical(tmp_path):
    """The stored blob must be byte-identical no matter who writes it."""
    a, b = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    key = "12" + "0" * 62
    a.put(key, "f", {"z": 1, "a": [1.5, 2]})
    b.put(key, "f", {"a": [1.5, 2], "z": 1})
    assert a.path_for(key).read_bytes() == b.path_for(key).read_bytes()


def test_cache_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    assert ResultCache().root == tmp_path / "envcache"


# ----------------------------------------------------------------------
# Cache: corrupt-blob quarantine


def test_corrupt_blob_is_quarantined_not_raised(tmp_path):
    """A truncated/garbled result blob degrades to a miss and is moved
    aside so the lookup path never re-trips on it."""
    cache = ResultCache(tmp_path)
    key = "ab" + "1" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text('{"schema": 3, "key": "' + key)  # torn mid-write
    assert cache.get(key) is None
    assert not path.exists()
    quarantined = list(cache.quarantine_dir.iterdir())
    assert len(quarantined) == 1
    assert cache.get(key) is None  # clean miss forever after


def test_wrong_key_blob_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" + "1" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "key": "ee" + "0" * 62,
         "result": 5}))
    assert cache.get(key) is None
    assert not path.exists()
    assert list(cache.quarantine_dir.iterdir())


def test_truncated_artifact_is_quarantined(tmp_path):
    """An artifact whose bytes disagree with its integrity sidecar is
    a miss, and both files land in quarantine."""
    cache = ResultCache(tmp_path)
    key = "ef" + "1" * 62
    path = cache.put_artifact(key, "trace.bin", b"x" * 1024)
    sidecar = path.with_name("trace.bin" + cache.ARTIFACT_DIGEST_SUFFIX)
    assert cache.get_artifact(key, "trace.bin") == b"x" * 1024
    path.write_bytes(b"x" * 100)  # torn copy
    assert cache.get_artifact(key, "trace.bin") is None
    assert not path.exists() and not sidecar.exists()
    assert len(list(cache.quarantine_dir.iterdir())) == 2
    assert cache.get_artifact(key, "trace.bin") is None


def test_legacy_artifact_without_sidecar_is_served(tmp_path):
    cache = ResultCache(tmp_path)
    key = "01" + "1" * 62
    path = cache.artifact_path(key, "old.bin")
    path.parent.mkdir(parents=True)
    path.write_bytes(b"pre-sidecar blob")
    assert cache.get_artifact(key, "old.bin") == b"pre-sidecar blob"


def test_clear_empties_quarantine_and_sidecars(tmp_path):
    cache = ResultCache(tmp_path)
    key = "23" + "1" * 62
    bad = cache.path_for(key)
    bad.parent.mkdir(parents=True)
    bad.write_text("{torn")
    assert cache.get(key) is None  # quarantines
    cache.put(key, "f", {"x": 1})
    cache.put_artifact(key, "a.bin", b"data")
    cache.put_index("45" + "1" * 62, key)
    removed = cache.clear()
    # result blob + artifact + quarantined blob (sidecar and key-index
    # entry uncounted)
    assert removed == 3
    assert not cache.quarantine_dir.exists()
    assert list(cache.index_dir.rglob("*")) == []
    assert cache.stats().entries == 0
    assert cache.stats().artifacts == 0


# ----------------------------------------------------------------------
# Cache: cluster tiering (memory -> local disk -> shared)


def test_tiered_cache_reads_through_and_promotes(tmp_path):
    shared = ResultCache(tmp_path / "shared")
    tiered = TieredResultCache(ResultCache(tmp_path / "local"), shared)
    key = "45" + "1" * 62
    shared.put(key, "f", {"who": "other-node"})
    # first read walks to the shared tier...
    assert tiered.get(key) == {"who": "other-node"}
    assert tiered.tier_hits["shared"] == 1
    # ...and promotes: now on local disk and in the hot set
    assert tiered.local.get(key) == {"who": "other-node"}
    assert tiered.get(key) == {"who": "other-node"}
    assert tiered.tier_hits["memory"] == 1


def test_tiered_cache_writes_through_every_tier(tmp_path):
    tiered = TieredResultCache.from_roots(
        tmp_path / "local", tmp_path / "shared")
    key = "67" + "1" * 62
    tiered.put(key, "f", {"x": 9})
    assert tiered.local.get(key) == {"x": 9}
    assert tiered.shared.get(key) == {"x": 9}
    # a sibling node sharing the store sees the result
    sibling = TieredResultCache.from_roots(
        tmp_path / "other-local", tmp_path / "shared")
    assert sibling.get(key) == {"x": 9}
    assert sibling.tier_hits["shared"] == 1


def test_tiered_cache_memory_tier_is_bounded_lru(tmp_path):
    tiered = TieredResultCache.from_roots(
        tmp_path / "local", None, memory_capacity=2)
    keys = [f"{i:02d}" + "2" * 62 for i in range(3)]
    for i, key in enumerate(keys):
        tiered.put(key, "f", {"i": i})
    assert tiered.hot_keys == 2  # oldest evicted from memory...
    assert tiered.get(keys[0]) == {"i": 0}  # ...but still on disk
    assert tiered.tier_hits["local"] == 1


def test_tiered_cache_clear_leaves_shared_store_alone(tmp_path):
    tiered = TieredResultCache.from_roots(
        tmp_path / "local", tmp_path / "shared")
    key = "89" + "1" * 62
    tiered.put(key, "f", {"x": 1})
    tiered.clear()
    assert tiered.local.get(key) is None
    assert tiered.shared.get(key) == {"x": 1}  # fleet property, not ours
    assert tiered.get(key) == {"x": 1}  # read-through refills


def test_tiered_cache_promotes_artifacts_from_shared(tmp_path):
    shared = ResultCache(tmp_path / "shared")
    tiered = TieredResultCache(ResultCache(tmp_path / "local"), shared)
    key = "ab" + "2" * 62
    shared.put_artifact(key, "trace.json", b"[1, 2]")
    assert tiered.get_artifact(key, "trace.json") == b"[1, 2]"
    assert tiered.local.get_artifact(key, "trace.json") == b"[1, 2]"


# ----------------------------------------------------------------------
# Executor: serial semantics


def test_serial_run_and_cache(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [Job("test.echo", params={"value": v}) for v in (1, 2)]
    outcomes, summary = run_jobs(jobs, workers=1, cache=cache)
    assert [o.result["value"] for o in outcomes] == [1, 2]
    assert (summary.executed, summary.cached, summary.failed) == (2, 0, 0)

    outcomes, summary = run_jobs(jobs, workers=1, cache=cache)
    assert (summary.executed, summary.cached) == (0, 2)
    assert all(o.from_cache for o in outcomes)


def test_refresh_recomputes(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [Job("test.echo", params={"value": 9})]
    run_jobs(jobs, cache=cache)
    _, summary = run_jobs(jobs, cache=cache, refresh=True)
    assert summary.executed == 1
    assert summary.cached == 0


def test_no_cache_runs_everything():
    jobs = [Job("test.echo", params={"value": 3})]
    _, s1 = run_jobs(jobs, cache=None)
    _, s2 = run_jobs(jobs, cache=NullCache())
    assert s1.executed == s2.executed == 1


def test_duplicate_jobs_computed_once():
    jobs = [Job("test.echo", params={"value": 7}) for _ in range(3)]
    outcomes, summary = run_jobs(jobs)
    assert summary.executed == 1
    assert summary.cached == 0  # nothing was read from a cache
    assert summary.duplicates == 2  # fanned out from the single computation
    assert [o.result["value"] for o in outcomes] == [7, 7, 7]


def test_transient_failure_retried():
    _FLAKY_STATE["calls"] = 0
    outcomes, summary = run_jobs(
        [Job("test.flaky", params={"fail_times": 1})], retries=1,
    )
    assert outcomes[0].ok
    assert outcomes[0].result == "ok"
    assert summary.retries == 1


def test_retry_budget_exhausted():
    _FLAKY_STATE["calls"] = 0
    outcomes, summary = run_jobs(
        [Job("test.flaky", params={"fail_times": 10})], retries=2,
    )
    assert not outcomes[0].ok
    assert "TransientJobError" in outcomes[0].error
    assert summary.failed == 1
    assert summary.retries == 2


def test_fatal_failure_not_retried():
    outcomes, summary = run_jobs([Job("test.fatal")], retries=3)
    assert not outcomes[0].ok
    assert "permanently broken" in outcomes[0].error
    assert summary.retries == 0


def test_failed_job_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    outcomes, _ = run_jobs([Job("test.fatal")], cache=cache, retries=0)
    assert cache.get(outcomes[0].key) is None


def test_per_job_timeout():
    outcomes, summary = run_jobs(
        [Job("test.sleepy", params={"seconds": 5.0})],
        timeout=0.2, retries=0,
    )
    assert not outcomes[0].ok
    assert "JobTimeoutError" in outcomes[0].error
    assert summary.failed == 1


# ----------------------------------------------------------------------
# Executor: process pool


def test_parallel_matches_serial():
    jobs = [_size_job(n) for n in (32, 64, 96, 128)]
    serial, _ = run_jobs(jobs, workers=1)
    parallel, summary = run_jobs(jobs, workers=2)
    assert [o.result for o in parallel] == [o.result for o in serial]
    assert summary.executed == 4


def test_same_hash_byte_identical_json_across_processes(tmp_path):
    """Two fresh worker processes computing the same job must produce
    byte-identical canonical result JSON (and hence identical cached
    blobs) -- the cache's core soundness property."""
    job = _size_job(n=48, iters=3)
    blobs = []
    for sub in ("a", "b"):
        cache = ResultCache(tmp_path / sub)
        outcomes, summary = run_jobs([job], workers=2, cache=cache)
        assert summary.executed == 1
        blobs.append(cache.path_for(job.key()).read_bytes())
        assert canonical_json(outcomes[0].result) in blobs[-1]
    assert blobs[0] == blobs[1]


def test_pool_failure_degrades_to_serial(monkeypatch):
    """If the pool cannot be created the runner falls back to serial
    in-process execution and still returns every result."""
    import repro.harness.executor as executor

    def broken_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", broken_pool)
    jobs = [Job("test.echo", params={"value": v}) for v in (1, 2, 3)]
    outcomes, summary = run_jobs(jobs, workers=4)
    assert [o.result["value"] for o in outcomes] == [1, 2, 3]
    assert summary.fallback_serial
    assert summary.executed == 3


# ----------------------------------------------------------------------
# Sweeps


def test_grid_order():
    points = grid({"a": [1, 2], "b": [10, 20]})
    assert points == [
        {"a": 1, "b": 10}, {"a": 1, "b": 20},
        {"a": 2, "b": 10}, {"a": 2, "b": 20},
    ]


def test_sweep_expansion():
    sweep = Sweep("test.echo", axes={"value": [1, 2, 3]}, base={}, seed=5)
    jobs = sweep.jobs()
    assert len(sweep) == 3
    assert [j.params["value"] for j in jobs] == [1, 2, 3]
    assert all(j.seed == 5 for j in jobs)
    assert jobs[0].tag == "test.echo[0]"


def test_sweep_rejects_axis_base_clash():
    with pytest.raises(ValueError, match="overlap"):
        Sweep("test.echo", axes={"value": [1]}, base={"value": 2})


# ----------------------------------------------------------------------
# Artifacts


def test_outcome_records_and_writers(tmp_path):
    jobs = [Job("test.echo", params={"value": v}) for v in (1, 2)]
    outcomes, _ = run_jobs(jobs)
    records = outcome_records(outcomes)
    assert records[0]["fn"] == "test.echo"
    assert records[0]["value"] == 1
    assert records[0]["result_value"] == 1
    assert records[0]["cached"] is False

    jsonl = tmp_path / "out.jsonl"
    write_jsonl(jsonl, records)
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["result_value"] == 2

    csv_path = tmp_path / "out.csv"
    write_csv(csv_path, records)
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("fn,")
    assert len(text) == 3


def test_registry_resolves_builtins():
    entry = resolve("covert.table1_row")
    assert entry.name == "covert.table1_row"
