"""Satellite: the result cache under concurrent multi-process writers.

The serving layer makes simultaneous writers the *normal* case (N pool
workers plus the batch CLI against one cache directory), so
``put``/``put_artifact`` must be atomic: a reader sees either nothing
or a complete record -- never a torn file -- and no ``.tmp`` litter
survives.
"""

import json
import multiprocessing
import os

from repro.harness.cache import ResultCache, _atomic_write


def _hammer(args):
    """One writer process: interleave identical-key writes, private-key
    writes and artifact writes against a shared cache directory."""
    root, worker_id, rounds = args
    cache = ResultCache(root)
    for i in range(rounds):
        # everyone fights over the same key with identical content
        cache.put("00" * 32, "stress.shared", {"round": "same-for-all"})
        # a private key per (worker, round)
        cache.put(f"{worker_id:02d}{i:02d}" + "ab" * 30,
                  "stress.private", {"worker": worker_id, "i": i})
        # artifact under the shared key
        cache.put_artifact("00" * 32, f"w{worker_id}.json",
                           json.dumps({"worker": worker_id, "i": i}))
    return worker_id


def test_concurrent_writers_one_cache_dir(tmp_path):
    root = tmp_path / "stress-cache"
    workers, rounds = 8, 25
    with multiprocessing.Pool(workers) as pool:
        done = pool.map(_hammer, [(str(root), w, rounds)
                                  for w in range(workers)])
    assert sorted(done) == list(range(workers))

    cache = ResultCache(root)
    # the contested key holds one complete, parseable record
    assert cache.get("00" * 32) == {"round": "same-for-all"}
    # every private record survived intact
    for w in range(workers):
        for i in range(rounds):
            key = f"{w:02d}{i:02d}" + "ab" * 30
            assert cache.get(key) == {"worker": w, "i": i}, (w, i)
    # every artifact is complete JSON
    for w in range(workers):
        blob = cache.get_artifact("00" * 32, f"w{w}.json")
        assert json.loads(blob)["worker"] == w
    # no temp-file litter anywhere in the tree
    strays = [p for p in root.rglob("*.tmp")]
    assert strays == []
    stats = cache.stats()
    assert stats.entries == workers * rounds + 1
    assert stats.artifacts == workers


def _clear_racer(args):
    root, role, rounds = args
    cache = ResultCache(root)
    if role == "writer":
        for i in range(rounds):
            cache.put(f"{i % 16:02x}" + "cd" * 31, "stress.race", {"i": i})
    else:
        for _ in range(rounds // 4):
            cache.clear()
    return role


def test_writers_race_concurrent_clear(tmp_path):
    """put() must survive clear() yanking shard directories out from
    under it (the FileNotFoundError retry path in _atomic_write)."""
    root = tmp_path / "race-cache"
    jobs = ([(str(root), "writer", 200)] * 4
            + [(str(root), "clearer", 40)] * 2)
    with multiprocessing.Pool(len(jobs)) as pool:
        roles = pool.map(_clear_racer, jobs)
    assert roles.count("writer") == 4
    # whatever survived is readable and complete
    cache = ResultCache(root)
    stats = cache.stats()
    for shard in (root / "objects").glob("*/*.json"):
        record = json.loads(shard.read_text())
        assert record["result"]["i"] >= 0
    assert stats.entries >= 0  # and stats() itself didn't trip


def test_atomic_write_retries_into_removed_directory(tmp_path):
    target = tmp_path / "a" / "b" / "file.json"
    _atomic_write(target, b"{}")
    assert target.read_bytes() == b"{}"
    # overwrite is atomic too: the temp file never lingers
    _atomic_write(target, b'{"v": 2}')
    assert json.loads(target.read_text())["v"] == 2
    assert list(tmp_path.rglob("*.tmp")) == []


def test_clear_sweeps_stray_tmp_files(tmp_path):
    cache = ResultCache(tmp_path / "tmp-cache")
    cache.put("ef" * 32, "stress.tmp", {"x": 1})
    shard = cache.path_for("ef" * 32).parent
    stray = shard / "leftover.tmp"
    stray.write_text("torn write debris")
    cache.put_index("cd" * 32, "ef" * 32)
    index_stray = cache.index_path("cd" * 32).with_name("leftover.tmp")
    index_stray.write_text("torn write debris")
    removed = cache.clear()
    assert removed >= 3  # the record and the strays
    assert not stray.exists()
    assert not index_stray.exists()
    assert not cache.index_path("cd" * 32).exists()
    assert cache.stats().entries == 0


def test_stats_counts_artifacts(tmp_path):
    """Satellite: `repro cache stats` accounts for named artifacts."""
    cache = ResultCache(tmp_path / "stats-cache")
    cache.put("12" * 32, "stress.stats", {"x": 1})
    cache.put_artifact("12" * 32, "one.json", "{}")
    cache.put_artifact("12" * 32, "two.bin", os.urandom(64))
    cache.put_index("34" * 32, "12" * 32)  # key-index entries are not counted
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.artifacts == 2
    assert stats.artifact_bytes >= 64
    rendered = stats.format()
    assert "2 artifact(s)" in rendered
