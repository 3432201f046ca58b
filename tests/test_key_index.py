"""The result cache's key index: a warm ``run_jobs`` builds no program.

A job whose key would build a program is looked up by its prekey
first.  Every index state other than a valid entry naming a valid blob
of the same function must cost exactly one ordinary keyed build and
return the result stored under the key ``Job.key()`` computes.
"""

import json

import pytest

from repro.harness import (CACHE_SCHEMA_VERSION, Job, ResultCache, register,
                           run_jobs)
from repro.harness import cache as cache_module
from repro.harness import job as job_module
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler

_BUILDS = [0]


def _counted_program(config, params):
    _BUILDS[0] += 1
    asm = Assembler()
    asm.emit(enc.nop(params["x"] % 15 + 1), enc.halt())
    return asm.assemble()


@register("test.indexed_build", program_builder=_counted_program)
def _indexed_build(config, seed, x):
    return {"x": x, "seed": seed}


@register("test.indexed_other", program_builder=_counted_program)
def _indexed_other(config, seed, x):
    return {"other": x}


XS = (1, 2, 3)


def _jobs(fn="test.indexed_build"):
    return [Job(fn, params={"x": x}, seed=5) for x in XS]


def _ask(cache, **kwargs):
    """Run fresh jobs; returns ``(outcomes, summary, programs built)``."""
    _BUILDS[0] = 0
    outcomes, summary = run_jobs(_jobs(), cache=cache, **kwargs)
    assert all(o.ok for o in outcomes)
    return outcomes, summary, _BUILDS[0]


def _expected():
    return [{"x": x, "seed": 5} for x in XS]


@pytest.fixture
def indexed(tmp_path):
    """A cache holding the results and one index entry per job, with
    the keys ``Job.key()`` computes."""
    cache = ResultCache(tmp_path / "cache")
    _, cold, _ = _ask(cache)
    assert cold.executed == len(XS)
    assert not cache.index_dir.exists()  # a cold pass writes no entry
    _, warm, builds = _ask(cache)
    assert (warm.cached, builds) == (len(XS), len(XS))
    keys = [job.key() for job in _jobs()]
    prekeys = [job.prekey() for job in _jobs()]
    assert all(cache.index_path(p).is_file() for p in prekeys)
    return cache, keys, prekeys


def test_repeat_ask_builds_no_program(indexed):
    cache, keys, _ = indexed
    outcomes, summary, builds = _ask(cache)
    assert builds == 0
    assert (summary.executed, summary.cached) == (0, len(XS))
    assert [o.key for o in outcomes] == keys
    assert [o.job.key() for o in outcomes] == keys
    assert [o.result for o in outcomes] == _expected()
    assert all(o.from_cache for o in outcomes)


def test_prekey_builds_no_program():
    _BUILDS[0] = 0
    job = _jobs()[0]
    prekey = job.prekey()
    assert _BUILDS[0] == 0
    assert len(prekey) == 64 and prekey != job.key()
    assert _BUILDS[0] == 1
    assert job.prekey() is None  # keyed: the index would save nothing


def _bad_entries(prekey, other_prekey, key):
    good = {"schema": CACHE_SCHEMA_VERSION, "prekey": prekey, "key": key}
    return {
        "truncated": json.dumps(good)[:40].encode(),
        "malformed": b'["not", "an", "entry"]',
        "not-a-key": json.dumps({**good, "key": "../" + key[3:]}).encode(),
        "wrong-schema": json.dumps({**good, "schema": 3}).encode(),
        "wrong-prekey": json.dumps({**good, "prekey": other_prekey}).encode(),
    }


@pytest.mark.parametrize("kind", ["truncated", "malformed", "not-a-key",
                                  "wrong-schema", "wrong-prekey"])
def test_malformed_entry_is_quarantined_and_keyed_by_building(indexed, kind):
    cache, keys, prekeys = indexed
    path = cache.index_path(prekeys[0])
    bad = _bad_entries(prekeys[0], prekeys[1], keys[0])[kind]
    path.write_bytes(bad)
    outcomes, summary, builds = _ask(cache)
    assert builds == 1
    assert (summary.executed, summary.cached) == (0, len(XS))
    assert [o.key for o in outcomes] == keys
    assert [o.result for o in outcomes] == _expected()
    moved = cache.quarantine_dir / "_".join(path.relative_to(cache.root).parts)
    assert moved.read_bytes() == bad
    # the hit keyed by building wrote the entry again
    assert _ask(cache)[2] == 0


def test_entry_naming_another_functions_blob_is_keyed_by_building(indexed):
    cache, keys, prekeys = indexed
    other = _jobs("test.indexed_other")[0]
    run_jobs([other], cache=cache)
    cache.put_index(prekeys[0], other.key())
    outcomes, _, builds = _ask(cache)
    assert builds == 1
    assert [o.key for o in outcomes] == keys
    assert [o.result for o in outcomes] == _expected()


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_entry_whose_blob_is_gone_is_keyed_by_building(indexed, damage):
    cache, keys, _ = indexed
    blob = cache.path_for(keys[0])
    if damage == "missing":
        blob.unlink()
    else:
        blob.write_text('{"schema": 4, "key": "torn')
    outcomes, summary, builds = _ask(cache)
    assert builds == 1
    assert (summary.executed, summary.cached) == (1, len(XS) - 1)
    assert [o.key for o in outcomes] == keys
    assert [o.result for o in outcomes] == _expected()
    assert cache.get(keys[0]) == _expected()[0]
    assert (cache.quarantine_dir.exists()) == (damage == "corrupt")


def test_changed_source_digest_misses(indexed, monkeypatch):
    cache, keys, _ = indexed
    monkeypatch.setattr(job_module, "source_digest", lambda: "0" * 64)
    outcomes, summary, builds = _ask(cache)
    assert builds == len(XS)
    assert (summary.executed, summary.cached) == (0, len(XS))
    assert [o.key for o in outcomes] == keys


def _spy_on_index(monkeypatch):
    calls = []
    for name in ("get_indexed", "put_index"):
        def spy(self, *args, _name=name, _real=getattr(ResultCache, name)):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(ResultCache, name, spy)
    return calls


def test_refresh_skips_the_index(indexed, monkeypatch):
    cache, keys, _ = indexed
    calls = _spy_on_index(monkeypatch)
    outcomes, summary, builds = _ask(cache, refresh=True)
    assert calls == []
    assert builds == len(XS)
    assert summary.executed == len(XS)
    assert [o.key for o in outcomes] == keys


def test_prekeyed_job_never_touches_the_index(indexed, monkeypatch):
    cache, keys, _ = indexed
    calls = _spy_on_index(monkeypatch)
    jobs = _jobs()
    assert [job.key() for job in jobs] == keys
    outcomes, summary = run_jobs(jobs, cache=cache)
    assert calls == []
    assert summary.cached == len(XS)
    assert [o.result for o in outcomes] == _expected()


def test_unwritable_index_still_answers(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    _ask(cache)

    def refuse(path, blob):
        raise PermissionError(f"read-only: {path}")

    monkeypatch.setattr(cache_module, "_atomic_write", refuse)
    outcomes, summary, builds = _ask(cache)
    assert (summary.cached, builds) == (len(XS), len(XS))
    assert [o.result for o in outcomes] == _expected()
    assert not cache.index_dir.exists()
