"""Content-addressed on-disk result store.

Layout (all JSON, human-inspectable)::

    <root>/objects/<key[:2]>/<key>.json
    <root>/index/<prekey[:2]>/<prekey>

where ``key`` is the job's content hash (:meth:`repro.harness.job.Job.key`).
Because the schema version is baked into the hash, a version bump
simply stops finding old entries; :meth:`ResultCache.get` additionally
verifies the stored schema/key so a corrupt or foreign file degrades
to a miss, never to a wrong result.

The **key index** spares a repeat ask the program builds its keys
cost.  An entry is the canonical JSON ``{schema, prekey, key}`` stored
under the job's :meth:`~repro.harness.job.Job.prekey`: its hash payload
without the program fingerprint, plus a SHA-256 over the relative path
and bytes of every ``*.py`` file of the ``repro`` package
(:func:`~repro.harness.job.source_digest`, once per process).
:func:`~repro.harness.executor.run_jobs` writes an entry only when a
job it keyed by building hits the store, so a cold pass writes none,
and takes an entry's key only when the blob it names validates and
was stored by the same function.  A malformed entry is quarantined
and the job is keyed by building.  The limit: a process whose
``repro`` sources change while it runs writes entries under its
start-up digest.

Writes are atomic (temp file in the destination directory, then
``os.replace``), so concurrent writers -- e.g. two batch runs sharing
a cache -- can only ever race to install identical bytes.

A blob that fails validation anyway (a crashed writer on a filesystem
without atomic-rename durability, a truncating copy, a flipped bit)
is **quarantined**: moved aside into ``<root>/quarantine/`` and
counted as a miss, so the serve worker never re-trips on the same
corrupt file and an operator can inspect what went wrong.  Artifacts
get the same treatment via a ``<name>.sha256`` sidecar written next
to every artifact blob.

:class:`TieredResultCache` stacks the stores for the cluster tier:
an in-memory hot LRU in front of the local disk store, with an
optional *shared* read-through store (a network/shared directory all
nodes mount) behind it -- gets promote hits forward, puts write
through every tier.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.harness.job import CACHE_SCHEMA_VERSION, canonical_json

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: What a job key looks like (a hex SHA-256): an index entry naming
#: anything else is malformed.
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Summary of what the store currently holds (results and named
    artifacts are counted separately)."""

    root: str
    entries: int
    total_bytes: int
    artifacts: int = 0
    artifact_bytes: int = 0

    def format(self) -> str:
        """One-line human rendering."""
        kib = self.total_bytes / 1024
        akib = self.artifact_bytes / 1024
        return (
            f"{self.entries} cached result(s), {kib:.1f} KiB + "
            f"{self.artifacts} artifact(s), {akib:.1f} KiB "
            f"under {self.root} (schema v{CACHE_SCHEMA_VERSION})"
        )


def _unlink_quiet(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _atomic_write(path: Path, blob: bytes) -> Path:
    """Install ``blob`` at ``path`` atomically (temp file in the
    destination directory, then ``os.replace``).

    Safe under concurrent multi-process writers: two processes racing
    on one key each write a private temp file and the final rename is
    atomic, so readers only ever see a complete record.  A concurrent
    ``clear()`` can delete the parent directory between our ``mkdir``
    and the write/rename -- that surfaces as ``FileNotFoundError``, and
    we simply re-create the directory and retry.
    """
    last_error: Optional[BaseException] = None
    for _ in range(5):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            # exist_ok's own is_dir() recheck races against a
            # concurrent clear(): treat it like any other retryable
            # directory churn.
            last_error = exc
            continue
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError as exc:  # parent raced away: retry
            last_error = exc
            continue
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
            return path
        except FileNotFoundError as exc:  # ditto, between mkstemp/replace
            _unlink_quiet(tmp)
            last_error = exc
            continue
        except BaseException:
            _unlink_quiet(tmp)
            raise
    raise last_error  # repeated strikes: the directory will not stay put


class ResultCache:
    """Content-addressed JSON blob store keyed by job hash."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def objects_dir(self) -> Path:
        """Directory holding the sharded result blobs."""
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        """Blob path for a job hash."""
        return self.objects_dir / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt blobs are moved aside for inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a failed-validation file out of the lookup path so it
        reads as a clean miss forever after (best-effort: a concurrent
        quarantine of the same file wins the rename race).  The
        destination name folds in the parent directories so artifacts
        named identically under different keys cannot collide."""
        try:
            relative = path.relative_to(self.root)
        except ValueError:
            relative = Path(path.name)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / "_".join(relative.parts))
        except OSError:
            pass

    # ------------------------------------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """Full validated cache record for ``key`` (``schema``/``key``/
        ``fn``/``result``), or ``None`` on a miss.  A file that exists
        but fails validation -- truncated JSON from a crashed writer,
        foreign schema, mismatched key -- is quarantined, never raised.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if (not isinstance(record, dict)
                or record.get("schema") != CACHE_SCHEMA_VERSION
                or record.get("key") != key
                or "result" not in record):
            self._quarantine(path)
            return None
        return record

    def get(self, key: str) -> Optional[Any]:
        """Cached result for ``key``, or ``None`` on any kind of miss
        (absent, unreadable, corrupt -- corrupt blobs are quarantined)."""
        record = self.get_record(key)
        return None if record is None else record["result"]

    def put(self, key: str, fn: str, result: Any) -> Path:
        """Atomically store ``result`` under ``key``.

        The record is canonical JSON of deterministic fields only, so
        the same job always produces a byte-identical blob regardless
        of which process or machine computed it.
        """
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fn": fn,
            "result": result,
        }
        blob = canonical_json(record)
        return _atomic_write(self.path_for(key), blob)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # key index: prekey -> key, so a warm ask builds no program

    @property
    def index_dir(self) -> Path:
        """Directory holding the sharded key-index entries."""
        return self.root / "index"

    def index_path(self, prekey: str) -> Path:
        """Index entry path for a job prekey."""
        return self.index_dir / prekey[:2] / prekey

    def get_indexed(self, prekey: str, fn: str) -> Optional[Tuple[str, Any]]:
        """``(key, result)`` when the index entry for ``prekey`` names a
        key whose blob validates and was stored by ``fn``, else
        ``None``.  A malformed entry (unparsable, foreign schema, another
        prekey, not a key) is quarantined."""
        path = self.index_path(prekey)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            entry = None
        key = entry.get("key") if isinstance(entry, dict) else None
        if (not isinstance(key, str) or not _KEY_RE.fullmatch(key)
                or entry.get("schema") != CACHE_SCHEMA_VERSION
                or entry.get("prekey") != prekey):
            self._quarantine(path)
            return None
        record = self.get_record(key)
        if record is None or record.get("fn") != fn:
            return None
        return key, record["result"]

    def put_index(self, prekey: str, key: str) -> None:
        """Atomically record that ``prekey`` names ``key``.  Best effort:
        a store that cannot be written (a read-only mount) still answers
        from its blobs."""
        entry = {"schema": CACHE_SCHEMA_VERSION, "prekey": prekey,
                 "key": key}
        try:
            _atomic_write(self.index_path(prekey), canonical_json(entry))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # artifacts: named blobs riding alongside a keyed result (traces,
    # heatmaps, Chrome exports) -- opaque bytes, not schema-checked

    @property
    def artifacts_dir(self) -> Path:
        """Directory holding per-key artifact files."""
        return self.root / "artifacts"

    def artifact_path(self, key: str, name: str) -> Path:
        """On-disk path of artifact ``name`` for result ``key``."""
        if "/" in name or name.startswith("."):
            raise ValueError(f"invalid artifact name {name!r}")
        return self.artifacts_dir / key[:2] / key / name

    #: Sidecar suffix carrying each artifact's content hash.
    ARTIFACT_DIGEST_SUFFIX = ".sha256"

    def put_artifact(self, key: str, name: str, data) -> Path:
        """Atomically store an artifact (``bytes`` or ``str``) plus a
        ``<name>.sha256`` integrity sidecar.

        Artifacts are opaque bytes, so unlike result blobs they carry
        no self-validating structure; the sidecar is what lets
        :meth:`get_artifact` tell a truncated blob (crashed writer,
        torn copy) from a healthy one."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        path = self.artifact_path(key, name)
        _atomic_write(path, data)
        digest = hashlib.sha256(data).hexdigest()
        _atomic_write(path.with_name(name + self.ARTIFACT_DIGEST_SUFFIX),
                      digest.encode("ascii"))
        return path

    def get_artifact(self, key: str, name: str) -> Optional[bytes]:
        """Stored artifact bytes, or ``None`` when absent/unreadable.

        When an integrity sidecar exists and disagrees with the blob's
        actual hash, both files are quarantined and the read counts as
        a miss (pre-sidecar artifacts, with no sidecar at all, are
        served as-is)."""
        path = self.artifact_path(key, name)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        sidecar = path.with_name(name + self.ARTIFACT_DIGEST_SUFFIX)
        try:
            expected = sidecar.read_text(encoding="ascii").strip()
        except (OSError, UnicodeDecodeError):
            return blob  # no (readable) sidecar: legacy artifact
        if hashlib.sha256(blob).hexdigest() != expected:
            self._quarantine(path)
            self._quarantine(sidecar)
            return None
        return blob

    # ------------------------------------------------------------------

    @staticmethod
    def _walk(base: Path, pattern: str):
        """``base.rglob(pattern)``, tolerant of directories a concurrent
        ``clear()`` deletes mid-walk (pathlib only swallows
        ``PermissionError``; a vanished directory must be a no-op too)."""
        try:
            yield from sorted(base.rglob(pattern))
        except FileNotFoundError:
            return

    def _artifact_files(self, include_sidecars: bool = True):
        if not self.artifacts_dir.is_dir():
            return
        for path in self._walk(self.artifacts_dir, "*"):
            if not path.is_file() or path.suffix == ".tmp":
                continue
            if (not include_sidecars
                    and path.suffix == self.ARTIFACT_DIGEST_SUFFIX):
                continue
            yield path

    def _stray_tmp_files(self):
        """Orphaned ``.tmp`` files (a writer died mid-``put``)."""
        for base in (self.objects_dir, self.artifacts_dir, self.index_dir):
            if not base.is_dir():
                continue
            for path in self._walk(base, "*.tmp"):
                if path.is_file():
                    yield path

    def _blobs(self):
        if not self.objects_dir.is_dir():
            return
        try:
            shards = sorted(self.objects_dir.iterdir())
        except FileNotFoundError:
            return
        for shard in shards:
            if not shard.is_dir():
                continue
            for blob in self._walk(shard, "*.json"):
                yield blob

    def stats(self) -> CacheStats:
        """Entry/artifact counts and on-disk footprint."""
        entries = 0
        total = 0
        for blob in self._blobs():
            try:
                total += blob.stat().st_size
            except OSError:
                continue
            entries += 1
        artifacts = 0
        artifact_bytes = 0
        for path in self._artifact_files(include_sidecars=False):
            try:
                artifact_bytes += path.stat().st_size
            except OSError:
                continue
            artifacts += 1
        return CacheStats(str(self.root), entries, total,
                          artifacts, artifact_bytes)

    def clear(self) -> int:
        """Delete every stored result and artifact (plus any orphaned
        temp files and quarantined blobs); returns the count of files
        removed (integrity sidecars and key-index entries ride along
        uncounted)."""
        removed = 0
        for blob in list(self._blobs()):
            try:
                blob.unlink()
            except OSError:
                continue
            removed += 1
        if self.quarantine_dir.is_dir():
            for path in list(self._walk(self.quarantine_dir, "*")):
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            try:
                self.quarantine_dir.rmdir()
            except OSError:
                pass
        for path in list(self._artifact_files()):
            counted = path.suffix != self.ARTIFACT_DIGEST_SUFFIX
            try:
                path.unlink()
            except OSError:
                continue
            if counted:
                removed += 1
        if self.index_dir.is_dir():
            for path in list(self._walk(self.index_dir, "*")):
                if path.is_file() and path.suffix != ".tmp":
                    _unlink_quiet(path)
        for path in list(self._stray_tmp_files()):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for base in (self.objects_dir, self.artifacts_dir, self.index_dir):
            if not base.is_dir():
                continue
            # prune now-empty shard (and artifact key) directories bottom-up
            for directory in reversed(list(self._walk(base, "*"))):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        return removed


class TieredResultCache:
    """Three-tier store: in-memory hot LRU -> local disk -> shared.

    The cluster's cache hierarchy.  ``get`` walks the tiers in order
    and *promotes* hits forward (a shared-store hit is copied into the
    local store and pinned in the hot set, so the next read never
    leaves the node); ``put`` writes through every tier, which is what
    makes a result computed by one worker visible to the whole fleet
    via the shared directory.

    The memory tier is bounded (``memory_capacity`` entries, LRU) and
    thread-safe; the disk tiers inherit :class:`ResultCache`'s atomic
    multi-process-safe writes.  ``clear`` empties the node-local tiers
    only -- the shared store belongs to the fleet, not this node.

    Exposes the full :class:`ResultCache` surface (``get``/``put``/
    artifacts/``stats``/``clear``/``root``), so every existing
    consumer -- the serve fast path, the worker tier, ``run_jobs`` --
    can take one interchangeably.
    """

    def __init__(self, local: Optional[ResultCache] = None,
                 shared: Optional[ResultCache] = None,
                 memory_capacity: int = 512):
        self.local = local if local is not None else ResultCache()
        self.shared = shared
        self.memory_capacity = max(0, int(memory_capacity))
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._hot_lock = threading.Lock()
        self.tier_hits = {"memory": 0, "local": 0, "shared": 0}

    @classmethod
    def from_roots(cls, local_root: Optional[os.PathLike] = None,
                   shared_root: Optional[os.PathLike] = None,
                   memory_capacity: int = 512) -> "TieredResultCache":
        shared = ResultCache(shared_root) if shared_root is not None else None
        return cls(ResultCache(local_root), shared,
                   memory_capacity=memory_capacity)

    @property
    def root(self) -> Path:
        """The node-local root (what worker processes are handed)."""
        return self.local.root

    @property
    def shared_root(self) -> Optional[Path]:
        return None if self.shared is None else self.shared.root

    # ------------------------------------------------------------------
    # memory tier

    def _hot_get(self, key: str) -> Optional[Any]:
        if not self.memory_capacity:
            return None
        with self._hot_lock:
            try:
                self._hot.move_to_end(key)
            except KeyError:
                return None
            return self._hot[key]

    def _hot_put(self, key: str, result: Any) -> None:
        if not self.memory_capacity:
            return
        with self._hot_lock:
            self._hot[key] = result
            self._hot.move_to_end(key)
            while len(self._hot) > self.memory_capacity:
                self._hot.popitem(last=False)

    @property
    def hot_keys(self) -> int:
        with self._hot_lock:
            return len(self._hot)

    # ------------------------------------------------------------------
    # results

    def get(self, key: str) -> Optional[Any]:
        hit = self._hot_get(key)
        if hit is not None:
            self.tier_hits["memory"] += 1
            return hit
        record = self.local.get_record(key)
        if record is not None:
            self.tier_hits["local"] += 1
            self._hot_put(key, record["result"])
            return record["result"]
        if self.shared is not None:
            record = self.shared.get_record(key)
            if record is not None:
                self.tier_hits["shared"] += 1
                # promote: next read is local-disk (or memory) fast
                self.local.put(key, record.get("fn", "?"), record["result"])
                self._hot_put(key, record["result"])
                return record["result"]
        return None

    def put(self, key: str, fn: str, result: Any) -> Path:
        path = self.local.put(key, fn, result)
        if self.shared is not None:
            self.shared.put(key, fn, result)
        self._hot_put(key, result)
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # artifacts (disk tiers only -- artifacts can be megabytes)

    def put_artifact(self, key: str, name: str, data) -> Path:
        path = self.local.put_artifact(key, name, data)
        if self.shared is not None:
            self.shared.put_artifact(key, name, data)
        return path

    def get_artifact(self, key: str, name: str) -> Optional[bytes]:
        blob = self.local.get_artifact(key, name)
        if blob is not None:
            return blob
        if self.shared is not None:
            blob = self.shared.get_artifact(key, name)
            if blob is not None:
                self.local.put_artifact(key, name, blob)
        return blob

    def artifact_path(self, key: str, name: str) -> Path:
        return self.local.artifact_path(key, name)

    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Node-local footprint (the shared store is the fleet's)."""
        return self.local.stats()

    def clear(self) -> int:
        """Clear the node-local tiers; the shared store is untouched."""
        with self._hot_lock:
            self._hot.clear()
        return self.local.clear()


class NullCache:
    """Cache stand-in that never hits and never stores (``--no-cache``)."""

    def get(self, key: str):  # noqa: D102 -- trivial
        return None

    def put(self, key: str, fn: str, result: Any):  # noqa: D102
        return None

    def put_artifact(self, key: str, name: str, data):  # noqa: D102
        return None

    def get_artifact(self, key: str, name: str):  # noqa: D102
        return None

    def __contains__(self, key: str) -> bool:
        return False
