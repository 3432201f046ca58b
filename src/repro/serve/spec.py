"""Validated experiment specs: the unit of work ``POST /v1/jobs`` accepts.

An :class:`ExperimentSpec` is the serving layer's job description --
a JSON document naming one of five experiment kinds plus everything
that determines its output:

``job``
    One registered harness callable (``fn``, ``params``): a Table I/II
    row, a characterization point, a workload run, a ``debug.*``
    synthetic.  Its key **is** the harness job's schema-versioned
    SHA-256 content hash, so server-side coalescing, the on-disk
    :class:`~repro.harness.cache.ResultCache` and the batch CLI all
    speak the same key space.
``sweep``
    A parameter grid (``fn``, ``axes``, ``base``) expanded via
    :class:`~repro.harness.sweep.Sweep`; results come back as a flat
    list in grid order.  The key hashes the ordered per-job keys.
``artifact``
    Named :data:`repro.harness.experiments.ARTIFACTS` (``names``,
    ``fast``): their grids as one job list; the result holds the
    assembled figures and tables and every claim's verdict.  ``repro
    batch`` runs the same spec in process (:meth:`run_artifacts`), so
    the two share every job key.  The key hashes the names and the
    ordered per-job keys (``fast`` only picks the grid).
``lint``
    A :mod:`repro.lint` run over named targets.  Lint reads the source
    tree, which the content hash cannot see -- so lint specs coalesce
    in flight but are never answered from the result cache.
``trace``
    A :func:`repro.observe.capture.store_trace` capture whose event
    stream, Chrome trace and heatmaps are stored as named cache
    artifacts under the spec key and served back via
    ``GET /v1/jobs/<id>/artifacts/<name>``.  ``repro trace`` stores
    its capture under the same key, so either answers the other warm.

Validation happens at admission (:meth:`ExperimentSpec.from_json`
raises :class:`SpecError` with a human-readable reason -> HTTP 400);
execution happens in a worker process (:meth:`ExperimentSpec.execute`)
through the same :func:`repro.harness.executor.run_jobs` path the
batch CLI uses, inheriting its per-job SIGALRM timeouts and bounded
retries.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.cpu.config import CPUConfig
from repro.errors import ConfigError
from repro.harness.job import CACHE_SCHEMA_VERSION, Job, canonical_json, resolve
from repro.harness.sweep import Sweep

#: Version of the spec document / spec-key schema.  Folded into every
#: non-``job`` spec key next to :data:`CACHE_SCHEMA_VERSION`.
SPEC_SCHEMA_VERSION = 1

#: Accepted experiment kinds.
KINDS = ("job", "sweep", "artifact", "lint", "trace")

#: CPU presets a spec may name (classmethod constructors on CPUConfig).
CPU_PRESETS = ("skylake", "zen", "zen2", "sunny_cove")

#: Hard ceiling on sweep grid size per spec (one spec is one queue
#: slot; a bigger study should be split into several specs).
MAX_SWEEP_JOBS = 4096

#: Largest per-job ``timeout`` a spec may declare, in seconds (one
#: day).  It keeps the worker's SIGALRM deadline representable: an
#: infinite or astronomically large timeout would pass admission and
#: then fail in the worker.
MAX_TIMEOUT_S = 86400.0


class SpecError(ValueError):
    """A submitted spec is malformed or names unknown entities."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


@dataclass
class ExperimentSpec:
    """One validated unit of serveable work.

    A spec is immutable once admitted: a front hands the spec it
    admitted for a document to every repeat of that document, so
    several job records (and a worker pool) may share one object.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    cpu: str = "skylake"
    seed: int = 0
    priority: int = 0
    timeout: Optional[float] = None
    retries: int = 1
    refresh: bool = False

    # Built once at admission (key computation builds each job's
    # program) and reused by the cache probe, the sweep split and the
    # worker's run_jobs.
    _key: Optional[str] = field(default=None, repr=False, compare=False)
    _jobs: Optional[List[Job]] = field(default=None, repr=False,
                                       compare=False)

    # ------------------------------------------------------------------
    # construction / validation

    @classmethod
    def from_json(cls, doc: Any) -> "ExperimentSpec":
        """Build and fully validate a spec from a JSON document."""
        _require(isinstance(doc, dict), "spec must be a JSON object")
        known = {"kind", "params", "cpu", "seed", "priority", "timeout",
                 "retries", "refresh"}
        unknown = sorted(set(doc) - known)
        _require(not unknown,
                 f"unknown spec field(s) {unknown}; known: {sorted(known)}")
        kind = doc.get("kind")
        _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")
        params = doc.get("params", {})
        _require(isinstance(params, dict), "params must be an object")
        cpu = doc.get("cpu", "skylake")
        _require(cpu in CPU_PRESETS,
                 f"cpu must be one of {CPU_PRESETS}, got {cpu!r}")
        seed = doc.get("seed", 0)
        _require(isinstance(seed, int) and not isinstance(seed, bool),
                 "seed must be an integer")
        priority = doc.get("priority", 0)
        _require(isinstance(priority, int) and not isinstance(priority, bool)
                 and 0 <= priority <= 9, "priority must be an integer in 0..9")
        timeout = doc.get("timeout")
        _require(timeout is None
                 or (isinstance(timeout, (int, float))
                     and not isinstance(timeout, bool)
                     and 0 < timeout <= MAX_TIMEOUT_S),
                 f"timeout must be a positive number of seconds, at most "
                 f"{MAX_TIMEOUT_S:g}")
        retries = doc.get("retries", 1)
        _require(isinstance(retries, int) and not isinstance(retries, bool)
                 and 0 <= retries <= 10, "retries must be an integer in 0..10")
        refresh = doc.get("refresh", False)
        _require(isinstance(refresh, bool), "refresh must be a boolean")
        spec = cls(kind=kind, params=dict(params), cpu=cpu, seed=seed,
                   priority=priority,
                   timeout=None if timeout is None else float(timeout),
                   retries=retries, refresh=refresh)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Kind-specific validation; raises :class:`SpecError`."""
        check = getattr(self, f"_validate_{self.kind}", None)
        _require(check is not None,
                 f"kind must be one of {KINDS}, got {self.kind!r}")
        check()

    def _validate_job(self) -> None:
        fn = self.params.get("fn")
        _require(isinstance(fn, str) and fn, "job spec needs a 'fn' string")
        try:
            resolve(fn)
        except ConfigError as exc:
            raise SpecError(str(exc)) from None
        fn_params = self.params.get("params", {})
        _require(isinstance(fn_params, dict), "'params' must be an object")
        extra = sorted(set(self.params) - {"fn", "params"})
        _require(not extra, f"unknown job spec field(s) {extra}")
        try:
            canonical_json(fn_params)
        except TypeError as exc:
            raise SpecError(str(exc)) from None
        self._probe_keys()

    def _validate_sweep(self) -> None:
        fn = self.params.get("fn")
        _require(isinstance(fn, str) and fn, "sweep spec needs a 'fn' string")
        try:
            resolve(fn)
        except ConfigError as exc:
            raise SpecError(str(exc)) from None
        axes = self.params.get("axes")
        _require(isinstance(axes, dict) and axes,
                 "sweep spec needs a non-empty 'axes' object")
        total = 1
        for name, values in axes.items():
            _require(isinstance(values, list) and values,
                     f"axis {name!r} must be a non-empty list")
            total *= len(values)
        _require(total <= MAX_SWEEP_JOBS,
                 f"sweep expands to {total} jobs (limit {MAX_SWEEP_JOBS}); "
                 f"split it into smaller specs")
        base = self.params.get("base", {})
        _require(isinstance(base, dict), "'base' must be an object")
        extra = sorted(set(self.params) - {"fn", "axes", "base"})
        _require(not extra, f"unknown sweep spec field(s) {extra}")
        try:
            canonical_json({"axes": axes, "base": base})
        except TypeError as exc:
            raise SpecError(str(exc)) from None
        self._probe_keys()

    def _validate_artifact(self) -> None:
        from repro.harness.experiments import ARTIFACTS

        names = self.params.get("names")
        _require(isinstance(names, list) and names
                 and all(isinstance(n, str) for n in names),
                 "artifact spec needs a non-empty 'names' list")
        unknown = sorted(set(names) - set(ARTIFACTS))
        _require(not unknown, f"unknown artifact(s) {unknown}; "
                              f"known: {sorted(ARTIFACTS)}")
        _require(isinstance(self.params.get("fast", False), bool),
                 "'fast' must be a boolean")
        extra = sorted(set(self.params) - {"names", "fast"})
        _require(not extra, f"unknown artifact spec field(s) {extra}")
        _require(self.seed == 0, f"each artifact grid fixes its own seeds; "
                                 f"seed must be 0, got {self.seed}")
        _require(self.jobs(), f"{names} have no jobs on this grid")

    def _validate_lint(self) -> None:
        from repro.lint.runner import TARGETS

        targets = self.params.get("targets")
        if targets is not None:
            _require(isinstance(targets, list)
                     and all(isinstance(t, str) for t in targets),
                     "'targets' must be a list of target names")
            unknown = sorted(set(targets) - set(TARGETS))
            _require(not unknown,
                     f"unknown lint target(s) {unknown}; "
                     f"known: {sorted(TARGETS)}")
        cross = self.params.get("cross_check", False)
        _require(isinstance(cross, bool), "'cross_check' must be a boolean")
        taint = self.params.get("taint", False)
        _require(isinstance(taint, bool), "'taint' must be a boolean")
        extra = sorted(set(self.params) - {"targets", "cross_check", "taint"})
        _require(not extra, f"unknown lint spec field(s) {extra}")

    def _validate_trace(self) -> None:
        from repro.drivers import DEMOS

        experiment = self.params.get("experiment")
        _require(experiment in DEMOS,
                 f"trace experiment must be one of "
                 f"{sorted(DEMOS)}, got {experiment!r}")
        extra = sorted(set(self.params) - {"experiment"})
        _require(not extra, f"unknown trace spec field(s) {extra}")
        # A capture runs the driver's own configuration and no noise
        # seed, while the key hashes both: any other value would label
        # (and store again) the same capture as a different one.
        _require(self.cpu == "skylake",
                 f"a trace captures the driver's own configuration; cpu "
                 f"must be 'skylake', got {self.cpu!r}")
        _require(self.seed == 0,
                 f"a trace capture takes no seed; seed must be 0, got "
                 f"{self.seed}")

    def _probe_keys(self) -> None:
        """Force job-key computation so program-builder failures (bad
        parameter shapes) surface at admission, not in a worker."""
        try:
            self.key()
        except SpecError:
            raise
        except Exception as exc:  # noqa: BLE001 -- builder code is arbitrary
            raise SpecError(
                f"spec parameters rejected by {self.params.get('fn')!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # identity

    def config(self) -> CPUConfig:
        return getattr(CPUConfig, self.cpu)()

    def sweeps(self) -> Dict[str, Sweep]:
        """An ``artifact`` spec's named grids, in order."""
        from repro.harness.experiments import artifact_sweeps

        return artifact_sweeps(self.params["names"], self.config(),
                               self.params.get("fast", False))

    def jobs(self) -> List[Job]:
        """The harness jobs this spec expands to (``job``/``sweep``/
        ``artifact``).

        Built on the first call; later calls return the same
        :class:`Job` objects, whose keys are memoized."""
        if self._jobs is None:
            if self.kind == "job":
                self._jobs = [Job(self.params["fn"], config=self.config(),
                                  params=dict(self.params.get("params", {})),
                                  seed=self.seed)]
            elif self.kind == "sweep":
                self._jobs = Sweep(self.params["fn"],
                                   axes=self.params["axes"],
                                   base=self.params.get("base", {}),
                                   config=self.config(),
                                   seed=self.seed).jobs()
            elif self.kind == "artifact":
                self._jobs = [job for sweep in self.sweeps().values()
                              for job in sweep.jobs()]
            else:
                raise SpecError(
                    f"{self.kind} specs do not expand to harness jobs")
        return self._jobs

    def key(self) -> str:
        """Stable content hash identifying this spec's result.

        ``job`` specs reuse the harness job key verbatim -- the same
        schema-versioned SHA-256 the batch CLI caches under -- so the
        coalescing map and the result cache are shared with every
        other consumer of the harness.
        """
        if self._key is None:
            if self.kind == "job":
                self._key = self.jobs()[0].key()
            else:
                payload: Dict[str, Any] = {
                    "spec_schema": SPEC_SCHEMA_VERSION,
                    "schema": CACHE_SCHEMA_VERSION,
                    "kind": self.kind,
                    "cpu": self.cpu,
                    "seed": self.seed,
                }
                if self.kind == "artifact":
                    payload["names"] = self.params["names"]
                elif self.kind != "sweep":
                    payload["params"] = dict(self.params)
                if self.kind in ("sweep", "artifact"):
                    payload["jobs"] = [job.key() for job in self.jobs()]
                digest = hashlib.sha256(canonical_json(payload))
                self._key = digest.hexdigest()
        return self._key

    @property
    def cacheable(self) -> bool:
        """Lint reads the live source tree, which no content hash over
        the spec can capture -- everything else is a pure function of
        the spec."""
        return self.kind != "lint"

    def describe(self) -> str:
        """Short human label for logs and latency-histogram bucketing."""
        if self.kind == "job":
            return f"job:{self.params['fn']}"
        if self.kind == "sweep":
            return f"sweep:{self.params['fn']}"
        if self.kind == "artifact":
            return f"artifact:{','.join(self.params['names'])}"
        if self.kind == "trace":
            return f"trace:{self.params['experiment']}"
        targets = self.params.get("targets")
        return f"lint:{'all' if targets is None else ','.join(targets)}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (round-trips through ``from_json``)."""
        return {f.name: copy.deepcopy(getattr(self, f.name))
                for f in fields(self) if not f.name.startswith("_")}

    # ------------------------------------------------------------------
    # execution (worker-process side)

    def execute(self, cache) -> Dict[str, Any]:
        """Run the spec to completion; returns a JSON-able result
        document.  Raises on failure (the worker entry flattens).

        ``job``/``sweep`` delegate to
        :func:`repro.harness.executor.run_jobs` with ``workers=1`` --
        serial inside an already-parallel worker process, with the
        harness's own SIGALRM deadline and bounded-retry machinery
        intact (worker processes run jobs on their main thread, where
        ``SIGALRM`` is legal).
        """
        if self.kind in ("job", "sweep"):
            return self._execute_jobs(cache)
        if self.kind == "artifact":
            artifacts, _, summary = self.run_artifacts(cache)
            return self.artifact_result(artifacts, summary)
        if self.kind == "lint":
            return self._execute_lint()
        return self._execute_trace(cache)

    def _execute_jobs(self, cache) -> Dict[str, Any]:
        from repro.harness.executor import raise_on_failure, run_jobs

        outcomes, summary = run_jobs(
            self.jobs(), workers=1, cache=cache, timeout=self.timeout,
            retries=self.retries, refresh=self.refresh,
        )
        raise_on_failure(outcomes)
        doc: Dict[str, Any] = {
            "kind": self.kind,
            "executed": summary.executed,
            "cached": summary.cached,
            "retries": summary.retries,
        }
        if self.kind == "job":
            doc["result"] = outcomes[0].result
            doc["attempts"] = outcomes[0].attempts
        else:
            doc["results"] = [o.result for o in outcomes]
        return doc

    def run_artifacts(self, cache, workers: int = 1):
        """Run an ``artifact`` spec's grids: ``(artifacts, outcomes,
        summary)``.  A worker runs them serially; ``repro batch`` runs
        them in process on ``--jobs`` workers."""
        from repro.harness.experiments import run_sweeps

        return run_sweeps(self.sweeps(), self.jobs(), workers=workers,
                          cache=cache, timeout=self.timeout,
                          retries=self.retries, refresh=self.refresh)

    def artifact_result(self, artifacts, summary) -> Dict[str, Any]:
        """An ``artifact`` spec's result document: the assembled
        artifacts as JSON (dataclasses as field dicts) and every claim's
        verdict."""
        import dataclasses
        import json

        from repro.harness.experiments import check_claims

        return {"kind": "artifact", "executed": summary.executed,
                "cached": summary.cached, "retries": summary.retries,
                "artifacts": json.loads(json.dumps(
                    artifacts, default=dataclasses.asdict)),
                "claims": [{"artifact": name, "claim": claim.name,
                            "section": claim.section, "holds": holds}
                           for name, claim, holds in check_claims(artifacts)]}

    def _execute_lint(self) -> Dict[str, Any]:
        from repro.harness.executor import _deadline
        from repro.lint.runner import run_lint

        with _deadline(self.timeout):
            run = run_lint(self.params.get("targets"),
                           cross=self.params.get("cross_check", False),
                           taint=self.params.get("taint", False))
        return {"kind": "lint", "ok": run.ok, "report": run.as_dict()}

    def _execute_trace(self, cache) -> Dict[str, Any]:
        from repro.harness.executor import _deadline
        from repro.observe.capture import store_trace

        with _deadline(self.timeout):
            return store_trace(self.params["experiment"], cache,
                               self.key()).record

    # ------------------------------------------------------------------
    # server-side cache fast path

    def cached_result(self, cache) -> Optional[Dict[str, Any]]:
        """Rebuild the full result document from the store, or ``None``
        when any constituent is missing (-> enqueue normally).

        This is the warm-serving fast path: an answer here costs a few
        cache reads instead of a queue slot and a worker dispatch.
        """
        if cache is None or not self.cacheable or self.refresh:
            return None
        if self.kind == "job":
            hit = cache.get(self.key())
            if hit is None:
                return None
            return {"kind": "job", "executed": 0, "cached": 1,
                    "retries": 0, "result": hit, "attempts": 0}
        if self.kind in ("sweep", "artifact"):
            results = []
            for job in self.jobs():
                hit = cache.get(job.key())
                if hit is None:
                    return None
                results.append(hit)
            if self.kind == "artifact":
                from repro.harness.executor import RunSummary
                from repro.harness.experiments import assemble_results

                return self.artifact_result(
                    assemble_results(self.sweeps(), results),
                    RunSummary(cached=len(results)))
            return {"kind": "sweep", "executed": 0, "cached": len(results),
                    "retries": 0, "results": results}
        # trace: the aggregate record store_trace writes
        return cache.get(self.key())
