"""Declarative experiment jobs with stable content hashes.

A :class:`Job` names a registered experiment callable plus everything
that determines its output: the full :class:`CPUConfig`, the point
parameters, and a seed.  Because the simulator is deterministic, a
job's result is a pure function of those inputs, so a content hash
over them (plus, when the registry knows how to build it, the
assembled program itself) is a sound cache key: same hash, same
result, forever.

The hash covers, in order:

- a schema version (bump :data:`CACHE_SCHEMA_VERSION` to invalidate
  every previously cached result after a simulator-semantics change);
- the registered callable's name;
- every field of the ``CPUConfig``;
- the job parameters (canonical JSON, sorted keys);
- the seed;
- a fingerprint of the assembled program bytes, when the registry
  entry declares a ``program_builder``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, Mapping, Optional

from repro.cpu.config import CPUConfig
from repro.errors import ConfigError
from repro.isa.program import Program

#: Version of the (hash input, cached record) schema.  Baked into every
#: job hash, so bumping it orphans -- never corrupts -- old entries.
#: v2: RDTSC reads are clamped monotonic under timer jitter, changing
#: noisy-run results (see repro.cpu.noise.NoiseModel.rdtsc_jitter).
#: v3: CPUConfig grew an ``engine`` stepping-backend field.
#: v4: that field is gone again with the replay engine, so one result
#: has one key; v3 entries are orphaned.
CACHE_SCHEMA_VERSION = 4


def canonical_json(obj: Any) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, UTF-8.

    This is the byte string that gets hashed and the byte string that
    gets stored, so two processes computing the same result always
    produce identical artifacts (the determinism tests rely on it).
    """
    try:
        text = json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"job payloads must be JSON-serialisable (plain scalars, "
            f"lists, dicts): {exc}"
        ) from exc
    return text.encode("utf-8")


#: The fields a fingerprint renders, in rendering order: a macro-op's
#: after its address (``_MACRO_FIELDS``), then each micro-op's.
_MACRO_FIELDS = attrgetter(
    "mnemonic", "length", "lcp_count", "branch_kind", "target", "msrom",
    "cacheable",
)
_UOP_FIELDS = attrgetter(
    "kind", "dst", "srcs", "imm", "alu_op", "cond", "base", "index", "scale",
    "disp", "mem_size", "target", "slots", "latency", "sets_flags",
)
_NM, _NU = 7, 15  # field counts of the two records
_SRCS = _NM + 2  # index of the first micro-op's ``srcs`` in a recipe


def _render(recipe: tuple) -> str:
    """One instruction's rendering after its address, from its recipe
    (its macro-op fields followed by each micro-op's)."""
    mnemonic, length, lcp, branch, target, msrom, cacheable = recipe[:_NM]
    parts = [f"|{mnemonic}|{length}|{lcp}|{branch.value}|{target}|{msrom}|"
             f"{cacheable}"]
    for i in range(_NM, len(recipe), _NU):
        (kind, dst, srcs, imm, alu_op, cond, base, index, scale, disp,
         mem_size, utarget, slots, latency, sets_flags) = recipe[i:i + _NU]
        parts.append(
            f"U|{kind.value}|{dst}|{srcs}|{imm}|{alu_op}|{cond}|{base}|"
            f"{index}|{scale}|{disp}|{mem_size}|{utarget}|{slots}|"
            f"{latency}|{sets_flags}"
        )
    return "".join(parts)


def fingerprint_program(program: Program) -> str:
    """SHA-256 over a canonical rendering of an assembled program.

    Covers every instruction (address, encoding length, prefixes,
    branch metadata and the full micro-op recipe), the data image, the
    entry point and the kernel ranges -- everything the simulator
    reads from a :class:`Program`.

    An instruction's *recipe* is every rendered field but its address.
    Each distinct recipe is rendered once per call, from a memo keyed
    on the recipe and the exact type of each field and of each source
    register name: values that compare equal can render differently
    (``1 == True``, but they print as ``1`` and ``True``).  The memo
    lives only for this call.
    """
    instructions = program.instructions
    memo: Dict[tuple, str] = {}
    parts = []
    for addr in sorted(instructions):
        instr = instructions[addr]
        uops = instr.uops
        if len(uops) == 1:
            recipe = _MACRO_FIELDS(instr) + _UOP_FIELDS(uops[0])
            srcs = recipe[_SRCS]
        else:
            recipe = _MACRO_FIELDS(instr) + tuple(
                chain.from_iterable(map(_UOP_FIELDS, uops)))
            srcs = tuple(chain.from_iterable(recipe[_SRCS::_NU]))
        key = (recipe, tuple(map(type, recipe + srcs)))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _render(recipe)
        parts.append(f"I|{addr:x}{text}")
    h = hashlib.sha256("".join(parts).encode())
    for base in sorted(program.data):
        h.update(f"D|{base:x}|".encode())
        h.update(program.data[base])
    tail = [f"E|{program.entry:x}"]
    tail.extend(f"K|{start:x}|{end:x}"
                for start, end in sorted(program.kernel_ranges))
    h.update("".join(tail).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class RegisteredFn:
    """One experiment callable the harness knows how to run.

    ``fn(config, seed, **params)`` must return a JSON-serialisable
    value.  ``program_builder(config, params) -> Program``, when
    given, folds the assembled program bytes into the job hash.
    """

    name: str
    fn: Callable[..., Any]
    program_builder: Optional[Callable[[CPUConfig, Mapping[str, Any]], Program]] = None


_REGISTRY: Dict[str, RegisteredFn] = {}


def register(name: str, program_builder=None):
    """Decorator registering an experiment callable under ``name``."""

    def wrap(fn):
        if name in _REGISTRY:
            raise ConfigError(f"job function {name!r} registered twice")
        _REGISTRY[name] = RegisteredFn(name, fn, program_builder)
        return fn

    return wrap


def resolve(name: str) -> RegisteredFn:
    """Look up a registered callable, importing the built-in experiment
    catalogue on first miss (worker processes start with an empty
    registry)."""
    if name not in _REGISTRY:
        from repro.harness import experiments  # noqa: F401  (registers)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown job function {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_names() -> list:
    """Names currently in the registry (after loading built-ins)."""
    from repro.harness import experiments  # noqa: F401

    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Job

#: ``CPUConfig``'s fields, all scalars: read flat into the hash payload
#: (the same dict ``dataclasses.asdict`` builds, without its deep copies).
_CONFIG_NAMES = tuple(f.name for f in dataclasses.fields(CPUConfig))
_config_values = attrgetter(*_CONFIG_NAMES)


@dataclass
class Job:
    """One unit of simulation work: ``fn(config, seed, **params)``.

    ``tag`` is a display label only -- it does not enter the hash, so
    relabelling a sweep never invalidates its cached results.
    """

    fn: str
    config: CPUConfig = field(default_factory=CPUConfig.skylake)
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    tag: str = ""

    _key: Optional[str] = field(default=None, repr=False, compare=False)

    def hash_payload(self) -> Dict[str, Any]:
        """The dict whose canonical JSON is hashed into the key."""
        entry = resolve(self.fn)
        payload: Dict[str, Any] = {
            "schema": CACHE_SCHEMA_VERSION,
            "fn": self.fn,
            "config": dict(zip(_CONFIG_NAMES, _config_values(self.config))),
            "params": dict(self.params),
            "seed": self.seed,
        }
        if entry.program_builder is not None:
            program = entry.program_builder(self.config, self.params)
            payload["program"] = fingerprint_program(program)
        return payload

    def key(self) -> str:
        """Stable content hash (hex SHA-256) identifying this job."""
        if self._key is None:
            digest = hashlib.sha256(canonical_json(self.hash_payload()))
            self._key = digest.hexdigest()
        return self._key

    def run(self) -> Any:
        """Execute the job in-process and return its (JSON-able) result."""
        entry = resolve(self.fn)
        return entry.fn(self.config, self.seed, **self.params)

    @property
    def label(self) -> str:
        """Human-readable identity for progress/error reporting."""
        if self.tag:
            return self.tag
        brief = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.fn}({brief})"
