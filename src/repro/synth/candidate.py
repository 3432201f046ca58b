"""Candidates: genome -> program -> staged static fitness.

The pipeline mirrors uGen's validate-before-run discipline.  A raw
genome passes through three free stages before any simulation:

1. **assemble** -- the program builder runs the same constructive
   validation every hand-written driver gets
   (:class:`~repro.core.exploitgen.FootprintSpec` bounds,
   :class:`~repro.core.covert.ChannelParams` ranges, striped-set
   geometry).  A :class:`~repro.errors.ConfigError` or assembler
   failure rejects the candidate in microseconds.
2. **lint** -- the :class:`~repro.session.AttackSession` preflight
   statically verifies the candidate's own claims (chain footprints,
   tiger/zebra disjointness, resource capacities).  A
   :class:`~repro.lint.LintError` rejects it.
3. **taint** -- the secret-flow analysis runs inside the same
   preflight; survivors carry a
   :class:`~repro.lint.taint.TaintReport` whose ``capacity_bits``,
   normalised by a statically estimated per-symbol cost, ranks them
   (:func:`static_rate_kbps`) so only the most promising finalists
   reach the simulator.

Only stage-3 survivors are ever turned into harness jobs, which is the
property the synthesis safety test asserts: no malformed program can
reach the serve queue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.covert import (
    RECEIVER_ARENA,
    SENDER_ARENA,
    ZEBRA_ARENA,
    ChannelParams,
    CovertChannel,
)
from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.core.gadgets import generate_corpus
from repro.contention.channels import (
    ITLBChannel,
    ITLBChannelParams,
    StoreBufferChannel,
    StoreBufferChannelParams,
)
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import AttackSession, no_preflight
from repro.synth.genome import Genome

#: Arena for embedded gadget-corpus decoys, clear of the channel
#: arenas (RECEIVER/SENDER/ZEBRA end below 0x50_0000).
COVER_ARENA = 0x60_0000

#: Stage names, in pipeline order.
STAGES = ("raw", "rejected-assembly", "rejected-lint", "static", "measured")


class SynthCovert(CovertChannel):
    """Genome-parameterized tiger/zebra channel.

    Generalises :class:`~repro.core.covert.CovertChannel` over the
    genes the hand-written driver fixes; with the baseline genome it
    rebuilds that driver's program exactly (modulo nothing -- the
    equivalence test asserts identical fingerprints).
    """

    def __init__(self, genome: Genome,
                 config: Optional[CPUConfig] = None,
                 noise: Optional[NoiseModel] = None):
        self.genome = dict(genome)
        params = ChannelParams(
            nsets=genome["nsets"],
            nways=genome["nways"],
            samples=genome["samples"],
            sender_reps=genome["sender_reps"],
            prime_reps=genome["prime_reps"],
            calibration_rounds=6,
        )
        super().__init__(params, config, noise)

    def build_program(self) -> Program:
        g = self.genome
        pad = dict(
            nops_per_region=g["nops"],
            nop_len=g["nop_len"],
            lcp_per_nop=g["lcp"],
            jmp_lcp=g["jmp_lcp"],
        )
        tiger_sets = striped_sets(g["nsets"], offset=g["tiger_offset"])
        zebra_sets = striped_sets(g["nsets"], offset=g["zebra_offset"])
        probe_spec = FootprintSpec(tiger_sets, g["nways"], RECEIVER_ARENA, **pad)
        tiger_spec = FootprintSpec(tiger_sets, g["nways"], SENDER_ARENA, **pad)
        zebra_spec = FootprintSpec(zebra_sets, g["nways"], ZEBRA_ARENA, **pad)
        asm = Assembler()
        asm.reserve("probe_result", 8)
        emit_probe(asm, "probe", probe_spec, "probe_result")
        emit_chain(asm, "send_one", tiger_spec)
        emit_chain(asm, "send_zero", zebra_spec)
        if g["cover"]:
            # gadget substitution: a seeded slice of the Section VI-A
            # corpus embedded as decoy code -- never executed, but part
            # of the static surface and the content hash
            generate_corpus(
                functions=g["cover"],
                rng=random.Random(g["cover_seed"]),
                asm=asm,
                prefix="cover",
                origin=COVER_ARENA,
            )
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("send_one", tiger_spec, "tiger"),
            ChainClaim("send_zero", zebra_spec, "zebra"),
            PairClaim("send_one", "probe", "conflict"),
            PairClaim("send_zero", "probe", "disjoint"),
            SecretClaim(
                name="bit", entries=("send_one", "send_zero"),
                leaks_to=("dsb", "itlb"),
            )
        ]
        return asm.assemble(entry="probe")


class SynthITLB(ITLBChannel):
    """Genome-parameterized iTLB episode channel."""

    def __init__(self, genome: Genome,
                 config: Optional[CPUConfig] = None,
                 noise: Optional[NoiseModel] = None):
        self.genome = dict(genome)
        params = ITLBChannelParams(
            rx_pages=genome["rx_pages"],
            tx_pages=genome["tx_pages"],
            probe_passes=genome["probe_passes"],
            sender_loops=genome["sender_loops"],
            delay_iters=genome["delay_iters"],
            calibration_rounds=4,
        )
        super().__init__(params, config, noise)


class SynthStoreBuffer(StoreBufferChannel):
    """Genome-parameterized store-buffer episode channel.

    Constructively rejects geometries that cannot signal: the
    receiver's burst must oversubscribe the store buffer (otherwise it
    never pays capacity stalls and there is no baseline to inflate),
    and the Trojan's flood must oversubscribe it too (otherwise the
    flood drains freely and steals no drain slots).
    """

    def __init__(self, genome: Genome,
                 config: Optional[CPUConfig] = None,
                 noise: Optional[NoiseModel] = None):
        self.genome = dict(genome)
        entries = (config or CPUConfig.skylake(store_buffer_entries=16)
                   ).store_buffer_entries
        if genome["rx_stores"] <= entries:
            raise ConfigError(
                f"rx burst of {genome['rx_stores']} stores fits the "
                f"{entries}-entry store buffer: no capacity stalls to probe"
            )
        if genome["tx_stores"] <= entries:
            raise ConfigError(
                f"tx flood of {genome['tx_stores']} stores fits the "
                f"{entries}-entry store buffer: drains without contention"
            )
        params = StoreBufferChannelParams(
            rx_stores=genome["rx_stores"],
            tx_stores=genome["tx_stores"],
            probe_passes=genome["probe_passes"],
            sender_loops=genome["sender_loops"],
            calibration_rounds=4,
        )
        super().__init__(params, config, noise)


def build_session(genome: Genome,
                  noise: Optional[NoiseModel] = None) -> AttackSession:
    """Construct the candidate's session (assembles + preflights).

    Raises :class:`~repro.errors.ConfigError` for out-of-range
    geometry (stage-1 rejection) and
    :class:`~repro.lint.LintError` for lint-dirty layouts (stage-2).
    """
    family = genome.get("family")
    if family == "covert":
        return SynthCovert(genome, noise=noise)
    if family == "smt":
        resource = genome.get("resource")
        if resource == "itlb":
            return SynthITLB(genome, noise=noise)
        if resource == "store_buffer":
            return SynthStoreBuffer(genome, noise=noise)
        raise ConfigError(f"unknown smt resource {resource!r}")
    raise ConfigError(f"unknown candidate family {family!r}")


def build_program(config: CPUConfig, params: Dict[str, Any]) -> Program:
    """Harness ``program_builder`` hook: the candidate's assembled
    program, folded into the job's content hash so two genomes that
    assemble identically share one cache entry (and re-visited
    candidates dedupe across generations for free)."""
    with no_preflight():
        return build_session(params["genome"]).program


# ----------------------------------------------------------------------
# static fitness


def static_symbol_cycles(genome: Genome) -> float:
    """Statically estimated cycles to move one symbol (bit).

    A coarse cost model over the genome -- region counts times
    micro-op and predecode weight times the sampling schedule -- used
    only *ordinally*: the ranking stage divides the taint capacity
    bound by this estimate to prefer candidates that move their
    (identical) one bit per symbol in fewer cycles.
    """
    if genome["family"] == "covert":
        regions = genome["nsets"] * genome["nways"]
        uops = genome["nops"] + 1
        predecode = (
            genome["nops"] * genome["lcp"] + genome["jmp_lcp"] + 1
        )
        region_cost = uops + 0.4 * predecode
        passes = (
            genome["prime_reps"] + genome["sender_reps"] + 1
        )
        return max(1.0, genome["samples"] * passes * regions * region_cost)
    if genome["resource"] == "itlb":
        walk = genome["rx_pages"] + 2
        return max(1.0, (
            genome["delay_iters"] * 3.0
            + genome["probe_passes"] * walk * 14.0
            + genome["sender_loops"] * genome["tx_pages"] * 4.0
        ))
    return max(1.0, (
        genome["probe_passes"] * genome["rx_stores"] * 4.0
        + genome["sender_loops"] * genome["tx_stores"] * 2.0
    ))


def static_viability(genome: Genome) -> float:
    """Statically estimated signal viability in [0, 1).

    The taint capacity bound says one bit *could* cross per symbol; it
    says nothing about whether the probe's timing margin survives the
    noise floor.  The margin grows with the probe's signal-bearing
    work -- conflict surface times votes -- so a saturating weight
    ``s / (s + 32)`` discounts degenerate layouts (one region, one
    sample) whose static rate would otherwise dwarf every channel that
    actually decodes.
    """
    if genome["family"] == "covert":
        signal = genome["nsets"] * genome["nways"] * genome["samples"]
    elif genome["resource"] == "itlb":
        signal = genome["probe_passes"] * genome["rx_pages"] * 2
    else:
        signal = genome["probe_passes"] * genome["rx_stores"]
    return signal / (signal + 32.0)


@dataclass
class Candidate:
    """One genome plus everything the pipeline has learned about it."""

    genome: Genome
    stage: str = "raw"
    reject: Optional[str] = None
    capacity_bits: float = 0.0
    static_rate_kbps: float = 0.0
    lint_findings: int = 0
    key: Optional[str] = None
    row: Optional[Dict[str, Any]] = None
    fitness: Optional[float] = None
    origin: str = "seed"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "genome": dict(self.genome),
            "stage": self.stage,
            "reject": self.reject,
            "capacity_bits": round(self.capacity_bits, 3),
            "static_rate_kbps": round(self.static_rate_kbps, 3),
            "lint_findings": self.lint_findings,
            "key": self.key,
            "row": self.row,
            "fitness": self.fitness,
            "origin": self.origin,
        }


def evaluate_static(genome: Genome, origin: str = "seed") -> Candidate:
    """Run the free stages: assemble, lint, taint-rank.

    Never raises for a bad genome -- rejection is the result.  The
    session built here is construction-only (no simulation steps run);
    its taint report supplies the capacity bound.
    """
    from repro.lint import LintError  # runtime-only, like the session layer

    cand = Candidate(genome=dict(genome), origin=origin)
    try:
        session = build_session(genome)
    except (ConfigError, ValueError) as exc:
        cand.stage = "rejected-assembly"
        cand.reject = f"{type(exc).__name__}: {exc}"
        return cand
    except LintError as exc:
        cand.stage = "rejected-lint"
        cand.reject = str(exc)[:200]
        return cand
    cand.stage = "static"
    cand.lint_findings = len(session.lint_findings)
    if session.taint_report is not None:
        cand.capacity_bits = session.taint_report.capacity_bits
    freq_hz = session.config.freq_ghz * 1e9
    cand.static_rate_kbps = (
        cand.capacity_bits / static_symbol_cycles(genome)
        * static_viability(genome) * freq_hz / 1e3
    )
    return cand
