"""The generate -> lint -> submit -> score search loop.

One :func:`run_search` call is a seeded evolutionary search over the
genome space of :mod:`repro.synth.genome`:

1. **generate** -- generation 0 seeds from :func:`~repro.synth.genome.
   seed_population` (random genomes plus the paper's hand-written
   operating point); later generations breed the fittest measured
   candidates through the mutation/crossover operators, topped up with
   fresh random genomes for exploration.
2. **lint** -- every raw genome runs the free static stages
   (:func:`~repro.synth.candidate.evaluate_static`); non-assembling
   and lint-dirty candidates die here, which is most of them.
3. **submit** -- static survivors are ranked by the taint-derived
   static rate and the top finalists go to the evaluator (local
   harness pool or serve fleet).  Content-addressed job keys dedupe
   re-visited candidates across generations: a genome seen before
   reuses its measured row without a submission.
4. **score** -- the pluggable objective maps measured rows to fitness;
   the best measured candidate and per-generation statistics feed the
   final report.

Everything is a pure function of ``SynthConfig`` (one explicit
``random.Random``), so the same seed and budget replay the identical
search -- and a warm result cache answers every measurement without
executing a single new job.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.session import no_preflight
from repro.synth.candidate import Candidate, build_session, evaluate_static
from repro.synth.evaluate import (
    DEFAULT_PAYLOAD,
    DEFAULT_SEED,
    EvalStats,
    measure_job,
)
from repro.synth.genome import (
    Genome,
    baseline_genome,
    crossover,
    mutate,
    new_genome,
    seed_population,
)
from repro.synth.objectives import get_objective


@dataclass
class SynthConfig:
    """Everything that determines one search (and its checkpoints)."""

    objective: str = "bandwidth"
    budget: int = 200  # raw candidates drawn over the whole search
    population: int = 24  # raw candidates per generation
    finalists: int = 6  # measurements per generation
    elite: int = 4  # parents bred into the next generation
    fresh_fraction: float = 0.5  # per-gen exploration genomes
    seed: int = 2021  # search RNG (mutation, crossover, sampling)
    noise_seed: int = DEFAULT_SEED  # measurement noise (Table-I row's)
    payload: bytes = DEFAULT_PAYLOAD
    detector_bits: int = 8

    def as_dict(self) -> Dict[str, Any]:
        doc = dict(self.__dict__)
        doc["payload"] = self.payload.hex()
        return doc


@dataclass
class GenerationStats:
    """The staged-funnel counts of one generation."""

    generation: int
    raw: int = 0
    rejected_assembly: int = 0
    rejected_lint: int = 0
    static: int = 0
    deduped: int = 0  # finalists answered from earlier generations
    measured: int = 0
    best_fitness: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class SynthResult:
    """Outcome of one search: the winner plus the full funnel."""

    config: SynthConfig
    best: Optional[Candidate]
    generations: List[GenerationStats]
    stats: EvalStats
    measured: List[Candidate] = field(default_factory=list)

    @property
    def raw_total(self) -> int:
        return sum(g.raw for g in self.generations)

    @property
    def rejected_total(self) -> int:
        return sum(g.rejected_assembly + g.rejected_lint
                   for g in self.generations)

    @property
    def static_reject_rate(self) -> float:
        """Fraction of raw candidates the free stages killed."""
        return self.rejected_total / self.raw_total if self.raw_total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.as_dict(),
            "best": self.best.as_dict() if self.best else None,
            "generations": [g.as_dict() for g in self.generations],
            "stats": self.stats.as_dict(),
            "raw_total": self.raw_total,
            "rejected_total": self.rejected_total,
            "static_reject_rate": self.static_reject_rate,
        }


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties; no SciPy)."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while (j + 1 < len(order)
                   and values[order[j + 1]] == values[order[i]]):
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                result[order[k]] = avg
            i = j + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    mean = (len(xs) + 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def search_key(config: SynthConfig) -> str:
    """Content hash naming this search's checkpoint artifacts."""
    import hashlib

    from repro.harness.job import canonical_json

    return hashlib.sha256(
        canonical_json({"synth": 1, **config.as_dict()})
    ).hexdigest()


def _breed(parents: List[Candidate], rng: random.Random,
           count: int, fresh_fraction: float) -> List[Genome]:
    """Next generation's raw genomes from the measured elite."""
    genomes: List[Genome] = []
    fresh = max(1, int(count * fresh_fraction)) if count else 0
    while len(genomes) < count - fresh:
        a = rng.choice(parents).genome
        if len(parents) > 1 and rng.random() < 0.5:
            b = rng.choice(parents).genome
            genomes.append(crossover(a, b, rng))
        else:
            genomes.append(mutate(a, rng))
    while len(genomes) < count:
        genomes.append(new_genome(rng))
    return genomes


def _fitness(cand: Candidate) -> float:
    return cand.fitness if cand.fitness is not None else 0.0


def run_search(
    config: SynthConfig,
    evaluator,
    cache=None,
    log=None,
) -> SynthResult:
    """Run one seeded search to budget exhaustion.

    ``evaluator`` is a :class:`~repro.synth.evaluate.LocalEvaluator`
    or :class:`~repro.synth.evaluate.ServeEvaluator`; ``cache`` (a
    :class:`~repro.harness.cache.ResultCache`), when given, receives
    one population-checkpoint artifact per generation under
    :func:`search_key`.
    """
    objective = get_objective(config.objective)
    rng = random.Random(config.seed)
    visited: Dict[str, Candidate] = {}  # job key -> measured candidate
    generations: List[GenerationStats] = []
    parents: List[Candidate] = []
    raw_used = 0
    gen_index = 0
    ckpt_key = search_key(config)

    while raw_used < config.budget:
        size = min(config.population, config.budget - raw_used)
        if gen_index == 0:
            genomes = seed_population(rng, size)
        else:
            genomes = _breed(parents, rng, size, config.fresh_fraction)
        raw_used += len(genomes)

        stats = GenerationStats(generation=gen_index, raw=len(genomes))
        origin = "seed" if gen_index == 0 else f"gen{gen_index}"
        survivors: List[Candidate] = []
        for genome in genomes:
            cand = evaluate_static(genome, origin=origin)
            if cand.stage == "rejected-assembly":
                stats.rejected_assembly += 1
            elif cand.stage == "rejected-lint":
                stats.rejected_lint += 1
            else:
                survivors.append(cand)
        stats.static = len(survivors)

        # rank by the taint-derived static rate; measure the top
        # finalists we have not already paid for.  Generation 0 always
        # measures the hand-written operating point when it survived:
        # the search's anchor row, and the ancestor every later
        # generation must beat.
        survivors.sort(key=lambda c: (-c.static_rate_kbps,
                                      json.dumps(c.genome, sort_keys=True)))
        chosen: List[Candidate] = []
        if gen_index == 0:
            anchor = baseline_genome()
            chosen.extend(c for c in survivors if c.genome == anchor)
        for cand in survivors:
            if len(chosen) >= config.finalists:
                break
            if cand not in chosen:
                chosen.append(cand)
        to_measure: List[Candidate] = []
        for cand in chosen:
            cand.key = measure_job(
                cand.genome, config.noise_seed, config.payload,
                config.detector_bits,
            ).key()
            seen = visited.get(cand.key)
            if seen is not None:
                stats.deduped += 1
                cand.row = seen.row
                cand.fitness = seen.fitness
                cand.stage = seen.stage
                continue
            visited[cand.key] = cand
            to_measure.append(cand)

        evaluator.measure(to_measure, seed=config.noise_seed,
                          payload=config.payload,
                          detector_bits=config.detector_bits)
        for cand in to_measure:
            if cand.row is not None:
                cand.fitness = objective(cand.row)
        stats.measured = len([c for c in to_measure if c.row is not None])

        parents = sorted(
            (c for c in visited.values() if c.row is not None),
            key=lambda c: (-_fitness(c), c.key),
        )[: config.elite]
        if not parents:  # nothing measured yet: explore from scratch
            parents = [Candidate(genome=new_genome(rng))]
        stats.best_fitness = _fitness(parents[0]) if parents else 0.0
        generations.append(stats)
        if log:
            log(f"gen {gen_index}: raw={stats.raw} "
                f"rejected={stats.rejected_assembly + stats.rejected_lint} "
                f"static={stats.static} measured={stats.measured} "
                f"deduped={stats.deduped} "
                f"best={stats.best_fitness:.1f}")
        if cache is not None:
            cache.put_artifact(
                ckpt_key, f"gen-{gen_index:03d}.json",
                json.dumps({
                    "stats": stats.as_dict(),
                    "population": [c.as_dict() for c in survivors],
                }, sort_keys=True),
            )
        gen_index += 1

    measured = sorted(
        (c for c in visited.values() if c.row is not None),
        key=lambda c: (-_fitness(c), c.key),
    )
    best = measured[0] if measured else None
    return SynthResult(
        config=config,
        best=best,
        generations=generations,
        stats=evaluator.stats,
        measured=measured,
    )


# ----------------------------------------------------------------------
# reporting


def listing(genome: Genome, limit: int = 40) -> List[str]:
    """Assembly listing of a candidate's program (first ``limit``
    instructions), for the best-candidate report."""
    with no_preflight():
        program = build_session(genome).program
    lines = []
    for addr in sorted(program.instructions):
        macro = program.instructions[addr]
        target = f" -> {macro.target:#x}" if macro.target is not None else ""
        lines.append(f"{addr:#08x}: {macro.mnemonic}{target}")
        if len(lines) >= limit:
            lines.append(f"... ({len(program.instructions)} instructions)")
            break
    return lines


def best_report(result: SynthResult) -> Dict[str, Any]:
    """The best-candidate report the CLI emits: program listing plus
    the lint/taint summary and the measured row."""
    if result.best is None:
        return {"objective": result.config.objective, "best": None}
    best = result.best
    return {
        "objective": result.config.objective,
        "fitness": best.fitness,
        "key": best.key,
        "genome": dict(best.genome),
        "static": {
            "capacity_bits": best.capacity_bits,
            "static_rate_kbps": best.static_rate_kbps,
            "lint_findings": best.lint_findings,
        },
        "row": best.row,
        "listing": listing(best.genome),
        "funnel": {
            "raw": result.raw_total,
            "rejected": result.rejected_total,
            "static_reject_rate": result.static_reject_rate,
            "measured": len(result.measured),
            **result.stats.as_dict(),
        },
    }
