"""Harness-native attacks: job registration, the attack artifacts'
grids, and caching.

A warm cache must answer the whole ``batch attacks`` grid without
executing a single simulation.  The Table I/II rows themselves are
pinned in ``tests/test_golden_artifacts.py``, and the keys and printed
values of the fast grid in ``tests/test_batch_golden.py``.
"""

from repro.cpu.config import CPUConfig
from repro.harness.experiments import (
    ARTIFACTS,
    ATTACKS,
    FIGURES,
    artifact_sweeps,
    check_claims,
    run_sweeps,
)
from repro.harness.job import registered_names


class TestRegistration:
    def test_attack_jobs_registered(self):
        names = registered_names()
        for name in (
            "attacks.table2_row",
            "attacks.keyextract",
            "attacks.bti",
            "attacks.jumptable",
            "attacks.lfence_signal",
        ):
            assert name in names

    def test_job_keys_are_stable(self):
        first = [job.key() for sweep in artifact_sweeps(ATTACKS).values()
                 for job in sweep.jobs()]
        second = [job.key() for sweep in artifact_sweeps(ATTACKS).values()
                  for job in sweep.jobs()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_keyextract_grid_uses_zen(self):
        # the SMT spy needs competitive sharing (the Zen preset),
        # whatever config the batch runs the other artifacts on
        for fast in (True, False):
            (sweep,) = ARTIFACTS["keyextract"].grid(
                CPUConfig.skylake(), fast).values()
            assert sweep.config.uop_cache_sharing == "competitive"

    def test_attack_artifact_groups(self):
        assert ATTACKS == (
            "table1", "table1_contention", "table2", "keyextract", "bti",
            "jumptable", "fig10_lfence",
        )
        assert not set(ATTACKS) & set(FIGURES)
        assert set(ATTACKS) | set(FIGURES) | {"contention", "workloads"} \
            == set(ARTIFACTS)
        for fast, keys in ((False, 3), (True, 1)):
            sizes = {name: len(sweep) for name, sweep
                     in artifact_sweeps(ATTACKS, fast=fast).items()}
            assert sizes == {
                "table1": 4, "table1_contention": 2, "table2": 2,
                "keyextract": keys, "bti": 1, "jumptable": 1,
                "fig10_lfence": 3,
            }


class TestCaching:
    def test_warm_cache_executes_nothing(self, fast_attacks):
        results, cold, cache = fast_attacks
        assert cold.executed == cold.total > 0
        warm_results, _, warm = run_sweeps(
            artifact_sweeps(ATTACKS, fast=True), cache=cache)
        assert warm.executed == 0
        assert warm.cached == warm.total == cold.total
        assert warm_results == results

    def test_fast_grid_leaks(self, fast_attacks):
        results, _, _ = fast_attacks
        assert list(results) == list(ATTACKS)
        assert [row.mode for row in results["table1"]] == [
            "Same address space",
            "Same address space (User/Kernel)",
            "Cross-thread (SMT)",
            "Transient Execution Attack",
        ]
        uop_row = results["table2"][1]
        assert uop_row.attack == "Spectre (uop cache)"
        assert uop_row.byte_accuracy == 1.0
        assert results["keyextract"][0]["exact"]
        assert results["bti"]["byte_accuracy"] == 1.0
        fences = results["fig10_lfence"]
        # Figure 10: LFENCE does not close the channel, CPUID does
        assert fences["lfence"] > 4 * fences["cpuid"]

    def test_every_attack_claim_holds_on_the_fast_grid(self, fast_attacks):
        results, _, _ = fast_attacks
        verdicts = check_claims(results)
        assert {name for name, _, _ in verdicts} == set(ATTACKS)
        assert [(name, claim.name) for name, claim, holds in verdicts
                if not holds] == []
