"""Characterization experiments reproduce the paper's structural
findings (Section III) on the fast grid.

The findings are the named claims of Figures 3-7 in
``repro.harness.experiments.ARTIFACTS``; each test checks the claims
that state one finding.  ``benchmarks/test_fig*`` check the same claims
on the paper-resolution grid.
"""

from repro.cpu.config import CPUConfig
from repro.harness import Job, run_jobs
from repro.harness.experiments import ARTIFACTS


def assert_claims(fast_study, artifact, *indices):
    """The listed claims of ``artifact`` hold on the fast grid."""
    figures, _ = fast_study
    for i in indices:
        claim = ARTIFACTS[artifact].claims[i]
        assert claim.holds(figures[artifact]), claim.name


class TestSize:
    def test_knee_at_256_lines(self, fast_study):
        assert_claims(fast_study, "fig3a_size", 0, 1)

    def test_sunny_cove_has_higher_knee(self):
        """The 1.5x Sunny Cove cache fits loops Skylake cannot."""
        (skylake, sunny_cove), _ = run_jobs([
            Job("characterize.size", config=config,
                params={"n": 300, "iters": 8})
            for config in (CPUConfig.skylake(), CPUConfig.sunny_cove())])
        assert sunny_cove.result < skylake.result


class TestAssociativity:
    def test_knee_at_8_ways(self, fast_study):
        assert_claims(fast_study, "fig3b_associativity", 0)


class TestPlacement:
    def test_two_regions_cap_at_18_uops(self, fast_study):
        assert_claims(fast_study, "fig4_placement", 0)

    def test_eight_regions_cap_at_6_uops(self, fast_study):
        assert_claims(fast_study, "fig4_placement", 2)


class TestReplacement:
    def test_no_eviction_without_interference(self, fast_study):
        assert_claims(fast_study, "fig5_replacement", 0)

    def test_hotness_diagonal(self, fast_study):
        """An evicting loop displaces the main loop only once its
        iteration count rivals the main loop's (Figure 5)."""
        assert_claims(fast_study, "fig5_replacement", 1, 2)

    def test_more_main_iterations_retain_more(self, fast_study):
        assert_claims(fast_study, "fig5_replacement", 3)


class TestSMTPartitioning:
    def test_knee_halves_in_smt(self, fast_study):
        assert_claims(fast_study, "fig6_smt", 0, 1, 2)


class TestPartitionGeometry:
    def test_no_contention_across_sets(self, fast_study):
        """Figure 7a: both threads keep streaming wherever T1 probes."""
        assert_claims(fast_study, "fig7_geometry", 0)

    def test_16_sets_per_thread_in_smt(self, fast_study):
        """Figure 7b: 32 groups stream single-threaded, 16 in SMT."""
        assert_claims(fast_study, "fig7_geometry", 1, 2)
