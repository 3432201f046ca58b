"""Unit tests for the RC-series resource-claim verifiers
(``repro.lint.resources``): static page/store-site reachability,
claim verification diagnostics, capacity-relation pairs, and the lint
runner's contention targets.
"""

import pytest

from repro.contention.templates import generate_pair
from repro.lint import CATALOG, Severity, analyze, errors_of, verify_claims
from repro.lint.resources import ITLBClaim, ResourcePairClaim, StoreClaim


@pytest.fixture(scope="module")
def itlb_pair():
    pair = generate_pair("itlb", variant="conflict")
    return pair, analyze(pair.program, pair.config)


@pytest.fixture(scope="module")
def sb_pair():
    pair = generate_pair("store_buffer", variant="conflict")
    return pair, analyze(pair.program, pair.config)


class TestCatalogEntries:
    @pytest.mark.parametrize("code", ["RC001", "RC002", "RC003",
                                      "XC002", "XC003"])
    def test_new_codes_are_registered_errors(self, code):
        entry = CATALOG[code]
        assert entry.severity is Severity.ERROR
        assert entry.hint and entry.title


class TestITLBClaims:
    def test_generated_claims_verify_clean(self, itlb_pair):
        pair, report = itlb_pair
        assert verify_claims(report, pair.claims) == []

    def test_unclaimed_page_is_rc001(self, itlb_pair):
        pair, report = itlb_pair
        good = next(c for c in pair.claims
                    if isinstance(c, ITLBClaim) and c.name == "victim")
        # drop one genuinely reachable page from the claim
        tampered = ITLBClaim(good.name, good.entry, good.pages[:-1])
        diags = tampered.verify(report, {})
        assert {d.code for d in diags} == {"RC001"}
        assert any("unclaimed" in d.message for d in diags)

    def test_unreachable_claimed_page_is_rc001(self, itlb_pair):
        pair, report = itlb_pair
        good = next(c for c in pair.claims
                    if isinstance(c, ITLBClaim) and c.name == "victim")
        tampered = ITLBClaim(good.name, good.entry,
                             good.pages + (0x7FF,))
        diags = tampered.verify(report, {})
        assert any("unreachable" in d.message for d in diags)

    def test_unknown_entry_label_is_rc001(self, itlb_pair):
        _, report = itlb_pair
        diags = ITLBClaim("ghost", "no_such_label", (1,)).verify(report, {})
        assert [d.code for d in diags] == ["RC001"]


class TestStoreClaims:
    def test_generated_claims_verify_clean(self, sb_pair):
        pair, report = sb_pair
        assert verify_claims(report, pair.claims) == []

    def test_wrong_site_count_is_rc002(self, sb_pair):
        pair, report = sb_pair
        good = next(c for c in pair.claims
                    if isinstance(c, StoreClaim) and c.name == "victim")
        diags = StoreClaim(good.name, good.entry, good.sites + 3).verify(
            report, {}
        )
        assert [d.code for d in diags] == ["RC002"]

    def test_unknown_entry_label_is_rc002(self, sb_pair):
        _, report = sb_pair
        diags = StoreClaim("ghost", "no_such_label", 1).verify(report, {})
        assert [d.code for d in diags] == ["RC002"]


class TestPairClaims:
    def test_bad_relation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="relation"):
            ResourcePairClaim("a", "v", "itlb", "overlapping")

    def test_false_conflict_is_rc003(self, itlb_pair):
        """Two tiny footprints cannot claim to oversubscribe 16
        entries."""
        pair, report = itlb_pair
        claims = {c.name: c for c in pair.claims
                  if isinstance(c, ITLBClaim)}
        small = ITLBClaim("victim", claims["victim"].entry,
                          claims["victim"].pages[:2])
        diags = ResourcePairClaim(
            "attacker", "victim", "itlb", "conflict"
        ).verify(report, {"victim": small, "attacker": small})
        assert [d.code for d in diags] == ["RC003"]
        assert "within" in diags[0].message

    def test_false_disjoint_is_rc003(self, itlb_pair):
        pair, report = itlb_pair
        claims = {c.name: c for c in pair.claims
                  if isinstance(c, ITLBClaim)}
        diags = ResourcePairClaim(
            "attacker", "victim", "itlb", "disjoint"
        ).verify(report, claims)
        assert [d.code for d in diags] == ["RC003"]

    def test_missing_referent_is_rc003(self, itlb_pair):
        _, report = itlb_pair
        diags = ResourcePairClaim(
            "nobody", "noone", "itlb", "conflict"
        ).verify(report, {})
        assert len(diags) == 2
        assert all(d.code == "RC003" for d in diags)

    def test_non_itlb_resources_are_dynamic_only(self, sb_pair):
        _, report = sb_pair
        diags = ResourcePairClaim(
            "a", "v", "store_buffer", "conflict"
        ).verify(report, {})
        assert diags == []


class TestPreflightIntegration:
    def test_session_preflight_rejects_tampered_claims(self):
        from repro.contention.channels import ITLBChannel
        from repro.lint import LintError
        from repro.session.base import AttackSession

        class Tampered(ITLBChannel):
            def build_program(self):
                program = super().build_program()
                claims = [c for c in self._claims
                          if not isinstance(c, ITLBClaim)]
                claims.append(ITLBClaim("rx", "rx_epoch", (1, 2, 3)))
                self._claims = claims
                return program

        with pytest.raises(LintError, match="RC001"):
            Tampered()

    def test_lint_runner_contention_targets_are_clean(self):
        from repro.lint.runner import run_lint

        run = run_lint(["contention-itlb", "contention-sb",
                        "contention-pairs"])
        assert run.ok, run.render(show_info=True)
        assert run.exit_code == 0
        by_name = {r.name: r for r in run.results}
        # the multi-program target analyzed real regions
        assert by_name["contention-pairs"].regions > 0
