"""Observe-event coverage for the contention suite: the live
simulator's ``itlb_fill`` / ``sb_drain`` event streams must line up
with the lint layer's statically predicted footprints -- the same
100%-agreement bar the eight existing drivers meet via ``dsb_fill``.
"""

import pytest

from repro.contention.channels import ITLBChannel, StoreBufferChannel
from repro.contention.templates import generate_pair
from repro.contention.session import ContentionSession
from repro.lint import analyze, live_check
from repro.lint.resources import (
    ITLBClaim,
    StoreClaim,
    static_pages,
    static_store_sites,
)


def _claim(session, name, kind):
    for claim in session.claims():
        if isinstance(claim, kind) and claim.name == name:
            return claim
    raise AssertionError(f"no {kind.__name__} named {name!r}")


class TestITLBCoverage:
    @pytest.mark.parametrize("name,entry", [
        ("rx", "rx_epoch"), ("tx_one", "tx_one"), ("tx_zero", "tx_zero"),
    ])
    def test_channel_routine_agrees_with_claim(self, name, entry):
        chan = ITLBChannel()
        claim = _claim(chan, name, ITLBClaim)
        result = live_check(
            chan.core, lambda: chan.core.call(entry),
            claim.prediction(),
        )
        assert result.events > 0
        assert result.agreement == 1.0, result.summary()
        assert result.clean

    def test_pair_victim_and_attacker_agree_with_claims(self):
        session = ContentionSession("itlb", "time_sliced")
        for name, entry in (("victim", "victim_work"),
                            ("attacker", session.pair.attacker_label)):
            claim = _claim(session, name, ITLBClaim)
            result = live_check(
                session.core, lambda: session.core.call(entry),
                claim.prediction(),
            )
            assert result.agreement == 1.0, result.summary()
            assert result.clean, result.summary()

    def test_static_pages_match_generated_page_sets(self):
        pair = generate_pair("itlb", variant="conflict")
        report = analyze(pair.program, pair.config)
        claim = next(c for c in pair.claims
                     if isinstance(c, ITLBClaim) and c.name == "victim")
        assert static_pages(report, claim.entry) == claim.page_set()


class TestStoreBufferCoverage:
    @pytest.mark.parametrize("name,entry", [
        ("rx", "rx_epoch"), ("tx_one", "tx_one"), ("tx_zero", "tx_zero"),
    ])
    def test_channel_routine_agrees_with_claim(self, name, entry):
        chan = StoreBufferChannel()
        report = analyze(chan.program, chan.config)
        claim = _claim(chan, name, StoreClaim)
        result = live_check(
            chan.core, lambda: chan.core.call(entry),
            claim.prediction(report),
        )
        assert result.agreement == 1.0, result.summary()
        assert result.clean
        if name == "tx_zero":
            assert result.events == 0
        else:
            assert result.events > 0

    def test_pair_victim_agrees_with_claim(self):
        session = ContentionSession("store_buffer", "smt")
        report = analyze(session.program, session.config)
        claim = _claim(session, "victim", StoreClaim)
        result = live_check(
            session.core, lambda: session.core.call("victim_work"),
            claim.prediction(report),
        )
        assert result.agreement == 1.0, result.summary()
        assert result.clean, result.summary()
        assert len(result.seen) == claim.sites

    def test_static_sites_match_claimed_counts(self):
        pair = generate_pair("store_buffer", variant="disjoint")
        report = analyze(pair.program, pair.config)
        for claim in pair.claims:
            if isinstance(claim, StoreClaim):
                sites = static_store_sites(report, claim.entry)
                assert len(sites) == claim.sites, claim.name
