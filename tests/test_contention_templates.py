"""Property tests for the contention pair generator.

The generator's contract (``repro.contention.templates``): every
emitted pair assembles into a runnable program, passes the static lint
preflight (footprint rules + its own resource claims), and keeps
attacker/victim footprints disjoint-by-construction in the
``disjoint`` negative-control variant.  Hypothesis searches the
(resource, variant, domain, size) space for violations;
``test_contention_matrix.py`` keeps the example-based measurement
coverage.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.contention.session import MODES, ContentionSession
from repro.contention.templates import (
    DOMAINS,
    PAGE,
    RESOURCES,
    VARIANTS,
    generate_pair,
)
from repro.errors import ConfigError
from repro.lint import analyze, check_program, errors_of, verify_claims
from repro.lint.resources import ITLBClaim

#: Per-resource footprint-size menus.  Bounded so a draw stays cheap,
#: and chosen to respect each template's geometric constraints (set
#: counts dividing the cache geometry, disjoint shifts that cannot
#: wrap onto the conflict sets).
_SIZES = {
    "uop_cache": st.sampled_from([4, 8]),
    "itlb": st.integers(min_value=2, max_value=10),
    "dtlb": st.integers(min_value=2, max_value=10),
    "l1i": st.sampled_from([2, 4]),
    "l1d": st.sampled_from([2, 4]),
    "store_buffer": st.integers(min_value=20, max_value=60),
    "btb": st.integers(min_value=4, max_value=24),
}

_pair_space = st.sampled_from(RESOURCES).flatmap(
    lambda resource: st.tuples(
        st.just(resource),
        st.sampled_from(VARIANTS),
        st.sampled_from(DOMAINS),
        _SIZES[resource],
    )
)


@given(_pair_space)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_pair_assembles_and_lints_clean(drawn):
    """Any in-menu pair assembles and has zero error-severity findings
    (footprint rules + chain/pair/resource claims)."""
    resource, variant, domain, size = drawn
    pair = generate_pair(resource, variant=variant, domain=domain, size=size)
    assert pair.program.labels["victim_work"]
    assert pair.program.labels[pair.attacker_label]
    assert pair.program.labels[pair.idle_label]
    report = analyze(pair.program, pair.config)
    findings = check_program(report)
    findings.extend(verify_claims(report, pair.claims))
    assert errors_of(findings) == [], [str(d) for d in findings]


def _data_pages(chain):
    return {addr // PAGE for addr in chain}


@given(_pair_space)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_negative_controls_are_disjoint_by_construction(drawn):
    """In the ``disjoint`` variant no template shares index points:
    DSB sets, iTLB pages, data pages, L1 sets or bimodal slots."""
    resource, _, domain, size = drawn
    pair = generate_pair(resource, variant="disjoint", domain=domain,
                         size=size)
    meta = pair.meta
    if resource == "uop_cache":
        assert not set(meta["victim_sets"]) & set(meta["attacker_sets"])
    elif resource == "itlb":
        claims = {c.name: c for c in pair.claims
                  if isinstance(c, ITLBClaim)}
        assert not claims["victim"].page_set() & claims["attacker"].page_set()
    elif resource in ("dtlb", "l1d"):
        # victim chases its own reserved arena; the attacker's loads
        # stay inside a different reservation
        chain_pages = _data_pages(meta["pointer_chain"])
        a_base = pair.program.labels["attacker_darena"]
        v_base = pair.program.labels["victim_darena"]
        assert all(addr >= v_base for addr in meta["pointer_chain"])
        attacker_pages = {
            (a_base + i * PAGE) // PAGE
            for i in range(meta.get("attacker_pages", 16) + 1)
        }
        assert not chain_pages & attacker_pages
    elif resource == "l1i":
        assert not set(meta["victim_sets"]) & set(meta["attacker_sets"])
    elif resource == "store_buffer":
        # distinct data reservations: the only sharing left is the
        # drain port itself, which the 4-store pacing undercommits
        assert (pair.program.labels["victim_sbuf"]
                != pair.program.labels["attacker_sbuf"])
        assert meta["attacker_stores"] < meta["sb_entries"]
    elif resource == "btb":
        assert not set(meta["victim_slots"]) & set(meta["attacker_slots"])


@given(_pair_space)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_conflict_cells_share_index_points(drawn):
    """The ``conflict`` variant really does collide: same sets/slots,
    or a combined working set past the structure's capacity."""
    resource, _, domain, size = drawn
    pair = generate_pair(resource, variant="conflict", domain=domain,
                         size=size)
    meta = pair.meta
    if resource == "uop_cache":
        assert set(meta["victim_sets"]) == set(meta["attacker_sets"])
        assert meta["ways_demand"] > meta["cache_ways"]
    elif resource == "itlb":
        claims = {c.name: c for c in pair.claims
                  if isinstance(c, ITLBClaim)}
        combined = claims["victim"].page_set() | claims["attacker"].page_set()
        assert len(combined) > meta["itlb_entries"]
    elif resource == "dtlb":
        assert meta["victim_pages"] + meta["attacker_pages"] \
            > meta["dtlb_entries"]
    elif resource in ("l1i", "l1d"):
        assert set(meta["victim_sets"]) == set(meta["attacker_sets"])
        assert meta["victim_ways"] + meta["attacker_ways"] > 8
    elif resource == "store_buffer":
        assert meta["attacker_stores"] > meta["sb_entries"]
    elif resource == "btb":
        assert set(meta["victim_slots"]) == set(meta["attacker_slots"])


class TestValidation:
    def test_unknown_resource_rejected(self):
        with pytest.raises(ConfigError, match="resource"):
            generate_pair("frobnicator")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            generate_pair("itlb", variant="maybe")

    def test_unknown_domain_rejected(self):
        with pytest.raises(ConfigError, match="domain"):
            generate_pair("itlb", domain="hypervisor")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            ContentionSession("itlb", "telepathy")

    def test_modes_are_the_paper_scenarios(self):
        assert MODES == ("smt", "cross_domain", "time_sliced")

    def test_kernel_domain_marks_kernel_ranges(self):
        pair = generate_pair("itlb", domain="kernel")
        assert pair.program.kernel_ranges
        assert pair.attacker_label == "attacker_enter"
