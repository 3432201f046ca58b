"""Property tests for the taint analyzer's soundness contract.

The analyzer promises an *over-approximation*: every live event-key
divergence between two runs that differ only in the secret must fall
inside the static secret-dependence prediction.  Hypothesis searches
the contention pair generator's (resource, variant, size) space for a
counter-example, using the secret bit to select the attacker vs the
idle entry of each generated pair; the twin-entry control checks the
other direction -- identical alternatives must report no
secret-dependent state and produce no live divergence at all.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.contention.templates import RESOURCES, VARIANTS, generate_pair
from repro.cpu.core import Core
from repro.lint import SecretClaim, analyze, live_check, verify_secret_claims

#: Per-resource footprint-size menus, bounded as in
#: ``test_contention_templates.py`` so every draw stays cheap.
_SIZES = {
    "uop_cache": st.sampled_from([4, 8]),
    "itlb": st.integers(min_value=2, max_value=6),
    "dtlb": st.integers(min_value=2, max_value=6),
    "l1i": st.sampled_from([2, 4]),
    "l1d": st.sampled_from([2, 4]),
    "store_buffer": st.integers(min_value=20, max_value=40),
    "btb": st.integers(min_value=4, max_value=16),
}

_pair_space = st.sampled_from(RESOURCES).flatmap(
    lambda resource: st.tuples(
        st.just(resource),
        st.sampled_from(VARIANTS),
        _SIZES[resource],
    )
)


@given(_pair_space)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_static_taint_overapproximates_live_divergence(drawn):
    """Soundness: the live two-secret differential never escapes the
    static prediction, for any in-menu generated pair."""
    resource, variant, size = drawn
    pair = generate_pair(resource, variant=variant, size=size)
    report = analyze(pair.program, pair.config)
    claim = SecretClaim(
        name="bit",
        entries=(pair.attacker_label, pair.idle_label),
        leaks_to=(),
    )
    taint = verify_secret_claims(report, [claim])
    core = Core(pair.config, pair.program)

    def drive(bit):
        core.call(pair.attacker_label if bit else pair.idle_label)

    check = live_check(core, drive, taint.prediction(), secrets=(0, 1))
    assert check.clean, f"{resource}/{variant}: {check.summary()}"


@given(_pair_space)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_twin_entries_report_zero_dependence_and_divergence(drawn):
    """Negative control: when both 'alternatives' are the same label
    there is no secret, so the analysis must find zero
    secret-dependent sets and the live runs must not diverge."""
    resource, variant, size = drawn
    pair = generate_pair(resource, variant=variant, size=size)
    report = analyze(pair.program, pair.config)
    claim = SecretClaim(
        name="twin",
        entries=(pair.attacker_label, pair.attacker_label),
        leaks_to=(),
    )
    taint = verify_secret_claims(report, [claim])
    assert taint.regions == frozenset()
    assert taint.capacity_bits == 0.0
    core = Core(pair.config, pair.program)

    def drive(bit):
        core.call(pair.attacker_label)

    check = live_check(core, drive, taint.prediction(), secrets=(0, 1))
    assert len(check.seen) == 0
    assert check.clean
