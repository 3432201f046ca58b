"""Golden measured results: the Section IV tiger/zebra signal, the
Figure 9 tuning points and the Section VIII mitigations.

The literals were captured from the runners that preceded these
results' one definition; the simulator is deterministic, so any drift
is a model change, not noise.  Only the four readers below know where
the numbers come from.
"""

import functools

#: The Figure 9 payload.
FIG9_PAYLOAD = b"\x5a\xa5\x3c\xc3"

#: Figure 9 on the fast grid's axis values: ``(value, bandwidth_kbps,
#: error_rate)`` per axis, the other two knobs at the operating point
#: (8 sets, 6 ways, 5 samples).
FIG9_FAST = {
    "nsets": [(1, 2660.671942844825, 0.3125),
              (4, 839.6827865028768, 0.0),
              (8, 419.9475065616798, 0.0)],
    "nways": [(4, 2033.7068072686188, 0.46875),
              (6, 419.9475065616798, 0.0)],
    "samples": [(1, 1972.332557183947, 0.0),
                (5, 419.9475065616798, 0.0)],
}

#: Section IV at 16 calibration rounds: hit mean, miss mean, delta and
#: the delta's standard deviation (cycles).
SEC4_SIGNAL = (94.875, 723.0, 628.125, 18.29731309965118)

#: The user/kernel channel on payload b"\xa5": ``(mitigation,
#: signal_delta, error_rate, kernel_cycles)``.
MITIGATIONS = [
    ("baseline", 503.25, 0.0, 54537),
    ("flush-on-crossing", 0.0, 0.5, 124408),
    ("privilege-partition", -146.5, 0.375, 119084),
]


@functools.lru_cache(maxsize=None)
def _fast(name):
    """Artifact ``name`` assembled from its fast grid."""
    from repro.harness.experiments import artifact_sweeps, run_sweeps

    artifacts, _, _ = run_sweeps(artifact_sweeps([name], fast=True))
    return artifacts[name]


def _fig9_fast():
    from repro.harness import experiments

    assert experiments.FIG9_PAYLOAD == FIG9_PAYLOAD
    return _fast("fig9_tuning")


def _sec4_signal():
    t = _fast("sec4_signal")
    return (t["hit_mean"], t["miss_mean"], t["delta"], t["delta_sd"])


def _mitigations():
    return [(m, r["signal_delta"], r["error_rate"], r["kernel_cycles"])
            for m, r in _fast("mitigations")["crossdomain"].items()]


def _variant1():
    v1 = _fast("mitigations")["variant1"]
    return (v1["baseline"], v1["privilege-partition"])


def test_fig9_fast_points():
    assert _fig9_fast() == FIG9_FAST


def test_sec4_signal():
    assert _sec4_signal() == SEC4_SIGNAL


def test_mitigations_crossdomain():
    assert _mitigations() == MITIGATIONS


def test_variant1_survives_privilege_partitioning():
    """Byte accuracy on the baseline and the partitioned config."""
    assert _variant1() == (1.0, 1.0)
