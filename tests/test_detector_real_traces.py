"""Counter-based detection evaluated on *real* simulated traces:
benign windows from the workload suite, attack windows from covert
channel bit transmissions (Section VIII's detection discussion)."""

import pytest

from repro.analysis import roc_sweep
from repro.core.mitigations import (
    collect_attack_windows,
    collect_benign_windows,
)


@pytest.fixture(scope="module")
def traces():
    benign = collect_benign_windows()
    attack = collect_attack_windows(bits=12)
    return benign, attack


def test_attack_windows_are_nonzero(traces):
    _, attack = traces
    assert all(w > 0 for w in attack)


def test_hot_benign_code_is_quiet(traces):
    benign, _ = traces
    # most benign windows (warm workloads) cause no DSB misses at all
    assert sorted(benign)[len(benign) // 2] == 0


def test_detector_separates_better_than_chance(traces):
    benign, attack = traces
    roc = roc_sweep(benign, attack)
    assert roc.auc > 0.7


def test_misclassification_is_inherent(traces):
    """The paper's caveat, reproduced with real traces: some benign
    code (capacity-bound loops) produces *more* DSB misses than the
    attack itself, so no threshold is simultaneously complete and
    sound."""
    benign, attack = traces
    assert max(benign) > max(attack)  # large_code out-misses the spy
    roc = roc_sweep(benign, attack)
    best = roc.best_threshold(max_fpr=0.0)
    tpr_at_zero_fpr = best.tpr if best is not None else 0.0
    assert tpr_at_zero_fpr < 1.0
