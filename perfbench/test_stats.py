"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import random
import time

import pytest

from perfbench import attack_cold, pace, serve_mix
from perfbench.stats import OpenLoopSample, poisson_schedule, tail, timing


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    value, pct = tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_tail_is_the_highest_such_percentile():
    values = list(range(1, 31))
    value, _ = tail(values)
    assert sum(v > value for v in values) == 10
    assert sum(v > value + 1 for v in values) < 10


def test_tail_never_reads_below_the_median():
    # 21 samples: index 10 is both the median and 10 from the top.
    assert tail(list(range(21))) == (10, pytest.approx(100 * 11 / 21))
    # Fewer samples cannot leave ten beyond a point at or above the
    # median, so the maximum stands in.
    assert tail([5, 1, 3, 2, 4]) == (5, 100.0)
    assert tail(list(range(12))) == (11, 100.0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_timing_reports_count():
    t = timing([0.3, 0.1, 0.2])
    assert t == {"p50": 0.2, "tail": 0.3, "tail_pct": 100.0, "n": 3}


def test_open_loop_latency_counts_from_due_time():
    sample = OpenLoopSample(due=10.0, sent=10.25, done=10.75)
    assert sample.latency == pytest.approx(0.75)   # not done - sent
    assert sample.late == pytest.approx(0.25)


def test_open_loop_early_send_is_not_late():
    sample = OpenLoopSample(due=10.0, sent=9.99, done=10.5)
    assert sample.late == 0.0
    assert sample.latency == pytest.approx(0.5)


def test_poisson_schedule_is_seeded_sorted_and_bounded():
    a = poisson_schedule(random.Random(7), 500, 20.0)
    b = poisson_schedule(random.Random(7), 500, 20.0)
    assert a == b
    assert a == sorted(a)
    assert len(a) == 500
    assert all(0.0 <= t < 20.0 for t in a)
    assert a != poisson_schedule(random.Random(8), 500, 20.0)


def _fake_catalog():
    kinds = ("warm_cell", "warm_workload", "warm_synth", "cold", "lint")
    return {kind: [{"doc": {"kind": "job", "id": f"{kind}{i}"},
                    "expected": None, "sim": {}} for i in range(3)]
            for kind in kinds}


def test_serve_schedule_sends_the_same_work_for_every_seed():
    entries = _fake_catalog()
    runs = [serve_mix.schedule(seed, 10.0, entries) for seed in (1, 2)]
    for reqs in runs:
        assert [r.due for r in reqs] == sorted(r.due for r in reqs)
    mix = [sorted((r.kind, r.doc["id"]) for r in reqs) for reqs in runs]
    assert mix[0] == mix[1]
    assert [r.due for r in runs[0]] != [r.due for r in runs[1]]


def test_serve_schedule_cold_seeds_are_fresh_and_duplicates_follow():
    reqs = serve_mix.schedule(3, 10.0, _fake_catalog())
    cold = [r for r in reqs if r.kind == "cold"]
    seeds = [r.doc["seed"] for r in cold]
    assert len(set(seeds)) == len(seeds) and 0 not in seeds
    for dup in (r for r in reqs if r.kind == "dup"):
        twin = next(r for r in cold if r.doc is dup.doc)
        assert dup.due == pytest.approx(twin.due + serve_mix.DUP_DELAY_S)


def test_attack_inputs_are_seeded_and_balanced():
    plan = attack_cold.inputs(4, 3)
    assert plan == attack_cold.inputs(4, 3)
    assert plan != attack_cold.inputs(5, 3)
    for row in plan:
        assert len(row) == len(attack_cold.DRIVERS)
        for cold, warm in row:
            assert bin(cold).count("1") == bin(warm).count("1") == 4


def test_slowdown_is_the_median_sample_over_nominal():
    assert pace.slowdown([]) == 1.0
    nominal = pace.REF_S
    samples = [nominal, 2 * nominal, 50 * nominal]   # one outlier
    assert pace.slowdown(samples) == pytest.approx(2.0)


def test_pacer_keeps_its_own_time_apart():
    pacer = pace.Pacer()
    for _ in range(3):
        pacer.sample()
    assert len(pacer.samples) == 3
    assert pacer.spent == pytest.approx(sum(pacer.samples))


def test_pacer_timer_samples_while_the_process_works():
    pacer = pace.Pacer()
    with pacer:
        assert pacer.armed
        start = time.thread_time()
        while time.thread_time() - start < 10 * pace.INTERVAL_S:
            pass
    assert not pacer.armed
    assert len(pacer.samples) >= 3
