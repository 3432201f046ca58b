"""Golden counters: the simulator"s output pinned as literals.

Reset parity compares the interpreter against itself, so a change to
the model that hits fresh and reset cores alike passes it.  These tests
pin absolute numbers instead: the full
per-thread ``PerfCounters`` deltas of every attack driver on one fixed
byte (a cold operation on a fresh session, then ``reset()`` and a
second operation), one cold operation on each micro-op cache path the
default drivers skip (LRU, Zen's competitive sharing, the privilege
partition and noise evictions, with the cache's stats and final
contents), one Figure-3 ``--fast`` job result, one ``uop_cache``
contention-matrix cell, the data-heavy workloads of the suite (counters,
cycles, one memory word and the result register) and the full observer
event stream of four drivers.  Counters are listed with their zero fields left out; every
field not listed must be zero.

A deliberate model change updates these literals in the same commit,
with the reason; a speed-up must leave them untouched.
"""

import hashlib

import pytest

from repro.contention.channels import ITLBChannel, StoreBufferChannel
from repro.core.covert import CovertChannel
from repro.core.crossdomain import CrossDomainChannel
from repro.core.smtchannel import SMTChannel
from repro.core.transient import UopCacheSpectreV1
from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.cpu.noise import NoiseModel
from repro.harness.contention import contention_jobs
from repro.harness.experiments import characterize_sweeps
from repro.workloads.suite import build_workload, run_workload

#: The transmitted (or leaked) byte: four bits set.
BYTE = 0xA5
BITS = [(BYTE >> i) & 1 for i in range(8)]

DRIVERS = {
    "covert": CovertChannel,
    "crossdomain": CrossDomainChannel,
    "smt": SMTChannel,
    "spectre": lambda: UopCacheSpectreV1(secret=bytes([BYTE])),
    "itlb": ITLBChannel,
    "store_buffer": StoreBufferChannel,
}

#: Per driver and phase: (received bits or leaked bytes, non-zero
#: counter deltas of thread 0 and thread 1).
GOLDEN = {
    "covert": {
        "cold": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 39651,
             "uops_mite": 15453,
             "dsb_miss_penalty_cycles": 88602,
             "dsb_switches": 2036,
             "dsb_hits": 10134,
             "dsb_misses": 3866,
             "icache_misses": 150,
             "itlb_misses": 9,
             "fetch_blocks": 14000,
             "macro_ops_decoded": 15451,
             "branches": 13720,
             "retired_uops": 55104,
             "retired_instructions": 54880},
            {},
        )),
        "warm": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 39651,
             "uops_mite": 15453,
             "dsb_miss_penalty_cycles": 88602,
             "dsb_switches": 2036,
             "dsb_hits": 10134,
             "dsb_misses": 3866,
             "icache_misses": 150,
             "itlb_misses": 9,
             "fetch_blocks": 14000,
             "macro_ops_decoded": 15451,
             "branches": 13720,
             "retired_uops": 55104,
             "retired_instructions": 54880},
            {},
        )),
    },
    "crossdomain": {
        "cold": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 40645,
             "uops_mite": 15900,
             "uops_msrom": 1344,
             "dsb_miss_penalty_cycles": 90903,
             "dsb_switches": 2130,
             "dsb_hits": 10663,
             "dsb_misses": 4060,
             "icache_misses": 152,
             "itlb_misses": 11,
             "fetch_blocks": 14723,
             "macro_ops_decoded": 15960,
             "branches": 14192,
             "branch_mispredicts": 43,
             "squashes": 43,
             "squashed_uops": 685,
             "retired_uops": 57204,
             "retired_instructions": 55972,
             "syscalls": 168,
             "llc_refs": 1,
             "llc_misses": 1,
             "l1d_refs": 168,
             "l1d_misses": 1},
            {},
        )),
        "warm": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 40645,
             "uops_mite": 15900,
             "uops_msrom": 1344,
             "dsb_miss_penalty_cycles": 90903,
             "dsb_switches": 2130,
             "dsb_hits": 10663,
             "dsb_misses": 4060,
             "icache_misses": 152,
             "itlb_misses": 11,
             "fetch_blocks": 14723,
             "macro_ops_decoded": 15960,
             "branches": 14192,
             "branch_mispredicts": 43,
             "squashes": 43,
             "squashed_uops": 685,
             "retired_uops": 57204,
             "retired_instructions": 55972,
             "syscalls": 168,
             "llc_refs": 1,
             "llc_misses": 1,
             "l1d_refs": 168,
             "l1d_misses": 1},
            {},
        )),
    },
    "smt": {
        "cold": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 33952,
             "uops_mite": 13680,
             "dsb_miss_penalty_cycles": 121857,
             "dsb_switches": 106,
             "dsb_hits": 8438,
             "dsb_misses": 3420,
             "icache_misses": 98,
             "itlb_misses": 3,
             "fetch_blocks": 11858,
             "macro_ops_decoded": 13677,
             "branches": 11838,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 292,
             "retired_uops": 47340,
             "retired_instructions": 47100},
            {"uops_dsb": 80449,
             "uops_mite": 15431,
             "dsb_miss_penalty_cycles": 117143,
             "dsb_switches": 419,
             "dsb_hits": 20403,
             "dsb_misses": 4127,
             "icache_misses": 99,
             "itlb_misses": 3,
             "fetch_blocks": 24530,
             "macro_ops_decoded": 15431,
             "branches": 24510,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 80,
             "retired_uops": 95800,
             "retired_instructions": 95800},
        )),
        "warm": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 33952,
             "uops_mite": 13680,
             "dsb_miss_penalty_cycles": 121857,
             "dsb_switches": 106,
             "dsb_hits": 8438,
             "dsb_misses": 3420,
             "icache_misses": 98,
             "itlb_misses": 3,
             "fetch_blocks": 11858,
             "macro_ops_decoded": 13677,
             "branches": 11838,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 292,
             "retired_uops": 47340,
             "retired_instructions": 47100},
            {"uops_dsb": 80449,
             "uops_mite": 15431,
             "dsb_miss_penalty_cycles": 117143,
             "dsb_switches": 419,
             "dsb_hits": 20403,
             "dsb_misses": 4127,
             "icache_misses": 99,
             "itlb_misses": 3,
             "fetch_blocks": 24530,
             "macro_ops_decoded": 15431,
             "branches": 24510,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 80,
             "retired_uops": 95800,
             "retired_instructions": 95800},
        )),
    },
    "spectre": {
        "cold": ([165], (
            {"uops_dsb": 34615,
             "uops_mite": 9208,
             "dsb_miss_penalty_cycles": 56520,
             "dsb_switches": 681,
             "dsb_hits": 11696,
             "dsb_misses": 2822,
             "icache_misses": 138,
             "itlb_misses": 8,
             "fetch_blocks": 14518,
             "macro_ops_decoded": 9206,
             "branches": 14140,
             "branch_mispredicts": 68,
             "squashes": 68,
             "squashed_uops": 3447,
             "retired_uops": 40376,
             "retired_instructions": 40152,
             "llc_refs": 59,
             "llc_misses": 59,
             "l1d_refs": 336,
             "l1d_misses": 59},
            {},
        )),
        "warm": ([165], (
            {"uops_dsb": 34615,
             "uops_mite": 9208,
             "dsb_miss_penalty_cycles": 56520,
             "dsb_switches": 681,
             "dsb_hits": 11696,
             "dsb_misses": 2822,
             "icache_misses": 138,
             "itlb_misses": 8,
             "fetch_blocks": 14518,
             "macro_ops_decoded": 9206,
             "branches": 14140,
             "branch_mispredicts": 68,
             "squashes": 68,
             "squashed_uops": 3447,
             "retired_uops": 40376,
             "retired_instructions": 40152,
             "llc_refs": 59,
             "llc_misses": 59,
             "l1d_refs": 336,
             "l1d_misses": 59},
            {},
        )),
    },
    "itlb": {
        "cold": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 660,
             "uops_mite": 10660,
             "dsb_miss_penalty_cycles": 24500,
             "dsb_switches": 180,
             "dsb_hits": 140,
             "dsb_misses": 3740,
             "icache_misses": 10,
             "itlb_misses": 244,
             "fetch_blocks": 3880,
             "macro_ops_decoded": 10620,
             "branches": 3860,
             "branch_mispredicts": 40,
             "squashes": 40,
             "squashed_uops": 160,
             "retired_uops": 11160,
             "retired_instructions": 11000},
            {"uops_dsb": 90,
             "uops_mite": 3970,
             "dsb_miss_penalty_cycles": 41762,
             "dsb_switches": 70,
             "dsb_hits": 60,
             "dsb_misses": 1670,
             "icache_misses": 27,
             "itlb_misses": 991,
             "fetch_blocks": 1730,
             "macro_ops_decoded": 3970,
             "branches": 1710,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 60,
             "retired_uops": 4000,
             "retired_instructions": 4000},
        )),
        "warm": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 660,
             "uops_mite": 10660,
             "dsb_miss_penalty_cycles": 24500,
             "dsb_switches": 180,
             "dsb_hits": 140,
             "dsb_misses": 3740,
             "icache_misses": 10,
             "itlb_misses": 244,
             "fetch_blocks": 3880,
             "macro_ops_decoded": 10620,
             "branches": 3860,
             "branch_mispredicts": 40,
             "squashes": 40,
             "squashed_uops": 160,
             "retired_uops": 11160,
             "retired_instructions": 11000},
            {"uops_dsb": 90,
             "uops_mite": 3970,
             "dsb_miss_penalty_cycles": 41762,
             "dsb_switches": 70,
             "dsb_hits": 60,
             "dsb_misses": 1670,
             "icache_misses": 27,
             "itlb_misses": 991,
             "fetch_blocks": 1730,
             "macro_ops_decoded": 3970,
             "branches": 1710,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 60,
             "retired_uops": 4000,
             "retired_instructions": 4000},
        )),
    },
    "store_buffer": {
        "cold": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 3740,
             "uops_mite": 1280,
             "dsb_miss_penalty_cycles": 2314,
             "dsb_switches": 40,
             "dsb_hits": 520,
             "dsb_misses": 200,
             "icache_misses": 4,
             "itlb_misses": 1,
             "fetch_blocks": 720,
             "macro_ops_decoded": 1220,
             "branches": 80,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 380,
             "retired_uops": 4640,
             "retired_instructions": 4480},
            {"uops_dsb": 4860,
             "uops_mite": 2700,
             "dsb_miss_penalty_cycles": 4706,
             "dsb_switches": 20,
             "dsb_hits": 660,
             "dsb_misses": 770,
             "icache_misses": 6,
             "itlb_misses": 2,
             "fetch_blocks": 1430,
             "macro_ops_decoded": 2700,
             "branches": 730,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 310,
             "retired_uops": 7250,
             "retired_instructions": 7250},
        )),
        "warm": ([1, 0, 1, 0, 0, 1, 0, 1], (
            {"uops_dsb": 3740,
             "uops_mite": 1280,
             "dsb_miss_penalty_cycles": 2314,
             "dsb_switches": 40,
             "dsb_hits": 520,
             "dsb_misses": 200,
             "icache_misses": 4,
             "itlb_misses": 1,
             "fetch_blocks": 720,
             "macro_ops_decoded": 1220,
             "branches": 80,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 380,
             "retired_uops": 4640,
             "retired_instructions": 4480},
            {"uops_dsb": 4860,
             "uops_mite": 2700,
             "dsb_miss_penalty_cycles": 4706,
             "dsb_switches": 20,
             "dsb_hits": 660,
             "dsb_misses": 770,
             "icache_misses": 6,
             "itlb_misses": 2,
             "fetch_blocks": 1430,
             "macro_ops_decoded": 2700,
             "branches": 730,
             "branch_mispredicts": 20,
             "squashes": 20,
             "squashed_uops": 310,
             "retired_uops": 7250,
             "retired_instructions": 7250},
        )),
    },
}


def _op(name, session):
    if name == "spectre":
        return list(session.leak().leaked)
    return session.send_bits(BITS)


def _measured(name, session):
    core = session.core
    before = [core.counters(t).snapshot() for t in (0, 1)]
    result = _op(name, session)
    deltas = tuple(
        {k: v for k, v in core.counters(t).delta(b).as_dict().items() if v}
        for t, b in zip((0, 1), before)
    )
    return result, deltas


@pytest.mark.parametrize("name", list(DRIVERS))
def test_attack_counters_cold_then_reset(name):
    session = DRIVERS[name]()
    assert _measured(name, session) == GOLDEN[name]["cold"]
    session.reset()
    assert _measured(name, session) == GOLDEN[name]["warm"]


def test_fig3_fast_size_job():
    (job,) = [
        j for j in characterize_sweeps(fast=True)["fig3a_size"].jobs()
        if j.params["n"] == 256
    ]
    assert job.run() == 29.5


def test_uop_cache_contention_cell():
    (job,) = [
        j for j in contention_jobs(fast=True)
        if (j.params["resource"], j.params["mode"], j.params["variant"])
        == ("uop_cache", "smt", "conflict")
    ]
    assert job.run() == {
        "baseline_cycles": 518.0,
        "contended_cycles": 3568.0,
        "mode": "smt",
        "resource": "uop_cache",
        "samples": [[518, 3568], [518, 3568]],
        "slowdown": 5.888030888030888,
        "trials": 2,
        "variant": "conflict",
    }



#: The data-path workloads: ``run_workload``'s cycles and non-zero
#: counter deltas, then on a core that ran ``main`` twice, one word of
#: the data image ``(label, offset, value)`` -- pointer_chase's
#: straddles a page boundary -- and the result register.
GOLDEN_WORKLOADS = {
    "pointer_chase": (
        1802,
        {"uops_dsb": 394,
         "dsb_hits": 132,
         "fetch_blocks": 132,
         "branches": 130,
         "branch_mispredicts": 1,
         "squashes": 1,
         "squashed_uops": 6,
         "retired_uops": 388,
         "retired_instructions": 388,
         "l1d_refs": 128,
         "l1d_misses": 128},
        ("chain", 4092, 0x80200000000000),
        ("r3", 0x800000),
    ),
    "hash_loop": (
        1484,
        {"uops_dsb": 3237,
         "dsb_hits": 545,
         "fetch_blocks": 545,
         "branches": 538,
         "branch_mispredicts": 3,
         "squashes": 3,
         "squashed_uops": 149,
         "retired_uops": 3088,
         "retired_instructions": 3088,
         "l1d_refs": 514},
        ("buf", 0, 0x39501A7FEE0EB782),
        ("r3", 0x5B6A731903B171F6),
    ),
    "matvec": (
        623,
        {"uops_dsb": 2149,
         "dsb_hits": 282,
         "fetch_blocks": 282,
         "branches": 268,
         "branch_mispredicts": 5,
         "squashes": 5,
         "squashed_uops": 67,
         "retired_uops": 2082,
         "retired_instructions": 2082,
         "l1d_refs": 520},
        ("vec", 0, 0x305FF35E61E7EEE7),
        ("r4", 0xE34E436C674E44C6),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_WORKLOADS))
def test_workload_counters_and_result(name):
    cycles, counters, (label, offset, word), (reg, value) = (
        GOLDEN_WORKLOADS[name])
    result = run_workload(name)
    assert result.cycles == cycles
    assert {k: v for k, v in result.counters.as_dict().items() if v} == (
        counters)
    program = build_workload(name)
    core = Core(CPUConfig.skylake(), program)
    core.call("main")
    core.call("main")
    assert core.read_mem(program.labels[label] + offset) == word
    assert core.read_reg(reg) == value

#: Micro-op cache paths the default drivers never take: the LRU
#: ablation policy, Zen's competitive SMT sharing (under its default
#: hotness policy, as the ``smt`` driver runs it, and under LRU), the
#: Section VIII privilege partition, and noise evictions through
#: ``evict_random``.
PATHS = {
    "smt_zen": lambda: SMTChannel(config=CPUConfig.zen()),
    "covert_lru": lambda: CovertChannel(
        config=CPUConfig.skylake(uop_cache_policy="lru")),
    "smt_zen_lru": lambda: SMTChannel(
        config=CPUConfig.zen(uop_cache_policy="lru")),
    "crossdomain_partitioned": lambda: CrossDomainChannel(
        config=CPUConfig.skylake(privilege_partition_uop_cache=True)),
    "covert_noise": lambda: CovertChannel(
        noise=NoiseModel(evict_prob=0.02, seed=3)),
}

#: Per path: received bits, non-zero counter deltas of both threads,
#: the micro-op cache's stats, and a digest of what it holds afterwards
#: (per set, in way order: thread, entry, seq and hotness of each line).
GOLDEN_PATHS = {
    # the ``smt`` driver's own run: its counters are the row above
    "smt_zen": (
        *GOLDEN["smt"]["cold"],
        {"lookups": 36388,
         "hits": 28841,
         "misses": 7547,
         "fills": 6577,
         "lines_filled": 6118,
         "fill_rejects": 459,
         "evictions": 5982,
         "streamed_uops": 114751,
         "flushes": 0},
        "cab4c40f16329800",
    ),
    "covert_lru": (
        [1, 0, 1, 0, 0, 1, 0, 1],
        ({"uops_dsb": 43955,
          "uops_mite": 11149,
          "dsb_miss_penalty_cycles": 71499,
          "dsb_switches": 110,
          "dsb_hits": 11210,
          "dsb_misses": 2790,
          "icache_misses": 150,
          "itlb_misses": 9,
          "fetch_blocks": 14000,
          "macro_ops_decoded": 11147,
          "branches": 13720,
          "retired_uops": 55104,
          "retired_instructions": 54880},
         {}),
        {"lookups": 14000,
         "hits": 11210,
         "misses": 2790,
         "fills": 2790,
         "lines_filled": 2791,
         "fill_rejects": 0,
         "evictions": 2672,
         "streamed_uops": 43955,
         "flushes": 0},
        "f061ec948f699ba1",
    ),
    "smt_zen_lru": (
        [1, 0, 1, 0, 0, 1, 0, 1],
        ({"uops_dsb": 26480,
          "uops_mite": 21140,
          "dsb_miss_penalty_cycles": 177814,
          "dsb_switches": 119,
          "dsb_hits": 6570,
          "dsb_misses": 5285,
          "icache_misses": 98,
          "itlb_misses": 3,
          "fetch_blocks": 11855,
          "macro_ops_decoded": 21137,
          "branches": 11835,
          "branch_mispredicts": 20,
          "squashes": 20,
          "squashed_uops": 280,
          "retired_uops": 47340,
          "retired_instructions": 47100},
         {"uops_dsb": 71801,
          "uops_mite": 24079,
          "dsb_miss_penalty_cycles": 181849,
          "dsb_switches": 111,
          "dsb_hits": 18241,
          "dsb_misses": 6289,
          "icache_misses": 99,
          "itlb_misses": 3,
          "fetch_blocks": 24530,
          "macro_ops_decoded": 24079,
          "branches": 24510,
          "branch_mispredicts": 20,
          "squashes": 20,
          "squashed_uops": 80,
          "retired_uops": 95800,
          "retired_instructions": 95800}),
        {"lookups": 36385,
         "hits": 24811,
         "misses": 11574,
         "fills": 10604,
         "lines_filled": 10604,
         "fill_rejects": 0,
         "evictions": 10468,
         "streamed_uops": 98631,
         "flushes": 0},
        "8f94744d28ef2cbe",
    ),
    "crossdomain_partitioned": (
        [1, 1, 0, 0, 0, 0, 0, 1],
        ({"uops_dsb": 15682,
          "uops_mite": 40731,
          "uops_msrom": 1344,
          "dsb_miss_penalty_cycles": 185134,
          "dsb_switches": 2846,
          "dsb_hits": 4140,
          "dsb_misses": 10550,
          "icache_misses": 152,
          "itlb_misses": 11,
          "fetch_blocks": 14690,
          "macro_ops_decoded": 41065,
          "branches": 14159,
          "branch_mispredicts": 43,
          "squashes": 43,
          "squashed_uops": 553,
          "retired_uops": 57204,
          "retired_instructions": 55972,
          "syscalls": 168,
          "llc_refs": 1,
          "llc_misses": 1,
          "l1d_refs": 168,
          "l1d_misses": 1},
         {}),
        {"lookups": 14690,
         "hits": 4140,
         "misses": 10550,
         "fills": 10550,
         "lines_filled": 8038,
         "fill_rejects": 2513,
         "evictions": 7631,
         "streamed_uops": 15764,
         "flushes": 0},
        "bd2450249771dde7",
    ),
    "covert_noise": (
        [1, 0, 1, 0, 0, 1, 0, 1],
        ({"uops_dsb": 38889,
          "uops_mite": 16215,
          "dsb_miss_penalty_cycles": 91540,
          "dsb_switches": 2359,
          "dsb_hits": 9940,
          "dsb_misses": 4060,
          "icache_misses": 150,
          "itlb_misses": 9,
          "fetch_blocks": 14000,
          "macro_ops_decoded": 16208,
          "branches": 13720,
          "retired_uops": 55104,
          "retired_instructions": 54880},
         {}),
        {"lookups": 14000,
         "hits": 9940,
         "misses": 4060,
         "fills": 4060,
         "lines_filled": 3026,
         "fill_rejects": 1038,
         "evictions": 2917,
         "streamed_uops": 38889,
         "flushes": 0},
        "f7522d9c9ab48808",
    ),
}


def _residency_digest(uop_cache):
    resident = [
        [(l.thread, l.entry, l.seq, l.hotness)
         for l in uop_cache.lines_in_set(i)]
        for i in range(uop_cache.sets)
    ]
    return hashlib.sha256(repr(resident).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(PATHS))
def test_non_default_uop_cache_paths(name):
    session = PATHS[name]()
    bits, deltas = _measured("covert", session)
    uop_cache = session.core.uop_cache
    assert (
        bits, deltas, dict(vars(uop_cache.stats)), _residency_digest(uop_cache)
    ) == GOLDEN_PATHS[name]


#: Drivers whose whole event stream is pinned, with the operation run
#: under an all-kinds subscriber: same-address-space covert send,
#: Spectre leak, SMT send and store-buffer SMT send.
EVENT_DRIVERS = (
    ("covert", CovertChannel, lambda s: s.send_bits(BITS)),
    ("spectre", DRIVERS["spectre"], lambda s: s.leak()),
    ("smt", SMTChannel, lambda s: s.send_bits(BITS)),
    ("store_buffer", StoreBufferChannel, lambda s: s.send_bits(BITS)),
)


def test_observer_event_stream():
    """Every event the hook sites emit, in order, with its payload.

    The counters above can hold while hook sites move (a prediction
    reported after its resolution, a store commit at another cycle), so
    the stream gets its own pin: the event count and a SHA-256 over
    ``[kind, cycle, thread, sorted payload items]`` of each event.
    """
    digest = hashlib.sha256()
    count = 0
    for _, make, op in EVENT_DRIVERS:
        session = make()
        events = []
        session.core.observe().subscribe(events.append)
        op(session)
        for e in events:
            record = [e.kind, e.cycle, e.thread,
                      sorted((k, repr(v)) for k, v in e.data.items())]
            digest.update(repr(record).encode())
        count += len(events)
    assert count == 240772
    assert digest.hexdigest() == (
        "ba64567178397afdc8c6a9389ff6e5bfcae68946176cd4f687a915a6d7260994"
    )
