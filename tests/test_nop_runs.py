"""NOP runs: golden cycles and counters, and the dispatch recurrence.

The paper's probe chains (Sections IV-V) are regions of a few NOPs and
a jump, so most micro-ops the simulator dispatches are register-free
NOPs.  These tests pin what a run of them costs:

- golden rows: cycles and counters of programs with a run of 1 to
  ``2 * dispatch_width + 1`` NOPs, on Skylake and Zen, in three
  situations: the run's block arrives after an idle gap (fetch is
  ahead of dispatch), the run starts mid dispatch group (older
  micro-ops of its block took some of the cycle's slots), and the run
  waits behind an LFENCE's execution floor -- also with a second LFENCE
  right after the run, which waits for the run's completion;
- a property: after one block of NOPs of any latency, from any
  scoreboard state, the thread's dispatch slot, in-flight completion,
  retire time and sequence number are those of the per-micro-op
  recurrence written out below.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import MacroOp, MicroOp, UopKind
from repro.observe.events import FETCH_BLOCK

CONFIGS = {"skylake": CPUConfig.skylake, "zen": CPUConfig.zen}
SITUATIONS = ("idle_gap", "mid_group", "lfence_floor", "lfence_pair")

#: Loop trip count of the mid-group and LFENCE programs.
ITERATIONS = 12

#: Counters the golden rows pin, in row order.
FIELDS = (
    "uops_dsb", "uops_mite", "dsb_miss_penalty_cycles", "dsb_hits",
    "dsb_misses", "fetch_blocks", "macro_ops_decoded", "branches",
    "branch_mispredicts", "squashes", "retired_uops", "retired_instructions",
)


def _program(situation, k):
    """A program whose hot region holds a run of ``k`` one-byte NOPs."""
    asm = Assembler()
    nops = [enc.nop(1) for _ in range(k)]
    if situation == "idle_gap":
        asm.label("main")
        asm.emit(*nops, enc.halt())
        return asm.assemble(entry="main")
    asm.label("main")
    asm.emit(enc.mov_imm("r1", ITERATIONS))
    asm.align(32)
    asm.label("top")
    if situation == "mid_group":
        asm.emit(*(enc.alu_imm("add", f"r{n}", 1) for n in (2, 3, 4)))
    else:  # "lfence_floor" / "lfence_pair"
        asm.emit(enc.lfence())
    asm.emit(*nops)
    if situation == "lfence_pair":
        asm.emit(enc.lfence())
    asm.emit(enc.dec("r1"), enc.jcc("nz", "top"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def _measure(config, situation, k):
    """Cycles of two calls of ``main`` on one core (cold, then warm),
    and the counters after both."""
    core = Core(config, _program(situation, k))
    core.call("main")
    cold = core.cycles()
    core.call("main")
    counters = core.counters()
    return cold, core.cycles(), tuple(getattr(counters, f) for f in FIELDS)


#: (config, situation, run length) -> (cycles of the first call, of the
#: second, FIELDS after both).
GOLDEN = {
    ("skylake", "idle_gap", 1): (229, 2, (2, 2, 228, 1, 1, 2, 2, 0, 0, 0, 4, 4)),
    ("skylake", "idle_gap", 2): (229, 2, (3, 3, 228, 1, 1, 2, 3, 0, 0, 0, 6, 6)),
    ("skylake", "idle_gap", 3): (229, 2, (4, 4, 228, 1, 1, 2, 4, 0, 0, 0, 8, 8)),
    ("skylake", "idle_gap", 4): (230, 3, (5, 5, 228, 1, 1, 2, 5, 0, 0, 0, 10, 10)),
    ("skylake", "idle_gap", 5): (231, 3, (6, 6, 229, 1, 1, 2, 6, 0, 0, 0, 12, 12)),
    ("skylake", "idle_gap", 6): (231, 4, (7, 7, 229, 1, 1, 2, 7, 0, 0, 0, 14, 14)),
    ("skylake", "idle_gap", 7): (231, 4, (8, 8, 229, 1, 1, 2, 8, 0, 0, 0, 16, 16)),
    ("skylake", "idle_gap", 8): (232, 5, (9, 9, 229, 1, 1, 2, 9, 0, 0, 0, 18, 18)),
    ("skylake", "idle_gap", 9): (232, 5, (10, 10, 229, 1, 1, 2, 10, 0, 0, 0, 20, 20)),
    ("skylake", "mid_group", 1): (272, 39, (238, 10, 235, 41, 3, 44, 10, 40, 2, 2, 152, 152)),
    ("skylake", "mid_group", 2): (279, 46, (193, 11, 236, 29, 3, 32, 11, 28, 2, 2, 176, 176)),
    ("skylake", "mid_group", 3): (279, 46, (220, 12, 236, 29, 3, 32, 12, 28, 2, 2, 200, 200)),
    ("skylake", "mid_group", 4): (282, 49, (265, 13, 236, 31, 3, 34, 13, 30, 2, 2, 224, 224)),
    ("skylake", "mid_group", 5): (285, 52, (334, 14, 236, 35, 3, 38, 14, 34, 2, 2, 248, 248)),
    ("skylake", "mid_group", 6): (287, 55, (389, 15, 236, 37, 3, 40, 15, 36, 2, 2, 272, 272)),
    ("skylake", "mid_group", 7): (291, 58, (424, 16, 237, 37, 3, 40, 16, 36, 2, 2, 296, 296)),
    ("skylake", "mid_group", 8): (295, 62, (381, 17, 237, 31, 3, 34, 17, 30, 2, 2, 320, 320)),
    ("skylake", "mid_group", 9): (298, 65, (438, 18, 237, 33, 3, 36, 18, 32, 2, 2, 344, 344)),
    ("skylake", "lfence_floor", 1): (339, 113, (292, 8, 234, 74, 3, 77, 8, 73, 2, 2, 104, 104)),
    ("skylake", "lfence_floor", 2): (339, 113, (364, 9, 234, 74, 3, 77, 9, 73, 2, 2, 128, 128)),
    ("skylake", "lfence_floor", 3): (336, 107, (418, 10, 234, 71, 3, 74, 10, 70, 2, 2, 152, 152)),
    ("skylake", "lfence_floor", 4): (289, 60, (263, 11, 235, 39, 3, 42, 11, 38, 2, 2, 176, 176)),
    ("skylake", "lfence_floor", 5): (290, 60, (300, 12, 236, 39, 3, 42, 12, 38, 2, 2, 200, 200)),
    ("skylake", "lfence_floor", 6): (290, 60, (337, 13, 236, 39, 3, 42, 13, 38, 2, 2, 224, 224)),
    ("skylake", "lfence_floor", 7): (291, 64, (384, 14, 236, 40, 3, 43, 14, 39, 2, 2, 248, 248)),
    ("skylake", "lfence_floor", 8): (291, 64, (422, 15, 236, 40, 3, 43, 15, 39, 2, 2, 272, 272)),
    ("skylake", "lfence_floor", 9): (291, 58, (424, 16, 237, 37, 3, 40, 16, 36, 2, 2, 296, 296)),
    ("zen", "idle_gap", 1): (229, 2, (2, 2, 228, 1, 1, 2, 2, 0, 0, 0, 4, 4)),
    ("zen", "idle_gap", 2): (229, 2, (3, 3, 228, 1, 1, 2, 3, 0, 0, 0, 6, 6)),
    ("zen", "idle_gap", 3): (229, 2, (4, 4, 228, 1, 1, 2, 4, 0, 0, 0, 8, 8)),
    ("zen", "idle_gap", 4): (231, 3, (5, 5, 229, 1, 1, 2, 5, 0, 0, 0, 10, 10)),
    ("zen", "idle_gap", 5): (231, 3, (6, 6, 229, 1, 1, 2, 6, 0, 0, 0, 12, 12)),
    ("zen", "idle_gap", 6): (231, 3, (7, 7, 229, 1, 1, 2, 7, 0, 0, 0, 14, 14)),
    ("zen", "idle_gap", 7): (231, 3, (8, 8, 229, 1, 1, 2, 8, 0, 0, 0, 16, 16)),
    ("zen", "idle_gap", 8): (233, 5, (9, 9, 230, 1, 1, 2, 9, 0, 0, 0, 18, 18)),
    ("zen", "idle_gap", 9): (233, 5, (10, 10, 230, 1, 1, 2, 10, 0, 0, 0, 20, 20)),
    ("zen", "mid_group", 1): (273, 39, (238, 10, 236, 41, 3, 44, 10, 40, 2, 2, 152, 152)),
    ("zen", "mid_group", 2): (275, 42, (305, 11, 236, 45, 3, 48, 11, 44, 2, 2, 176, 176)),
    ("zen", "mid_group", 3): (278, 45, (332, 12, 236, 43, 3, 46, 12, 42, 2, 2, 200, 200)),
    ("zen", "mid_group", 4): (282, 49, (265, 13, 236, 31, 3, 34, 13, 30, 2, 2, 224, 224)),
    ("zen", "mid_group", 5): (286, 52, (334, 14, 237, 35, 3, 38, 14, 34, 2, 2, 248, 248)),
    ("zen", "mid_group", 6): (288, 55, (389, 15, 237, 37, 3, 40, 15, 36, 2, 2, 272, 272)),
    ("zen", "mid_group", 7): (291, 58, (424, 16, 237, 37, 3, 40, 16, 36, 2, 2, 296, 296)),
    ("zen", "mid_group", 8): (294, 63, (459, 17, 237, 37, 3, 40, 17, 36, 2, 2, 320, 320)),
    ("zen", "mid_group", 9): (298, 64, (466, 18, 238, 35, 3, 38, 18, 34, 2, 2, 344, 344)),
    ("zen", "lfence_floor", 1): (339, 113, (292, 8, 234, 74, 3, 77, 8, 73, 2, 2, 104, 104)),
    ("zen", "lfence_floor", 2): (339, 113, (364, 9, 234, 74, 3, 77, 9, 73, 2, 2, 128, 128)),
    ("zen", "lfence_floor", 3): (337, 107, (418, 10, 235, 71, 3, 74, 10, 70, 2, 2, 152, 152)),
    ("zen", "lfence_floor", 4): (322, 92, (417, 11, 235, 61, 3, 64, 11, 60, 2, 2, 176, 176)),
    ("zen", "lfence_floor", 5): (314, 83, (428, 12, 236, 55, 3, 58, 12, 54, 2, 2, 200, 200)),
    ("zen", "lfence_floor", 6): (290, 60, (337, 13, 236, 39, 3, 42, 13, 38, 2, 2, 224, 224)),
    ("zen", "lfence_floor", 7): (292, 64, (384, 14, 237, 40, 3, 43, 14, 39, 2, 2, 248, 248)),
    ("zen", "lfence_floor", 8): (292, 64, (422, 15, 237, 40, 3, 43, 15, 39, 2, 2, 272, 272)),
    ("zen", "lfence_floor", 9): (291, 58, (424, 16, 237, 37, 3, 40, 16, 36, 2, 2, 296, 296)),
    ("skylake", "lfence_pair", 1): (516, 287, (569, 9, 234, 115, 3, 118, 9, 114, 2, 2, 128, 128)),
    ("skylake", "lfence_pair", 2): (482, 252, (598, 10, 235, 101, 3, 104, 10, 100, 2, 2, 152, 152)),
    ("skylake", "lfence_pair", 3): (388, 158, (431, 11, 236, 63, 3, 66, 11, 62, 2, 2, 176, 176)),
    ("skylake", "lfence_pair", 4): (388, 158, (492, 12, 236, 63, 3, 66, 12, 62, 2, 2, 200, 200)),
    ("skylake", "lfence_pair", 5): (388, 158, (553, 13, 236, 63, 3, 66, 13, 62, 2, 2, 224, 224)),
    ("skylake", "lfence_pair", 6): (388, 158, (614, 14, 236, 63, 3, 66, 14, 62, 2, 2, 248, 248)),
    ("skylake", "lfence_pair", 7): (373, 143, (609, 15, 236, 57, 3, 60, 15, 56, 2, 2, 272, 272)),
    ("skylake", "lfence_pair", 8): (365, 134, (616, 16, 237, 53, 3, 56, 16, 52, 2, 2, 296, 296)),
    ("skylake", "lfence_pair", 9): (340, 115, (550, 17, 237, 44, 3, 47, 17, 43, 2, 2, 320, 320)),
    ("zen", "lfence_pair", 1): (516, 287, (569, 9, 234, 115, 3, 118, 9, 114, 2, 2, 128, 128)),
    ("zen", "lfence_pair", 2): (483, 252, (598, 10, 236, 101, 3, 104, 10, 100, 2, 2, 152, 152)),
    ("zen", "lfence_pair", 3): (453, 222, (613, 11, 236, 89, 3, 92, 11, 88, 2, 2, 176, 176)),
    ("zen", "lfence_pair", 4): (428, 197, (620, 12, 236, 79, 3, 82, 12, 78, 2, 2, 200, 200)),
    ("zen", "lfence_pair", 5): (388, 158, (553, 13, 236, 63, 3, 66, 13, 62, 2, 2, 224, 224)),
    ("zen", "lfence_pair", 6): (389, 158, (614, 14, 237, 63, 3, 66, 14, 62, 2, 2, 248, 248)),
    ("zen", "lfence_pair", 7): (374, 143, (609, 15, 237, 57, 3, 60, 15, 56, 2, 2, 272, 272)),
    ("zen", "lfence_pair", 8): (365, 134, (616, 16, 237, 53, 3, 56, 16, 52, 2, 2, 296, 296)),
    ("zen", "lfence_pair", 9): (355, 124, (615, 17, 237, 49, 3, 52, 17, 48, 2, 2, 320, 320)),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_golden_nop_run(key):
    config, situation, k = key
    assert _measure(CONFIGS[config](), situation, k) == GOLDEN[key]


def test_golden_rows_cover_every_run_length():
    for name, make in CONFIGS.items():
        width = make().dispatch_width
        for situation in SITUATIONS:
            lengths = {k for c, s, k in GOLDEN if (c, s) == (name, situation)}
            assert lengths == set(range(1, 2 * width + 2))


def _reference(state, fetch, latencies, width):
    """The per-micro-op dispatch recurrence over register-free
    micro-ops of the given latencies: each takes the first free
    dispatch slot at or after ``fetch`` and completes ``latency``
    cycles after it issues, no earlier than the fence floor."""
    dispatch, slots, floor, inflight, last_retire = state
    for latency in latencies:
        if fetch > dispatch:
            dispatch = fetch
            slots = 1
        else:
            slots += 1
            if slots > width:
                dispatch += 1
                slots = 1
        done = max(dispatch, floor) + latency
        inflight = max(inflight, done)
        last_retire = max(last_retire, done)
    return dispatch, slots, floor, inflight, last_retire


@given(
    config=st.sampled_from(sorted(CONFIGS)),
    k=st.integers(min_value=1, max_value=9),
    latency=st.integers(min_value=1, max_value=12),
    dispatch=st.integers(min_value=0, max_value=600),
    slots=st.integers(min_value=0, max_value=4),
    floor=st.integers(min_value=0, max_value=600),
    inflight=st.integers(min_value=0, max_value=600),
    last_retire=st.integers(min_value=0, max_value=600),
)
@settings(deadline=None)
def test_run_dispatch_matches_the_per_uop_recurrence(
    config, k, latency, dispatch, slots, floor, inflight, last_retire
):
    asm = Assembler()
    asm.label("main")
    asm.emit(*(
        MacroOp("nop", 1, (MicroOp(UopKind.NOP, latency=latency),))
        for _ in range(k)
    ))
    asm.emit(enc.jmp("out", short=True))
    asm.align(64)
    asm.label("out")
    asm.emit(enc.halt())
    core = Core(CONFIGS[config](), asm.assemble(entry="main"))
    width = core.config.dispatch_width
    fetched = []
    core.observe().subscribe(fetched.append, kinds=(FETCH_BLOCK,))
    thread = core.thread(0)
    thread.fetch_rip = core.addr_of("main")
    thread.fetch_priv = thread.privilege
    thread.halted = False
    state = (dispatch, min(slots, width), floor, inflight, last_retire)
    (thread.dispatch_cycle, thread.dispatch_slots_used, thread.exec_floor,
     thread.oldest_inflight_done, thread.last_retire) = state
    core._step(thread, core.observer, None)
    (event,) = fetched
    # The block's k NOPs, then its jump (latency 1, no registers).
    want = _reference(state, event.cycle, [latency] * k + [1], width)
    assert (thread.dispatch_cycle, thread.dispatch_slots_used, thread.exec_floor,
            thread.oldest_inflight_done, thread.last_retire) == want
    assert core._spec[0].seq == k + 1
    counters = core.counters()
    assert (counters.retired_uops, counters.retired_instructions) == (k + 1, k + 1)
    assert counters.branch_mispredicts == 0
    assert thread.fetch_rip == core.addr_of("out")
