"""Counter-conservation and region-walk oracle over random programs.

Runs the generators of ``tests/test_reference_model.py`` on Skylake and
Zen, with macro fusion on and off, and checks properties no golden
literal pins:

- every region walk a front end hands out equals the walk derived from
  scratch for the same program and config: plan, decision points,
  prefix micro-op counts, the MITE cycles of every prefix, and a line
  packing built from this program's own micro-ops;
- counter conservation: ``dsb_hits + dsb_misses`` equals the fetch
  blocks that did not fault, and the micro-ops delivered by fetch
  blocks equal ``uops_dsb + uops_mite + uops_msrom``;
- ``call`` / ``reset`` / ``call`` repeats every counter and cycle;
- with the micro-op cache disabled nothing hits, and the architectural
  result is unchanged;
- moving the code by a multiple of every address-indexed table's span
  leaves every counter and cycle unchanged.

Each program also runs as a *twin*: a copy with fresh macro- and
micro-op objects in which every ALU-immediate instruction carries one
length-changing prefix (an imm16 operand), so two programs whose walks
differ in one field the cost model reads meet in the same process.
"""

import dataclasses
import sys
import threading
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.frontend import pipeline
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import UopKind
from repro.isa.program import Program
from repro.observe.events import FETCH_BLOCK
from tests.test_reference_model import GPRS, looping_program, random_program

CONFIGS = tuple(
    make(macro_fusion=fusion)
    for make in (CPUConfig.skylake, CPUConfig.zen)
    for fusion in (True, False)
)

#: Code relocation distance: a multiple of the micro-op cache span
#: (sets x region bytes) and of every other address-indexed table's
#: span (caches, iTLB pages, predictor tables), all powers of two.
SHIFT = 1 << 24

PROGRAMS = st.one_of(random_program(), looping_program())


def _clone(program, shift=0, lcp=False):
    """Copy ``program`` with fresh macro- and micro-op objects, its code
    moved by ``shift`` bytes (data stays put); with ``lcp`` every
    ALU-immediate instruction gains one length-changing prefix."""

    def moved(addr):
        return None if addr is None else addr + shift

    instructions = {}
    for addr, macro in program.instructions.items():
        uops = tuple(
            dataclasses.replace(u, target=moved(u.target)) for u in macro.uops
        )
        bump = lcp and uops[0].kind is UopKind.ALU_IMM
        copy = dataclasses.replace(
            macro,
            uops=uops,
            target=moved(macro.target),
            lcp_count=macro.lcp_count + bump,
        )
        copy.bind(addr + shift)
        instructions[addr + shift] = copy
    labels = {
        name: addr if addr in program.data else addr + shift
        for name, addr in program.labels.items()
    }
    return Program(
        instructions=instructions,
        labels=labels,
        data=dict(program.data),
        entry=program.entry + shift,
    )


def _scratch_walk(program, config, rip):
    """The walk at ``rip`` derived from nothing: a fresh front end over
    an empty shared shape memo."""
    with mock.patch.object(pipeline, "_SHAPES", {}):
        return Core(config, program).frontend._walk_region(rip)


def _assert_same_walk(walk, ref, config):
    """``walk`` equals ``ref``, derived from scratch for the same
    program: same macro-op objects, plan, decisions, prefix counts and
    cycles, and line packing over the same micro-op objects."""
    assert len(walk.macros) == len(ref.macros)
    assert all(a is b for a, b in zip(walk.macros, ref.macros))
    for step, want in zip(walk.plan, ref.plan):
        assert step[0] is want[0] and step[1] is want[1]
        assert step[2:] == want[2:]
    assert len(walk.plan) == len(ref.plan)
    assert walk.decisions == ref.decisions
    assert walk.src_uops == ref.src_uops
    assert walk.msrom_uops == ref.msrom_uops
    for k in range(len(walk.macros) + 1):
        assert walk.prefix_cycles(k, config) == ref.prefix_cycles(k, config), k
    if ref.specs is None:
        assert walk.specs is None
        return
    assert walk.specs is not None and len(walk.specs) == len(ref.specs)
    for line, want in zip(walk.specs, ref.specs):
        assert (line.slots, line.msrom) == (want.slots, want.msrom)
        assert len(line.uops) == len(want.uops)
        assert all(a is b for a, b in zip(line.uops, want.uops))


def _run(program, config):
    """Run ``main`` on a fresh core; returns the core and the FETCH_BLOCK
    events of the run."""
    core = Core(config, program)
    blocks = []
    core.observe().subscribe(blocks.append, kinds=(FETCH_BLOCK,))
    core.call("main")
    return core, blocks


def _state(core, program):
    """Every counter, the cycle count and the architectural result."""
    buf = program.labels["buf"]
    return (
        dataclasses.astuple(core.counters()),
        core.cycles(),
        tuple(core.read_reg(r) for r in GPRS + ["flags", "rsp"]),
        tuple(core.read_mem(buf + off) for off in range(0, 64, 8)),
    )


@given(PROGRAMS)
@settings(deadline=None)
def test_every_walk_equals_a_walk_from_scratch(program):
    twin = _clone(program, lcp=True)
    for config in CONFIGS:
        for prog in (program, twin):
            core, _ = _run(prog, config)
            walks = core.frontend._walks
            assert walks
            for rip, walk in walks.items():
                _assert_same_walk(walk, _scratch_walk(prog, config, rip), config)


@given(PROGRAMS)
@settings(deadline=None)
def test_counters_conserve_blocks_and_uops(program):
    for config in CONFIGS:
        core, blocks = _run(program, config)
        c = core.counters()
        assert c.fetch_blocks == len(blocks)
        delivered = [e for e in blocks if e.get("source") != "none"]
        assert c.dsb_hits + c.dsb_misses == len(delivered)
        assert c.dsb_hits == sum(e.get("source") == "dsb" for e in blocks)
        assert sum(e.get("n_uops") for e in blocks) == (
            c.uops_dsb + c.uops_mite + c.uops_msrom
        )


@given(PROGRAMS)
@settings(deadline=None)
def test_call_reset_call_repeats_every_counter(program):
    for config in CONFIGS:
        core = Core(config, program)
        core.call("main")
        first = _state(core, program)
        core.reset()
        core.call("main")
        assert _state(core, program) == first


@given(PROGRAMS)
@settings(deadline=None)
def test_disabled_uop_cache_never_hits_and_keeps_the_result(program):
    for config in CONFIGS:
        on = Core(config, program)
        off = Core(config.with_options(uop_cache_enabled=False), program)
        on.call("main")
        off.call("main")
        assert off.counters().dsb_hits == 0
        assert off.counters().uops_dsb == 0
        assert _state(off, program)[2:] == _state(on, program)[2:]


@given(PROGRAMS)
@settings(deadline=None)
def test_relocated_code_keeps_every_counter_and_cycle(program):
    moved = _clone(program, shift=SHIFT)
    for config in CONFIGS:
        here = Core(config, program)
        there = Core(config, moved)
        hierarchy = here.hierarchy
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.llc):
            assert SHIFT % (cache.sets * cache.line_size) == 0
        assert SHIFT % (config.uop_cache_sets * config.region_bytes) == 0
        here.call("main")
        there.call("main")
        assert _state(there, moved) == _state(here, program)


def test_shape_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(pipeline, "SHAPE_MEMO_MAX", 2)
    monkeypatch.setattr(pipeline, "_SHAPES", {})
    config = CPUConfig.skylake()
    programs = []
    for length in (1, 2, 3):  # three distinct one-walk shapes
        asm = Assembler()
        asm.label("main")
        asm.emit(enc.nop(length), enc.halt())
        programs.append(asm.assemble(entry="main"))
    first = pipeline.walk_region(programs[0], programs[0].entry, config)
    (first_key,) = pipeline._SHAPES
    for program in programs[1:]:
        pipeline.walk_region(program, program.entry, config)
        assert len(pipeline._SHAPES) <= 2
    assert first_key not in pipeline._SHAPES  # the oldest went first
    again = pipeline.walk_region(programs[0], programs[0].entry, config)
    assert len(pipeline._SHAPES) == 2
    _assert_same_walk(again, _scratch_walk(programs[0], config, programs[0].entry),
                      config)
    _assert_same_walk(first, again, config)


def test_shape_memo_is_shared_safely_by_threads(monkeypatch):
    monkeypatch.setattr(pipeline, "SHAPE_MEMO_MAX", 3)
    monkeypatch.setattr(pipeline, "_SHAPES", {})
    config = CPUConfig.skylake()
    programs = []
    for length in range(1, 9):  # more shapes than the bound holds
        asm = Assembler()
        asm.label("main")
        asm.emit(enc.nop(length), enc.cmp_imm("r1", 0), enc.jcc("z", "main"),
                 enc.halt())
        programs.append(asm.assemble(entry="main"))
    walks, errors = [], []

    def worker(offset):
        try:
            for i in range(200):
                program = programs[(offset + i) % len(programs)]
                for rip in program.instructions:
                    walk = pipeline.walk_region(program, rip, config)
                    for k in range(len(walk.macros) + 1):
                        walk.prefix_cycles(k, config)
                    walks.append((program, rip, walk))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(pipeline._SHAPES) <= 3
    for program, rip, walk in walks[:: len(walks) // 200]:
        _assert_same_walk(walk, _scratch_walk(program, config, rip), config)
