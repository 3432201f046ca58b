"""Oracle tests for the front end's precompiled delivery tables.

A region walk memoizes, per entry, a delivery plan (per macro-op facts),
its decision points, the micro-op counts and MITE cost of every
delivered prefix, and prepares its
micro-ops' scoreboard tables.  Each table must equal the helper it replaces,
which stays the reference: ``predecode_cost`` + ``decode_cost``,
``effective_msrom``, and ``MicroOp.reads()`` / ``writes()``.  The
tables never enter a job key: ``tests/test_harness.py`` pins a program
fingerprint taken after the simulator has run it.
"""

import dataclasses

import pytest

from repro.contention.channels import ITLBChannel, StoreBufferChannel
from repro.core.covert import CovertChannel
from repro.core.crossdomain import CrossDomainChannel
from repro.core.smtchannel import SMTChannel
from repro.core.transient import UopCacheSpectreV1
from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.frontend.decode import decode_cost, effective_msrom, predecode_cost
from repro.frontend.pipeline import BLOCK_CPUID, BLOCK_HALT
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import BranchKind, MacroOp, MicroOp, UopKind

DRIVERS = {
    "covert": CovertChannel,
    "crossdomain": CrossDomainChannel,
    "smt": SMTChannel,
    "spectre": lambda: UopCacheSpectreV1(secret=b"\xa5"),
    "itlb": ITLBChannel,
    "store_buffer": StoreBufferChannel,
}

CONFIGS = {
    f"{name}-fusion-{'on' if fusion else 'off'}": make(macro_fusion=fusion)
    for name, make in (("skylake", CPUConfig.skylake), ("zen", CPUConfig.zen))
    for fusion in (True, False)
}


def _reference_cycles(macros, config):
    return (
        predecode_cost(
            sum(m.length for m in macros), sum(m.lcp_count for m in macros), config
        )
        + decode_cost(macros, config).cycles
    )


def _reference_stop(macro):
    if macro.branch_kind is not BranchKind.NONE:
        return None
    kinds = [u.kind for u in macro.uops]
    if UopKind.HALT in kinds:
        return BLOCK_HALT
    if UopKind.CPUID in kinds:
        return BLOCK_CPUID
    return None


def _check_walk(walk, config):
    assert len(walk.plan) == len(walk.macros)
    for step, macro in zip(walk.plan, walk.macros):
        for uop in macro.uops:
            assert uop.read_regs == uop.reads()
            assert uop.write_regs == uop.writes()
        assert step == (
            macro,
            macro.uops,
            len(macro.uops),
            effective_msrom(macro, config),
            macro.branch_kind,
            _reference_stop(macro),
        )
    assert walk.decisions == tuple(
        i
        for i, macro in enumerate(walk.macros)
        if macro.branch_kind is not BranchKind.NONE
        or _reference_stop(macro) is not None
    )
    for k in range(len(walk.macros) + 1):
        prefix = walk.macros[:k]
        assert walk.src_uops[k] == sum(
            len(m.uops) for m in prefix if not effective_msrom(m, config)
        )
        assert walk.msrom_uops[k] == sum(
            len(m.uops) for m in prefix if effective_msrom(m, config)
        )
    for k in range(1, len(walk.macros) + 1):
        memo = walk.mite_cycles[k]
        expected = _reference_cycles(walk.macros[:k], config)
        if memo is not None:
            assert memo == expected
        assert walk.prefix_cycles(k, config) == expected
        assert walk.mite_cycles[k] == expected


@pytest.fixture(scope="module")
def programs():
    built = {name: make().program for name, make in DRIVERS.items()}
    built["templates"] = _template_program()
    return built


def test_template_program_exercises_config_dependent_msrom(programs):
    macros = programs["templates"].instructions.values()
    skylake, zen = CONFIGS["skylake-fusion-on"], CONFIGS["zen-fusion-on"]
    assert any(
        effective_msrom(m, zen) and not effective_msrom(m, skylake)
        for m in macros
    )


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_every_walk_entry_matches_helpers(programs, config_name):
    config = CONFIGS[config_name]
    for program in programs.values():
        frontend = Core(config, program).frontend
        for addr in program.instructions:
            _check_walk(frontend._walk_region(addr), config)


def test_memoized_costs_from_real_fetches_match_helpers():
    session = CovertChannel()
    session.send_bits([1, 0, 1])
    walks = session.core.frontend._walks
    assert walks
    filled = 0
    for walk in walks.values():
        filled += sum(c is not None for c in walk.mite_cycles)
        _check_walk(walk, session.config)
    assert filled


def _templates():
    """A fresh macro-op of every ``encodings`` template, plus 3- and
    4-uop instructions: decoded on Skylake's 1:4 decoder, microcoded on
    Zen's 1:2 decoders, so ``effective_msrom`` differs by config."""
    return [
        enc.nop(1), enc.nop(15, lcp=2), enc.mov_imm("r1", 5),
        enc.mov_imm("r1", 1 << 40, width=64), enc.mov("r1", "r2"),
        enc.alu("add", "r1", "r2"), enc.alu("imul", "r3", "r4"),
        enc.alu_imm("shl", "r1", 3), enc.cmp_imm("r1", 7),
        enc.cmp_reg("r1", "r2"), enc.test_reg("r1", "r2"), enc.dec("r5"),
        enc.load("r1", "r2"), enc.load("r1", "r2", index="r3", scale=8, disp=16),
        enc.store("r1", "r2"), enc.store("r1", "r2", index="r3", scale=4),
        enc.jmp("x"), enc.jmp("x", short=True), enc.jcc("nz", "x"),
        enc.call("x"), enc.call_ind("r1"), enc.jmp_ind("r2"), enc.ret(),
        enc.rdtsc("r0"), enc.clflush("r1", 64), enc.lfence(), enc.mfence(),
        enc.cpuid(), enc.pause(), enc.syscall(), enc.sysret(),
        enc.push("r1"), enc.pop("r2"),
        enc.lea("r1", "r2", index="r3", scale=2, disp=8), enc.halt(),
        MacroOp("wide3", 4, tuple(MicroOp(UopKind.NOP) for _ in range(3))),
        MacroOp("wide4", 5, tuple(MicroOp(UopKind.NOP) for _ in range(4))),
    ]


def _template_program():
    asm = Assembler()
    asm.label("x")
    for macro in _templates():
        asm.emit(macro)
    return asm.assemble()


@pytest.mark.parametrize("macro", _templates(), ids=lambda m: m.mnemonic)
def test_uop_tables_match_fresh_computation(macro):
    for uop in macro.uops:
        assert uop.read_regs is None  # nothing derived at construction
        uop.prepare()
        assert uop.read_regs == uop.reads()
        assert uop.write_regs == uop.writes()
        assert uop.resolves == (
            uop.is_branch
            and uop.kind not in (UopKind.SYSCALL, UopKind.SYSRET)
        )
        # The tables stay out of equality and repr.
        fresh = dataclasses.replace(uop)
        assert fresh.read_regs is None
        assert fresh == uop
        assert repr(fresh) == repr(uop)


def _run_member_latency(macro):
    """Reference: the latency of a NOP-run member, else None."""
    if len(macro.uops) != 1 or macro.branch_kind is not BranchKind.NONE:
        return None
    (uop,) = macro.uops
    if uop.kind not in (UopKind.NOP, UopKind.PAUSE) or uop.reads() or uop.writes():
        return None
    return uop.latency


def _check_delivery(walk):
    """The walk's delivery entries cover its plan in order: maximal runs
    of register-free single-NOP/PAUSE steps of one latency, every other
    step alone, and ``cuts`` ends every decision prefix on an entry."""
    covered = 0
    starts = []
    previous_run = None
    for macro, uops, start, run, latency in walk.delivery:
        assert start == covered
        assert macro is walk.plan[start][0] and uops is walk.plan[start][1]
        starts.append(start)
        if run:
            members = walk.plan[start:start + run]
            assert len(members) == run
            assert all(_run_member_latency(s[0]) == latency for s in members)
            assert previous_run != latency  # maximal: no equal neighbour
            previous_run = latency
            covered += run
        else:
            assert _run_member_latency(macro) is None
            previous_run = None
            covered += 1
    assert covered == len(walk.plan)
    for end in (0, len(walk.plan), *(d + 1 for d in walk.decisions)):
        assert walk.cuts[end] == sum(s < end for s in starts)
        assert end == 0 or end in starts[1:] + [covered]


def test_delivery_groups_register_free_nop_runs(programs):
    asm = Assembler()
    asm.label("x")
    asm.emit(
        enc.nop(1), enc.nop(3), enc.pause(), enc.pause(),
        MacroOp("nop_r1", 2, (MicroOp(UopKind.NOP, srcs=("r1",)),)),
        enc.nop(2), MacroOp("nop_lat4", 1, (MicroOp(UopKind.NOP, latency=4),)),
        enc.jcc("nz", "x"), enc.nop(1), enc.jmp("x"),
    )
    mixed = asm.assemble()
    walk = Core(CPUConfig.skylake(), mixed).frontend._walk_region(mixed.entry)
    assert [(entry[2], entry[3], entry[4]) for entry in walk.delivery] == [
        (0, 2, 1), (2, 2, 10), (4, 0, 0), (5, 1, 1), (6, 1, 4), (7, 0, 0),
        (8, 1, 1), (9, 0, 0),
    ]
    _check_delivery(walk)
    for config in CONFIGS.values():
        for program in (*programs.values(), mixed):
            frontend = Core(config, program).frontend
            for addr in program.instructions:
                _check_delivery(frontend._walk_region(addr))
