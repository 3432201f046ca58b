"""Program fingerprints against a per-instruction reference renderer.

:func:`repro.harness.job.fingerprint_program` renders each distinct
instruction recipe once per call.  :func:`reference_fingerprint` is the
renderer it replaced, kept here as the oracle: one f-string per
macro-op and one per micro-op, each hashed as it is rendered.  Every
job key in the cache depends on the two agreeing byte for byte.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.config import CPUConfig
from repro.drivers import DRIVERS
from repro.errors import ConfigError
from repro.harness.experiments import characterize_sweeps, workload_jobs
from repro.harness.job import Job, fingerprint_program, resolve
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import BranchKind, UopKind
from repro.session import no_preflight
from repro.synth.candidate import build_program
from repro.synth.genome import baseline_genome, mutate
from tests.test_reference_model import looping_program, random_program


def reference_fingerprint(program):
    h = hashlib.sha256()
    for addr in sorted(program.instructions):
        macro = program.instructions[addr]
        h.update(
            f"I|{addr:x}|{macro.mnemonic}|{macro.length}|{macro.lcp_count}|"
            f"{macro.branch_kind.value}|{macro.target}|{macro.msrom}|"
            f"{macro.cacheable}".encode()
        )
        for uop in macro.uops:
            h.update(
                f"U|{uop.kind.value}|{uop.dst}|{uop.srcs}|{uop.imm}|"
                f"{uop.alu_op}|{uop.cond}|{uop.base}|{uop.index}|"
                f"{uop.scale}|{uop.disp}|{uop.mem_size}|{uop.target}|"
                f"{uop.slots}|{uop.latency}|{uop.sets_flags}".encode()
            )
    for base in sorted(program.data):
        h.update(f"D|{base:x}|".encode() + program.data[base])
    h.update(f"E|{program.entry:x}".encode())
    for start, end in sorted(program.kernel_ranges):
        h.update(f"K|{start:x}|{end:x}".encode())
    return h.hexdigest()


def _assert_agree(program, label=""):
    assert fingerprint_program(program) == reference_fingerprint(program), label


def _check_jobs(jobs):
    for job in jobs:
        build = resolve(job.fn).program_builder
        _assert_agree(build(job.config, job.params), job.label)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
def test_every_characterize_grid_program(fast):
    for sweep in characterize_sweeps(fast=fast).values():
        _check_jobs(sweep.jobs())


def test_every_workload_program():
    _check_jobs(workload_jobs())


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_every_driver_program(name):
    """The sessions behind Table I's channels, Table II's attacks and
    the other drivers."""
    with no_preflight():
        session = DRIVERS[name].make()
    _assert_agree(session.core.program, name)


def test_synth_baseline_and_mutated_genomes():
    def build(genome):
        return build_program(CPUConfig.skylake(), {"genome": genome})

    baseline = baseline_genome()
    _assert_agree(build(baseline), "baseline")
    rng, checked = random.Random(3), 0
    while checked < 3:
        child = mutate(baseline, rng)
        try:
            program = build(child)
        except ConfigError:  # a mutant whose layout cannot be built
            continue
        _assert_agree(program, repr(child))
        checked += 1


@given(st.one_of(random_program(), looping_program()))
@settings(deadline=None)
def test_random_programs(program):
    _assert_agree(program)


def test_fields_that_compare_equal_but_render_differently():
    """``(1,) == (True,)`` and ``0 == False``, yet each renders as
    itself: instructions that differ only in such a field (of the
    macro-op, of a micro-op or inside its sources) are distinct
    recipes."""
    asm = Assembler()
    asm.emit(enc.nop(3, lcp=1), enc.nop(3, lcp=True))
    asm.emit(enc.alu_imm("add", "r1", 1), enc.alu_imm("add", "r1", True))
    asm.emit(enc.mov("r1", "r2"), enc.mov("r1", "r2"))
    asm.emit(enc.cmp_imm("r1", 0), enc.cmp_imm("r1", False))
    asm.emit(enc.push("r1"), enc.push("r1"))
    asm.emit(enc.halt())
    program = asm.assemble()
    for mnemonic in ("mov", "push"):
        macros = [m for m in program.instructions.values()
                  if m.mnemonic == mnemonic]
        for macro, srcs in zip(macros, [(1,), (True,)]):
            macro.uops[-1].srcs = srcs
    _assert_agree(program)
    before = fingerprint_program(program)
    program.instructions[program.entry + 3].lcp_count = 1
    _assert_agree(program)
    assert fingerprint_program(program) != before


#: A value other than the template's for every rendered field.
MACRO_CHANGES = {
    "mnemonic": "nop3x", "length": 4, "lcp_count": 2,
    "branch_kind": BranchKind.JMP, "target": 0x1234, "msrom": True,
    "cacheable": False,
}
UOP_CHANGES = {
    "kind": UopKind.MOV, "dst": "r9", "srcs": ("r9",), "imm": 7,
    "alu_op": "xor", "cond": "z", "base": "r3", "index": "r4", "scale": 2,
    "disp": 8, "mem_size": 4, "target": 0x99, "slots": 2, "latency": 3,
    "sets_flags": True,
}


@pytest.mark.parametrize("template", [enc.nop, enc.rdtsc],
                         ids=["one-uop", "two-uops"])
@pytest.mark.parametrize(
    "field", [("macro", f) for f in MACRO_CHANGES]
    + [("uop", f) for f in UOP_CHANGES], ids="-".join)
def test_recipes_that_differ_in_one_field(field, template):
    """Two instructions that differ in one rendered field (of the
    macro-op or of its last micro-op) render as two recipes."""
    asm = Assembler()
    asm.emit(template(), template(), enc.halt())
    program = asm.assemble()
    second = program.instructions[sorted(program.instructions)[1]]
    where, name = field
    if where == "macro":
        setattr(second, name, MACRO_CHANGES[name])
    else:
        setattr(second.uops[-1], name, UOP_CHANGES[name])
    _assert_agree(program)


def test_config_payload_reads_every_field():
    """The key's config dict is the one ``dataclasses.asdict`` builds."""
    for preset in ("skylake", "zen", "zen2", "sunny_cove"):
        config = getattr(CPUConfig, preset)(uop_cache_ways=4)
        payload = Job("debug.echo", config=config).hash_payload()
        assert payload["config"] == dataclasses.asdict(config)
