"""Differential testing: the full speculative core must produce the
same *architectural* results as a trivial in-order reference
interpreter, over randomly generated programs.

This is the strongest guard on the speculation machinery: any squash
that fails to roll back a register, store, or control decision shows
up as a divergence.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.cpu.thread import fresh_registers
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.instruction import UopKind

_MASK = (1 << 64) - 1


class ReferenceInterpreter:
    """Architectural-only interpreter: no pipeline, no speculation."""

    def __init__(self, program, data_base=0x80_0000):
        self.program = program
        self.regs = fresh_registers(0)
        self.mem = {}
        for base, payload in program.data.items():
            for i, b in enumerate(payload):
                self.mem[base + i] = b
        self.flags = 0

    def _read(self, addr, size):
        return int.from_bytes(
            bytes(self.mem.get(addr + i, 0) for i in range(size)), "little"
        )

    def _write(self, addr, value, size):
        for i in range(size):
            self.mem[addr + i] = (value >> (8 * i)) & 0xFF

    def _addr(self, uop):
        addr = self.regs[uop.base] + uop.disp if uop.base else uop.disp
        if uop.index is not None:
            addr += self.regs[uop.index] * uop.scale
        return addr & _MASK

    def _flags(self, a, b):
        f = 0
        if (a - b) & _MASK == 0:
            f |= 1
        sa = a - (1 << 64) if a >> 63 else a
        sb = b - (1 << 64) if b >> 63 else b
        if sa - sb < 0:
            f |= 2
        if a < b:
            f |= 4
        return f

    def _cond(self, cond):
        f = self.regs["flags"]
        return {
            "z": bool(f & 1), "nz": not f & 1,
            "b": bool(f & 4), "ae": not f & 4,
            "l": bool(f & 2), "ge": not f & 2,
            "s": bool(f & 2), "ns": not f & 2,
        }[cond]

    def _alu(self, op, a, b):
        return {
            "add": (a + b) & _MASK, "sub": (a - b) & _MASK,
            "and": a & b, "or": a | b, "xor": a ^ b,
            "shl": (a << (b & 63)) & _MASK, "shr": (a & _MASK) >> (b & 63),
            "imul": (a * b) & _MASK,
        }[op]

    def run(self, entry, max_steps=100_000):
        rip = entry
        regs = self.regs
        steps = 0
        while True:
            steps += 1
            assert steps < max_steps, "reference interpreter ran away"
            instr = self.program.fetch(rip)
            next_rip = instr.end
            for uop in instr.uops:
                k = uop.kind
                if k is UopKind.MOV_IMM:
                    regs[uop.dst] = uop.imm & _MASK
                elif k is UopKind.MOV:
                    regs[uop.dst] = regs[uop.srcs[0]]
                elif k is UopKind.ALU:
                    v = self._alu(uop.alu_op, regs[uop.srcs[0]],
                                  regs[uop.srcs[1]])
                    regs[uop.dst] = v
                    if uop.sets_flags:
                        regs["flags"] = self._flags(v, 0)
                elif k is UopKind.ALU_IMM:
                    v = self._alu(uop.alu_op, regs[uop.srcs[0]], uop.imm)
                    regs[uop.dst] = v
                    if uop.sets_flags:
                        regs["flags"] = self._flags(v, 0)
                elif k is UopKind.CMP:
                    b = regs[uop.srcs[1]] if len(uop.srcs) > 1 else uop.imm
                    regs["flags"] = self._flags(regs[uop.srcs[0]], b)
                elif k is UopKind.TEST:
                    b = regs[uop.srcs[1]] if len(uop.srcs) > 1 else uop.imm
                    regs["flags"] = self._flags(regs[uop.srcs[0]] & b, 0)
                elif k is UopKind.LOAD:
                    regs[uop.dst] = self._read(self._addr(uop), uop.mem_size)
                elif k is UopKind.STORE:
                    self._write(self._addr(uop), regs[uop.srcs[0]],
                                uop.mem_size)
                elif k is UopKind.JCC:
                    if self._cond(uop.cond):
                        next_rip = uop.target
                elif k is UopKind.JMP:
                    next_rip = uop.target
                elif k is UopKind.JMP_IND:
                    next_rip = regs[uop.srcs[0]]
                elif k is UopKind.CALL:
                    regs["rsp"] = (regs["rsp"] - 8) & _MASK
                    self._write(regs["rsp"], instr.end, 8)
                    next_rip = uop.target
                elif k is UopKind.CALL_IND:
                    regs["rsp"] = (regs["rsp"] - 8) & _MASK
                    self._write(regs["rsp"], instr.end, 8)
                    next_rip = regs[uop.srcs[0]]
                elif k is UopKind.RET:
                    next_rip = self._read(regs["rsp"], 8)
                    regs["rsp"] = (regs["rsp"] + 8) & _MASK
                elif k is UopKind.HALT:
                    return
                # NOP/PAUSE/RDTSC/fences: no architectural effect we
                # compare on (RDTSC writes a timing value, excluded).
            rip = next_rip


# ----------------------------------------------------------------------
# random program generation

GPRS = ["r1", "r2", "r3", "r4", "r5"]


@st.composite
def random_program(draw):
    """Random branchy straight-line programs with a data buffer.

    Generated from a template bank: ALU ops, loads/stores into a
    private buffer, compares, runs of one to nine NOPs, PAUSE and
    LFENCE, and forward conditional branches (always forward, so
    termination is structural).
    """
    n_blocks = draw(st.integers(min_value=2, max_value=6))
    ops_per_block = draw(
        st.lists(st.integers(min_value=1, max_value=6),
                 min_size=n_blocks, max_size=n_blocks)
    )
    choices = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alu", "alu_imm", "mov", "load", "store",
                                 "cmp", "nop", "pause", "lfence"]),
                st.sampled_from(GPRS),
                st.sampled_from(GPRS),
                st.sampled_from(["add", "sub", "xor", "and", "or"]),
                st.integers(min_value=0, max_value=56),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=sum(ops_per_block),
            max_size=sum(ops_per_block),
        )
    )
    conds = draw(st.lists(st.sampled_from(["z", "nz", "b", "ae", "l", "ge"]),
                          min_size=n_blocks, max_size=n_blocks))
    init = draw(st.lists(st.integers(min_value=0, max_value=2**32),
                         min_size=len(GPRS), max_size=len(GPRS)))

    asm = Assembler()
    asm.reserve("buf", 64)
    asm.label("main")
    for reg, val in zip(GPRS, init):
        asm.emit(enc.mov_imm(reg, val, width=64))
    asm.emit(enc.mov_imm("r10", asm.resolve("buf"), width=64))
    idx = 0
    for b in range(n_blocks):
        asm.label(f"block_{b}")
        for _ in range(ops_per_block[b]):
            kind, ra, rb, op, disp, imm = choices[idx]
            idx += 1
            if kind == "alu":
                asm.emit(enc.alu(op, ra, rb))
            elif kind == "alu_imm":
                asm.emit(enc.alu_imm(op, ra, imm))
            elif kind == "mov":
                asm.emit(enc.mov(ra, rb))
            elif kind == "load":
                asm.emit(enc.load(ra, "r10", disp=disp & ~7))
            elif kind == "store":
                asm.emit(enc.store(ra, "r10", disp=disp & ~7))
            elif kind == "nop":
                asm.emit(*(enc.nop(1 + (imm + j) % 4) for j in range(1 + disp % 9)))
            elif kind == "pause":
                asm.emit(enc.pause())
            elif kind == "lfence":
                asm.emit(enc.lfence())
            else:
                asm.emit(enc.cmp_imm(ra, imm))
        # forward branch to the next-next block (or the end)
        target = f"block_{b + 2}" if b + 2 < n_blocks else "end"
        asm.emit(enc.jcc(conds[b], target))
    asm.label("end")
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


@given(random_program())
@settings(max_examples=60, deadline=None)
def test_core_matches_reference(program):
    """Final registers and memory agree with the reference model."""
    core = Core(CPUConfig.skylake(), program)
    core.call("main")

    ref = ReferenceInterpreter(program)
    ref.run(program.entry)

    for reg in GPRS + ["flags", "rsp"]:
        assert core.read_reg(reg) == ref.regs[reg], f"register {reg} diverged"
    buf = program.labels["buf"]
    for offset in range(0, 64, 8):
        assert core.read_mem(buf + offset) == ref._read(buf + offset, 8), (
            f"memory at buf+{offset} diverged"
        )


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_core_deterministic(program):
    """Two fresh cores running the same program agree exactly."""
    a = Core(CPUConfig.skylake(), program)
    b = Core(CPUConfig.skylake(), program)
    a.call("main")
    b.call("main")
    for reg in GPRS:
        assert a.read_reg(reg) == b.read_reg(reg)
    assert a.cycles() == b.cycles()
    assert a.counters().retired_uops == b.counters().retired_uops


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_zen_config_same_architecture(program):
    """Architectural results are config-independent (Zen vs Skylake)."""
    skl = Core(CPUConfig.skylake(), program)
    zen = Core(CPUConfig.zen(), program)
    skl.call("main")
    zen.call("main")
    for reg in GPRS + ["flags"]:
        assert skl.read_reg(reg) == zen.read_reg(reg)


@st.composite
def looping_program(draw):
    """Random programs with bounded backward loops and calls --
    exercising the predictor-training and RSB paths of the core."""
    n_funcs = draw(st.integers(min_value=1, max_value=3))
    loop_counts = draw(st.lists(st.integers(min_value=1, max_value=9),
                                min_size=n_funcs, max_size=n_funcs))
    bodies = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["alu", "store", "load", "cmp_skip"]),
                    st.sampled_from(GPRS),
                    st.sampled_from(["add", "sub", "xor"]),
                    st.integers(min_value=0, max_value=48),
                ),
                min_size=1, max_size=5,
            ),
            min_size=n_funcs, max_size=n_funcs,
        )
    )
    asm = Assembler()
    asm.reserve("buf", 64)
    # functions first (forward call references need resolved labels
    # only for data, so ordering is free for code labels)
    for f in range(n_funcs):
        asm.org(0x41_0000 + f * 0x1000)
        asm.label(f"fn_{f}")
        counter = f"r{10 + f}"
        asm.emit(enc.mov_imm(counter, loop_counts[f]))
        asm.label(f"fn_{f}_top")
        for j, (kind, reg, op, disp) in enumerate(bodies[f]):
            if kind == "alu":
                asm.emit(enc.alu_imm(op, reg, 3))
            elif kind == "store":
                asm.emit(enc.store(reg, "r9", disp=disp & ~7))
            elif kind == "load":
                asm.emit(enc.load(reg, "r9", disp=disp & ~7))
            else:
                skip = f"fn_{f}_skip_{j}"
                asm.emit(enc.cmp_imm(reg, 100))
                asm.emit(enc.jcc("b", skip))
                asm.emit(enc.alu_imm("add", reg, 1))
                asm.label(skip)
        asm.emit(enc.dec(counter))
        asm.emit(enc.jcc("nz", f"fn_{f}_top"))
        asm.emit(enc.ret())
    asm.org(0x40_0000)
    asm.label("main")
    asm.emit(enc.mov_imm("r9", asm.resolve("buf"), width=64))
    for reg in GPRS:
        asm.emit(enc.mov_imm(reg, 7))
    for f in range(n_funcs):
        asm.emit(enc.call(f"fn_{f}"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


@given(looping_program())
@settings(max_examples=40, deadline=None)
def test_loops_and_calls_match_reference(program):
    core = Core(CPUConfig.skylake(), program)
    core.call("main")
    ref = ReferenceInterpreter(program)
    ref.run(program.entry)
    for reg in GPRS + ["rsp"]:
        assert core.read_reg(reg) == ref.regs[reg], f"register {reg} diverged"
    buf = program.labels["buf"]
    for offset in range(0, 64, 8):
        assert core.read_mem(buf + offset) == ref._read(buf + offset, 8)
