"""Instruction templates.

Every function returns a fresh :class:`~repro.isa.instruction.MacroOp`.
Byte lengths are chosen to match common x86-64 encodings so that the
paper's alignment-sensitive microbenchmarks (Listings 1-3) translate
directly: multi-byte NOPs of every length 1..15, two-byte short jumps,
five-byte near jumps, ten-byte ``mov r64, imm64``, and so on.

Branch-carrying templates accept a label string; the assembler resolves
it to an address and patches both the macro-op and its branch micro-op.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instruction import BranchKind, MacroOp, MicroOp, UopKind

# Latency classes (cycles) for the backend scoreboard.  Loads get their
# latency from the data-cache hierarchy instead.
_ALU_LAT = 1
_IMUL_LAT = 3
_RDTSC_LAT = 20

#: ``nop``'s mnemonics by length: the most-built template names its
#: instruction without formatting a string.
_NOP_MNEMONICS = {n: f"nop{n}" for n in range(1, 16)}


def nop(length: int = 1, lcp: int = 0) -> MacroOp:
    """Multi-byte NOP of ``length`` bytes (1..15), decoding to one uop.

    ``lcp`` counts length-changing prefixes attached to the encoding;
    each one stalls the predecoder (Section II-A).  The paper's best
    tigers/zebras pad NOPs and jumps with LCPs to sharpen the timing
    signal (Section IV).
    """
    mnemonic = _NOP_MNEMONICS.get(length) if type(length) is int else None
    return MacroOp(mnemonic or f"nop{length}", length,
                   (MicroOp(UopKind.NOP),), lcp)


def mov_imm(dst: str, value: int, width: int = 32) -> MacroOp:
    """``mov dst, imm``.

    ``width=64`` models ``movabs`` (10 bytes) whose immediate consumes
    *two* micro-op cache slots -- one of the documented placement rules.
    """
    if width == 64:
        return MacroOp(
            mnemonic="mov_imm64",
            length=10,
            uops=(MicroOp(UopKind.MOV_IMM, dst=dst, imm=value, slots=2),),
        )
    if width == 32:
        return MacroOp(
            mnemonic="mov_imm32",
            length=7 if dst.startswith("r") else 5,
            uops=(MicroOp(UopKind.MOV_IMM, dst=dst, imm=value),),
        )
    raise ValueError(f"unsupported immediate width {width}")


def mov(dst: str, src: str) -> MacroOp:
    """``mov dst, src`` register move (3 bytes, one uop)."""
    return MacroOp(
        mnemonic="mov",
        length=3,
        uops=(MicroOp(UopKind.MOV, dst=dst, srcs=(src,)),),
    )


def alu(op: str, dst: str, src: str) -> MacroOp:
    """Register-register ALU op (``add``/``sub``/``and``/``or``/``xor``)."""
    return MacroOp(
        mnemonic=op,
        length=3,
        uops=(
            MicroOp(
                UopKind.ALU,
                dst=dst,
                srcs=(dst, src),
                alu_op=op,
                sets_flags=True,
                latency=_ALU_LAT,
            ),
        ),
    )


def alu_imm(op: str, dst: str, imm: int) -> MacroOp:
    """ALU op with an 8-bit immediate (``shr dst, 3``, ``and dst, 1``...)."""
    return MacroOp(
        mnemonic=f"{op}_imm",
        length=4,
        uops=(
            MicroOp(
                UopKind.ALU_IMM,
                dst=dst,
                srcs=(dst,),
                imm=imm,
                alu_op=op,
                sets_flags=True,
                latency=_IMUL_LAT if op == "imul" else _ALU_LAT,
            ),
        ),
    )


def cmp_imm(src: str, imm: int) -> MacroOp:
    """``cmp src, imm8`` -- sets flags only."""
    return MacroOp(
        mnemonic="cmp_imm",
        length=4,
        uops=(
            MicroOp(UopKind.CMP, srcs=(src,), imm=imm, sets_flags=True),
        ),
    )


def cmp_reg(a: str, b: str) -> MacroOp:
    """``cmp a, b`` -- sets flags only."""
    return MacroOp(
        mnemonic="cmp",
        length=3,
        uops=(MicroOp(UopKind.CMP, srcs=(a, b), sets_flags=True),),
    )


def test_reg(a: str, b: str) -> MacroOp:
    """``test a, b`` -- sets ZF from ``a & b``."""
    return MacroOp(
        mnemonic="test",
        length=3,
        uops=(MicroOp(UopKind.TEST, srcs=(a, b), sets_flags=True),),
    )


def dec(dst: str) -> MacroOp:
    """``dec dst`` -- decrement and set flags (loop idiom)."""
    return MacroOp(
        mnemonic="dec",
        length=3,
        uops=(
            MicroOp(
                UopKind.ALU_IMM,
                dst=dst,
                srcs=(dst,),
                imm=1,
                alu_op="sub",
                sets_flags=True,
            ),
        ),
    )


def load(
    dst: str,
    base: str,
    index: Optional[str] = None,
    scale: int = 1,
    disp: int = 0,
    size: int = 8,
) -> MacroOp:
    """``mov dst, [base + index*scale + disp]`` (one load uop).

    ``size`` is the access width in bytes (1 for ``movzx dst, byte``).
    """
    length = 4 if index is None else 5
    return MacroOp(
        mnemonic="load",
        length=length,
        uops=(
            MicroOp(
                UopKind.LOAD,
                dst=dst,
                base=base,
                index=index,
                scale=scale,
                disp=disp,
                mem_size=size,
            ),
        ),
    )


def store(
    src: str,
    base: str,
    index: Optional[str] = None,
    scale: int = 1,
    disp: int = 0,
    size: int = 8,
) -> MacroOp:
    """``mov [base + index*scale + disp], src`` (one fused store uop)."""
    length = 4 if index is None else 5
    return MacroOp(
        mnemonic="store",
        length=length,
        uops=(
            MicroOp(
                UopKind.STORE,
                srcs=(src,),
                base=base,
                index=index,
                scale=scale,
                disp=disp,
                mem_size=size,
            ),
        ),
    )


def jmp(label: str, short: bool = False, lcp: int = 0) -> MacroOp:
    """Unconditional direct jump.

    ``short=True`` gives the 2-byte rel8 form, otherwise 5-byte rel32.
    The placement rules make this the line terminator in the micro-op
    cache, which is why Listings 2/3 build eviction sets out of jumps.
    """
    return MacroOp(
        mnemonic="jmp",
        length=2 if short else 5,
        lcp_count=lcp,
        branch_kind=BranchKind.JMP,
        target_label=label,
        uops=(MicroOp(UopKind.JMP),),
    )


def jcc(cond: str, label: str, short: bool = False) -> MacroOp:
    """Conditional branch (``jz``/``jnz``/``jl``/``jge``/``jb``/``jae``)."""
    return MacroOp(
        mnemonic=f"j{cond}",
        length=2 if short else 6,
        branch_kind=BranchKind.JCC,
        target_label=label,
        uops=(MicroOp(UopKind.JCC, cond=cond),),
    )


def call(label: str) -> MacroOp:
    """Direct near call (5 bytes): pushes the return address."""
    return MacroOp(
        mnemonic="call",
        length=5,
        branch_kind=BranchKind.CALL,
        target_label=label,
        uops=(MicroOp(UopKind.CALL, base="rsp", latency=2),),
    )


def call_ind(reg: str) -> MacroOp:
    """Indirect call through a register -- the variant-2 transmitter."""
    return MacroOp(
        mnemonic="call_ind",
        length=3,
        branch_kind=BranchKind.CALL_IND,
        uops=(MicroOp(UopKind.CALL_IND, srcs=(reg,), base="rsp", latency=2),),
    )


def jmp_ind(reg: str) -> MacroOp:
    """Indirect jump through a register."""
    return MacroOp(
        mnemonic="jmp_ind",
        length=3,
        branch_kind=BranchKind.JMP_IND,
        uops=(MicroOp(UopKind.JMP_IND, srcs=(reg,)),),
    )


def ret() -> MacroOp:
    """Near return (1 byte): pops the return address."""
    return MacroOp(
        mnemonic="ret",
        length=1,
        branch_kind=BranchKind.RET,
        uops=(MicroOp(UopKind.RET, base="rsp", latency=2),),
    )


def rdtsc(dst: str = "r0") -> MacroOp:
    """Read the time-stamp counter into ``dst``.

    Real RDTSC writes EDX:EAX; we collapse that into a single
    destination register.  It decodes through the complex decoder
    (2 uops) and carries a fixed ~20-cycle latency, which is also its
    serialisation granularity in the timing harness.
    """
    return MacroOp(
        mnemonic="rdtsc",
        length=2,
        uops=(
            MicroOp(UopKind.RDTSC, dst=dst, latency=_RDTSC_LAT),
            MicroOp(UopKind.NOP),
        ),
    )


def clflush(base: str, disp: int = 0) -> MacroOp:
    """``clflush [base+disp]`` -- evict a line from the data hierarchy.

    Needed by the Spectre-v1 FLUSH+RELOAD baseline of Table II.
    """
    return MacroOp(
        mnemonic="clflush",
        length=4,
        uops=(MicroOp(UopKind.CLFLUSH, base=base, disp=disp, latency=4),),
    )


def lfence() -> MacroOp:
    """LFENCE: younger uops may not *dispatch* until it completes.

    Crucially (Section VI-B), it does not stop the front end from
    fetching -- which is the property variant-2 exploits.
    """
    return MacroOp(
        mnemonic="lfence",
        length=3,
        uops=(MicroOp(UopKind.LFENCE, latency=1),),
    )


def mfence() -> MacroOp:
    """MFENCE, modelled with LFENCE-like dispatch serialisation."""
    return MacroOp(
        mnemonic="mfence",
        length=3,
        uops=(MicroOp(UopKind.MFENCE, latency=1),),
    )


def cpuid() -> MacroOp:
    """CPUID: fully serialising -- fetch of younger instructions stalls.

    Microcoded (MSROM), so it also occupies an entire micro-op cache
    line if cached.  Used as the "signal killed" control in Figure 10.
    """
    return MacroOp(
        mnemonic="cpuid",
        length=2,
        msrom=True,
        uops=tuple(
            [MicroOp(UopKind.CPUID, latency=100, from_msrom=True)]
            + [MicroOp(UopKind.MSROM_FLOW, from_msrom=True) for _ in range(5)]
        ),
    )


def pause() -> MacroOp:
    """PAUSE spin-wait hint.

    The characterization study (Section III) observes that PAUSE does
    not get cached in the micro-op cache; ``cacheable=False`` models
    that.
    """
    return MacroOp(
        mnemonic="pause",
        length=2,
        cacheable=False,
        uops=(MicroOp(UopKind.PAUSE, latency=10),),
    )


def syscall() -> MacroOp:
    """SYSCALL: transition to the kernel entry point at privilege 0."""
    return MacroOp(
        mnemonic="syscall",
        length=2,
        msrom=True,
        branch_kind=BranchKind.SYSCALL,
        uops=tuple(
            [MicroOp(UopKind.SYSCALL, latency=30, from_msrom=True)]
            + [MicroOp(UopKind.MSROM_FLOW, from_msrom=True) for _ in range(3)]
        ),
    )


def sysret() -> MacroOp:
    """SYSRET: return to user mode at the saved return address."""
    return MacroOp(
        mnemonic="sysret",
        length=3,
        msrom=True,
        branch_kind=BranchKind.SYSRET,
        uops=tuple(
            [MicroOp(UopKind.SYSRET, latency=30, from_msrom=True)]
            + [MicroOp(UopKind.MSROM_FLOW, from_msrom=True) for _ in range(3)]
        ),
    )


def push(src: str) -> MacroOp:
    """``push src`` (1 byte): decrement rsp, store the register."""
    return MacroOp(
        mnemonic="push",
        length=1,
        uops=(
            MicroOp(
                UopKind.ALU_IMM, dst="rsp", srcs=("rsp",), imm=8,
                alu_op="sub",
            ),
            MicroOp(UopKind.STORE, srcs=(src,), base="rsp"),
        ),
    )


def pop(dst: str) -> MacroOp:
    """``pop dst`` (1 byte): load from rsp, increment it."""
    return MacroOp(
        mnemonic="pop",
        length=1,
        uops=(
            MicroOp(UopKind.LOAD, dst=dst, base="rsp"),
            MicroOp(
                UopKind.ALU_IMM, dst="rsp", srcs=("rsp",), imm=8,
                alu_op="add",
            ),
        ),
    )


def lea(
    dst: str,
    base: str,
    index: Optional[str] = None,
    scale: int = 1,
    disp: int = 0,
) -> MacroOp:
    """``lea dst, [base + index*scale + disp]`` -- address arithmetic
    with no memory access (one ALU-class uop)."""
    return MacroOp(
        mnemonic="lea",
        length=4 if index is None else 5,
        uops=(
            MicroOp(
                UopKind.LEA,
                dst=dst,
                base=base,
                index=index,
                scale=scale,
                disp=disp,
            ),
        ),
    )


def halt() -> MacroOp:
    """Stop the simulated thread (simulation control, not x86 HLT)."""
    return MacroOp(
        mnemonic="halt",
        length=1,
        uops=(MicroOp(UopKind.HALT),),
    )
