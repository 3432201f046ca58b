"""Macro-op and micro-op models.

A *macro-op* is one x86 instruction as seen by the predecoder: a byte
length, optional length-changing prefixes, and a decode recipe that
yields one or more *micro-ops*.  Micro-ops carry the execution
semantics interpreted by :mod:`repro.backend.execute`.

Terminology follows the paper (Section II-A): simple macro-ops decode
through 1:1 decoders, complex ones through the 1:4 decoder, and
microcoded ones through the MSROM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class UopKind(enum.Enum):
    """Semantic class of a micro-op, interpreted by the backend."""

    NOP = "nop"
    MOV_IMM = "mov_imm"  # dst <- imm
    MOV = "mov"  # dst <- src
    ALU = "alu"  # dst <- op(src1, src2) ; may set flags
    LEA = "lea"  # dst <- base + index*scale + disp (no memory access)
    ALU_IMM = "alu_imm"  # dst <- op(src1, imm) ; may set flags
    CMP = "cmp"  # flags <- compare(src1, src2/imm)
    TEST = "test"  # flags <- src1 & src2/imm
    LOAD = "load"  # dst <- mem[base + index*scale + disp]
    STORE = "store"  # mem[base + index*scale + disp] <- src
    JCC = "jcc"  # conditional branch on flags
    JMP = "jmp"  # unconditional direct jump
    JMP_IND = "jmp_ind"  # unconditional indirect jump (target in reg)
    CALL = "call"  # direct call (pushes return address)
    CALL_IND = "call_ind"  # indirect call (target in reg)
    RET = "ret"  # return (pops return address)
    RDTSC = "rdtsc"  # dst <- current cycle count
    CLFLUSH = "clflush"  # flush [base+disp] from the data hierarchy
    LFENCE = "lfence"  # dispatch serialisation
    MFENCE = "mfence"  # memory fence (modelled like lfence)
    CPUID = "cpuid"  # fetch serialisation (microcoded)
    PAUSE = "pause"  # spin-wait hint; not cached in the uop cache
    SYSCALL = "syscall"  # user -> kernel transition
    SYSRET = "sysret"  # kernel -> user transition
    HALT = "halt"  # stop the simulated thread
    MSROM_FLOW = "msrom_flow"  # filler uop emitted by microcoded macros


#: Uop kinds that transfer control.
CONTROL_KINDS = frozenset(
    {
        UopKind.JCC,
        UopKind.JMP,
        UopKind.JMP_IND,
        UopKind.CALL,
        UopKind.CALL_IND,
        UopKind.RET,
        UopKind.SYSCALL,
        UopKind.SYSRET,
    }
)

#: Uop kinds that are *unconditional* control transfers.  The micro-op
#: cache placement rule "an unconditional branch is always the last
#: micro-op of the line" applies to these.
UNCONDITIONAL_KINDS = frozenset(
    {
        UopKind.JMP,
        UopKind.JMP_IND,
        UopKind.CALL,
        UopKind.CALL_IND,
        UopKind.RET,
        UopKind.SYSCALL,
        UopKind.SYSRET,
    }
)


class BranchKind(enum.Enum):
    """Control-flow class of a macro-op (``NONE`` for straight-line)."""

    NONE = "none"
    JCC = "jcc"
    JMP = "jmp"
    JMP_IND = "jmp_ind"
    CALL = "call"
    CALL_IND = "call_ind"
    RET = "ret"
    SYSCALL = "syscall"
    SYSRET = "sysret"


@dataclass(slots=True)
class MicroOp:
    """One decoded micro-op.

    Fields that matter to the micro-op *cache* (Section II-B):

    - ``slots``: number of micro-op cache slots consumed.  A micro-op
      carrying a 64-bit immediate consumes two slots; everything else
      consumes one.
    - ``kind``: used for the "unconditional jump terminates the line"
      and "at most two branches per line" placement rules.

    Fields that matter to the *backend*: ``dst``/``srcs`` for the
    scoreboard, ``imm``/addressing fields for semantics, ``alu_op`` and
    ``cond`` selecting the operation, ``latency`` for timing.
    """

    kind: UopKind
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: Optional[int] = None
    alu_op: Optional[str] = None  # add, sub, and, or, xor, shl, shr, imul
    cond: Optional[str] = None  # z, nz, l, ge, b, ae, s, ns
    base: Optional[str] = None  # load/store address: [base + index*scale + disp]
    index: Optional[str] = None
    scale: int = 1
    disp: int = 0
    mem_size: int = 8  # load/store access width in bytes
    target: Optional[int] = None  # resolved direct branch/call target
    slots: int = 1
    latency: int = 1
    sets_flags: bool = False
    # Back-reference to the parent instruction, filled in at assembly.
    macro_addr: int = 0
    macro_len: int = 0
    from_msrom: bool = False
    # Scoreboard tables, None until :meth:`prepare` (called at the first
    # region walk, never at construction).  The class is slotted so
    # these cost one pointer each; an attribute added lazily to a
    # non-slotted instance would give every executed micro-op its own
    # ``__dict__`` (several hundred bytes).
    read_regs: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    write_regs: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: True if executing this micro-op resolves a branch: every control
    #: transfer except SYSCALL/SYSRET, whose target the fetch-side
    #: linkage decides.
    resolves: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer micro-op."""
        return self.kind in CONTROL_KINDS

    @property
    def is_unconditional(self) -> bool:
        """True for unconditional control transfers (jump/call/ret)."""
        return self.kind in UNCONDITIONAL_KINDS

    def reads(self) -> Tuple[str, ...]:
        """All architectural registers this micro-op reads."""
        regs = list(self.srcs)
        if self.base is not None:
            regs.append(self.base)
        if self.index is not None:
            regs.append(self.index)
        if self.kind is UopKind.JCC:
            regs.append("flags")
        return tuple(regs)

    def writes(self) -> Tuple[str, ...]:
        """All architectural registers this micro-op writes."""
        regs = []
        if self.dst is not None:
            regs.append(self.dst)
        if self.sets_flags:
            regs.append("flags")
        return tuple(regs)

    def prepare(self) -> None:
        """Fill the scoreboard tables :attr:`read_regs`,
        :attr:`write_regs` and :attr:`resolves` (idempotent).

        The front end calls this when a region walk first decodes the
        micro-op, so the backend reads fields instead of rebuilding
        tuples and hashing kinds per dynamic instance.  The tables are
        derived only from the fields above and stay out of equality,
        ``repr`` and program fingerprints.
        """
        if self.read_regs is None:
            self.read_regs = self.reads()
            self.write_regs = self.writes()
            self.resolves = self.is_branch and self.kind not in (
                UopKind.SYSCALL,
                UopKind.SYSRET,
            )


@dataclass
class MacroOp:
    """One x86 instruction as laid out in the binary.

    ``length`` and ``lcp_count`` drive the predecoder model; ``uops``
    drive the decoders and the micro-op cache; ``branch_kind`` and
    ``target`` drive next-fetch-address selection.
    """

    mnemonic: str
    length: int
    uops: Tuple[MicroOp, ...]
    lcp_count: int = 0
    branch_kind: BranchKind = BranchKind.NONE
    target: Optional[int] = None  # direct branch target (resolved)
    target_label: Optional[str] = None  # unresolved label, fixed at assembly
    msrom: bool = False  # decoded by the microcode sequencer ROM
    cacheable: bool = True  # PAUSE is observed not to enter the uop cache
    addr: int = 0  # filled in at assembly

    def __post_init__(self) -> None:
        if not 1 <= self.length <= 15:
            raise ValueError(
                f"{self.mnemonic}: x86 instruction length must be 1..15 bytes, "
                f"got {self.length}"
            )
        if not self.uops:
            raise ValueError(f"{self.mnemonic}: a macro-op must decode to >= 1 uop")

    @property
    def uop_count(self) -> int:
        """Number of decoded micro-ops."""
        return len(self.uops)

    @property
    def slot_count(self) -> int:
        """Micro-op cache slots consumed (64-bit immediates take two)."""
        return sum(u.slots for u in self.uops)

    @property
    def is_control(self) -> bool:
        """True if this instruction may redirect fetch."""
        return self.branch_kind is not BranchKind.NONE

    @property
    def end(self) -> int:
        """Address of the first byte after this instruction."""
        return self.addr + self.length

    def bind(self, addr: int) -> None:
        """Record the instruction address and stamp it into the uops."""
        self.addr = addr
        for uop in self.uops:
            uop.macro_addr = addr
            uop.macro_len = self.length


def region_of(addr: int, region_bytes: int = 32) -> int:
    """Aligned code-region base address containing ``addr``.

    The Skylake micro-op cache tracks 32-byte regions (Section II-B);
    the region base is simply the address with the low 5 bits cleared.
    """
    return addr & ~(region_bytes - 1)
