"""Template-driven attacker/victim pair generation, one template per
shared resource.

Every pair follows the paper's measurement discipline (Section IV):
the *victim* runs a fixed, self-timed workload (RDTSC-bracketed, the
delta stored to ``victim_result``); the *attacker* exercises the
target resource either on the victim's index points (``"conflict"``)
or on provably different ones (``"disjoint"``, the negative control).
The generator also emits an ``attacker_idle`` spin loop used as the
baseline SMT partner, so baseline and contended runs differ only in
*which* co-runner executes -- never in whether one exists.

Each template returns a :class:`GeneratedPair` carrying the assembled
program plus the lint claims that make the layout *verifiable*:
:class:`~repro.lint.gadgets.ChainClaim`/:class:`~repro.lint.gadgets.PairClaim`
for the micro-op cache template and the per-resource claims of
:mod:`repro.lint.resources` (iTLB page sets, store-site counts,
capacity-checked pair relations) for the others.  A pair that claims
``disjoint`` but overlaps fails lint at generation time, not after a
flat experiment.

Resource notes (what the knob means per template):

- ``uop_cache``  -- striped DSB sets, 6+6 ways vs 8 (Figure 8 tiger);
- ``itlb``       -- instruction pages chained by jumps, 25 vs 16 entries;
- ``dtlb``       -- data pages touched by loads, 24+8 vs 16 entries;
- ``l1i``        -- instruction lines, 16+2 ways vs 8 in shared sets;
- ``l1d``        -- data lines, 16+2 ways vs 8 in shared sets;
- ``store_buffer`` -- drain-port pressure; SMT-only by design (the
  simulator rebases store-drain state per serial call);
- ``btb``        -- bimodal direction slots (pc & 4095) aliased across
  arenas; *serial-only* by design (predictors are per-thread).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.exploitgen import (
    FootprintSpec,
    _emit_regions,
    neutral_set,
    striped_sets,
)
from repro.cpu.config import CPUConfig
from repro.errors import ConfigError
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.resources import ITLBClaim, ResourcePairClaim, StoreClaim

PAGE = 4096

#: Code arenas.  All are 4096-aligned (so bimodal slots ``pc & 4095``
#: alias across arenas by construction) and 1024-aligned (FootprintSpec
#: requirement).
VICTIM_ARENA = 0x44_0000
STUB_ARENA = 0x52_0000
ATTACKER_ARENA = 0x54_0000
IDLE_ARENA = 0x70_0000
KERNEL_BASE = 0xC0_0000
KERNEL_ATTACKER_ARENA = 0xC4_0000
KERNEL_END = 0xD8_0000

RESOURCES = (
    "uop_cache",
    "itlb",
    "dtlb",
    "l1i",
    "l1d",
    "store_buffer",
    "btb",
)
VARIANTS = ("conflict", "disjoint")
DOMAINS = ("user", "kernel")


def contention_config(resource: str) -> CPUConfig:
    """The measurement configuration for one resource's template.

    The micro-op cache template runs on Zen (competitive DSB sharing;
    Skylake's static partition hides cross-thread DSB contention).
    TLB and store-buffer capacities are shrunk so conflict footprints
    stay small enough to assemble and lint quickly.
    """
    if resource == "uop_cache":
        return CPUConfig.zen()
    if resource == "itlb":
        return CPUConfig.skylake(itlb_entries=16)
    if resource == "dtlb":
        return CPUConfig.skylake(dtlb_enabled=True, dtlb_entries=16)
    if resource == "store_buffer":
        return CPUConfig.skylake(store_buffer_entries=16)
    if resource in ("l1i", "l1d", "btb"):
        return CPUConfig.skylake()
    raise ConfigError(f"unknown contention resource {resource!r}")


@dataclass
class GeneratedPair:
    """One generated attacker/victim pair plus its verifiable claims."""

    resource: str
    variant: str
    domain: str
    program: Program
    config: CPUConfig
    victim_label: str = "victim_work"
    attacker_label: str = "attacker_work"
    idle_label: str = "attacker_idle"
    result_label: str = "victim_result"
    #: the pair's claim list, as ``AttackSession.claims`` returns one
    claims: List[object] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared emission helpers


def _epilogue(asm: Assembler, result_label: str = "victim_result") -> None:
    """Close the victim's RDTSC bracket (opened into r14) and store the
    delta.  RDTSC serialises against in-flight loads/stores, so memory
    latencies land inside the bracket."""
    asm.emit(enc.rdtsc("r15"))
    asm.emit(enc.alu("sub", "r15", "r14"))
    asm.emit(enc.mov_imm("r13", asm.resolve(result_label), width=64))
    asm.emit(enc.store("r15", "r13"))
    asm.emit(enc.halt())


def _emit_idle(asm: Assembler, iterations: int = 16) -> None:
    """The baseline SMT partner: a short PAUSE spin touching nothing
    the templates contend on (own page, own DSB sets, no memory)."""
    asm.org(IDLE_ARENA)
    asm.label("attacker_idle")
    asm.emit(enc.mov_imm("r2", iterations))
    asm.label("idle_loop")
    asm.emit(enc.pause())
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "idle_loop"))
    asm.emit(enc.halt())


def _emit_stub(asm: Assembler) -> None:
    """User-mode entry stub for cross-domain pairs: SYSCALL into the
    kernel-resident attacker (``kernel_entry``)."""
    asm.org(STUB_ARENA)
    asm.label("attacker_enter")
    asm.emit(enc.syscall())
    asm.emit(enc.halt())


def _attacker_arena(domain: str) -> int:
    return KERNEL_ATTACKER_ARENA if domain == "kernel" else ATTACKER_ARENA


def _attacker_entry(asm: Assembler, domain: str) -> None:
    """Label the attacker body; kernel-domain attackers double as the
    SYSCALL target."""
    if domain == "kernel":
        asm.label("kernel_entry")
    asm.label("attacker_work")


def _attacker_exit(asm: Assembler, domain: str) -> None:
    asm.emit(enc.sysret() if domain == "kernel" else enc.halt())


def _attacker_call_label(domain: str) -> str:
    return "attacker_enter" if domain == "kernel" else "attacker_work"


def _assemble(asm: Assembler, domain: str) -> Program:
    program = asm.assemble(entry="victim_work")
    if domain == "kernel":
        program.mark_kernel(KERNEL_BASE, KERNEL_END)
    return program


# ----------------------------------------------------------------------
# per-resource templates


def _build_uop_cache(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """Striped-set DSB contention (the paper's tiger/zebra geometry)."""
    config = config or contention_config("uop_cache")
    nsets = size or 8
    offset = stride or 2
    passes, loops = passes or 2, 4
    v_sets = striped_sets(nsets)
    a_sets = v_sets if variant == "conflict" else striped_sets(
        nsets, offset=offset
    )
    a_arena = _attacker_arena(domain)
    v_spec = FootprintSpec(v_sets, 6, VICTIM_ARENA)
    a_spec = FootprintSpec(a_sets, 6, a_arena)

    asm = Assembler()
    asm.reserve("victim_result", 8)

    prolog = VICTIM_ARENA + 9 * v_spec.way_stride + neutral_set(v_spec) * 32
    asm.org(prolog)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    asm.emit(enc.jmp("victim_work_r0"))
    _emit_regions(asm, "victim_work", v_spec, "victim_chk")
    asm.org(prolog + v_spec.way_stride)
    asm.label("victim_chk")
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)

    a_prolog = a_arena + 9 * a_spec.way_stride + neutral_set(a_spec) * 32
    asm.org(a_prolog)
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    asm.emit(enc.jmp("attacker_work_r0"))
    _emit_regions(asm, "attacker_work", a_spec, "attacker_chk")
    asm.org(a_prolog + a_spec.way_stride)
    asm.label("attacker_chk")
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="uop_cache",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        claims=[
            ChainClaim("victim_work", v_spec, "probe"),
            ChainClaim("attacker_work", a_spec, "tiger"),
            PairClaim("attacker_work", "victim_work", variant),
        ],
        meta={
            "victim_sets": list(v_sets),
            "attacker_sets": list(a_sets),
            "ways_demand": v_spec.ways + a_spec.ways,
            "cache_ways": config.uop_cache_ways,
            "passes": passes,
            "loops": loops,
        },
    )


def _emit_page_chain(
    asm: Assembler,
    name: str,
    base: int,
    npages: int,
    step: int,
    line_offset,
    exit_label: str,
) -> Set[int]:
    """PAUSE+JMP blocks, one per page, chained ``{name}_c0`` ->
    ``exit_label``.  ``line_offset(i)`` staggers the within-page byte
    offset so blocks land in distinct L1i sets (keeping the L1i out of
    an iTLB experiment).  Returns the set of page numbers touched."""
    pages: Set[int] = set()
    for i in range(npages):
        addr = base + (i + 1) * step + line_offset(i) * 64
        asm.org(addr)
        asm.label(f"{name}_c{i}")
        asm.emit(enc.pause())
        nxt = f"{name}_c{i + 1}" if i + 1 < npages else exit_label
        asm.emit(enc.jmp(nxt))
        pages.add(addr // PAGE)
    return pages


def _build_itlb(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """Instruction-page pressure: jump chains spanning many pages.

    The victim walks ``size`` pages per pass; the conflict attacker
    walks 24 pages (9 + 25 > 16 iTLB entries -> victim re-walks every
    pass), the disjoint attacker only 2 (total 12 <= 16 -> no
    evictions).  Attacker loop counts are balanced so both variants
    visit the same number of blocks."""
    config = config or contention_config("itlb")
    npages_v = size or 8
    step = stride or PAGE
    n_att = 24 if variant == "conflict" else 2
    visits = 144
    loops = visits // n_att
    passes = passes or 3
    a_arena = _attacker_arena(domain)

    asm = Assembler()
    asm.reserve("victim_result", 8)

    vb = VICTIM_ARENA
    asm.org(vb)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    asm.emit(enc.jmp("victim_c0"))
    asm.org(vb + 64)
    asm.label("victim_chk")
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)
    # victim chain blocks stagger over L1i sets 0..7; the attacker's
    # take 8..55, so the iTLB cell carries no L1i eviction confound.
    v_pages = {vb // PAGE} | _emit_page_chain(
        asm, "victim", vb, npages_v, step, lambda i: i % 8, "victim_chk"
    )

    asm.org(a_arena)
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    asm.emit(enc.jmp("attacker_c0"))
    asm.org(a_arena + 64)
    asm.label("attacker_chk")
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)
    a_pages = {a_arena // PAGE} | _emit_page_chain(
        asm, "attacker", a_arena, n_att, PAGE,
        lambda i: 8 + (i % 48), "attacker_chk",
    )

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
        a_pages.add(STUB_ARENA // PAGE)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="itlb",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        claims=[
            ITLBClaim("victim", "victim_work", tuple(sorted(v_pages))),
            ITLBClaim(
                "attacker",
                _attacker_call_label(domain),
                tuple(sorted(a_pages)),
            ),
            ResourcePairClaim("attacker", "victim", "itlb", variant),
        ],
        meta={
            "victim_pages": len(v_pages),
            "attacker_pages": len(a_pages),
            "itlb_entries": config.itlb_entries,
            "passes": passes,
            "loops": loops,
        },
    )


def _build_dtlb(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """Data-page pressure: a pointer chase spanning many pages.

    The victim *chases* a circular pointer chain (each load's address
    is the previous load's result), so translation latency serialises
    instead of hiding under the out-of-order window; the attacker uses
    independent unrolled loads (parallel eviction is faster and its
    own latency is irrelevant).  The chain lives in data memory and is
    installed by :meth:`ContentionSession.setup` from
    ``meta["pointer_chain"]``.

    No static page claims here -- load targets are register-indirect,
    outside the static analyzer's reach; disjointness holds by
    construction because the two data arenas are separate
    reservations."""
    config = config or contention_config("dtlb")
    npages_v = size or 8
    step = stride or PAGE
    n_att = 24 if variant == "conflict" else 2
    visits = 192
    loops = visits // n_att
    passes = passes or 2

    asm = Assembler()
    asm.reserve("victim_result", 8)
    asm.reserve("victim_darena", npages_v * max(step, PAGE), align=PAGE)
    asm.reserve("attacker_darena", (n_att + 1) * PAGE, align=PAGE)

    asm.org(VICTIM_ARENA)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r13", asm.resolve("victim_darena"), width=64))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    # dependent chase: r13 <- mem[r13], one hop per victim page; the
    # chain is circular so every pass restarts at the arena base
    for _ in range(npages_v):
        asm.emit(enc.load("r13", "r13"))
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)
    # victim chain nodes stagger over L1d sets 0..7, attacker loads
    # over 8..55: dTLB contention without an L1d eviction confound.
    darena = asm.resolve("victim_darena")
    chain = [
        darena + i * step + (i % 8) * 64 for i in range(npages_v)
    ]

    asm.org(_attacker_arena(domain))
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r4", asm.resolve("attacker_darena"), width=64))
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    for i in range(n_att):
        asm.emit(enc.load("r5", "r4", disp=i * PAGE + (8 + (i % 48)) * 64))
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="dtlb",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        meta={
            "victim_pages": npages_v,
            "attacker_pages": n_att,
            "dtlb_entries": config.dtlb_entries,
            "passes": passes,
            "loops": loops,
            "pointer_chain": chain,
        },
    )


def _emit_way_blocks(
    asm: Assembler,
    name: str,
    base: int,
    sets,
    ways: int,
    exit_label: str,
) -> int:
    """PAUSE+JMP blocks at ``base + way*PAGE + set*64``: ``ways`` lines
    in each claimed L1i set.  Returns the block count."""
    order = [(s, w) for s in sets for w in range(ways)]
    for i, (s, w) in enumerate(order):
        asm.org(base + w * PAGE + s * 64)
        asm.label(f"{name}_c{i}")
        asm.emit(enc.pause())
        nxt = f"{name}_c{i + 1}" if i + 1 < len(order) else exit_label
        asm.emit(enc.jmp(nxt))
    return len(order)


def _build_l1i(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """L1 instruction cache pressure: 16 attacker ways vs 8-way sets."""
    config = config or contention_config("l1i")
    nsets = size or 4
    off = stride or 8
    base_sets = [i * (64 // nsets) for i in range(nsets)]
    a_sets = base_sets if variant == "conflict" else [
        (s + off) % 64 for s in base_sets
    ]
    v_ways, a_ways = 2, 16
    passes, loops = passes or 4, 2
    vb, ab = VICTIM_ARENA, _attacker_arena(domain)

    asm = Assembler()
    asm.reserve("victim_result", 8)

    # scaffolds park on L1i sets 62/63, away from every block set
    asm.org(vb + 62 * 64)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    asm.emit(enc.jmp("victim_c0"))
    asm.org(vb + 63 * 64)
    asm.label("victim_chk")
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)
    _emit_way_blocks(asm, "victim", vb, base_sets, v_ways, "victim_chk")

    asm.org(ab + 62 * 64)
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    asm.emit(enc.jmp("attacker_c0"))
    asm.org(ab + 63 * 64)
    asm.label("attacker_chk")
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)
    n_att = _emit_way_blocks(asm, "attacker", ab, a_sets, a_ways,
                             "attacker_chk")

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="l1i",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        meta={
            "victim_sets": base_sets,
            "attacker_sets": a_sets,
            "victim_ways": v_ways,
            "attacker_ways": a_ways,
            "attacker_blocks": n_att,
            "passes": passes,
            "loops": loops,
        },
    )


def _build_l1d(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """L1 data cache pressure: same way-vs-associativity geometry as
    the L1i template, expressed through data accesses.

    Like the dTLB template the victim pointer-chases (see
    ``meta["pointer_chain"]``) so each L1d miss's latency serialises;
    the attacker evicts with independent unrolled loads."""
    config = config or contention_config("l1d")
    nsets = size or 4
    off = stride or 8
    base_sets = [i * (64 // nsets) for i in range(nsets)]
    a_sets = base_sets if variant == "conflict" else [
        (s + off) % 64 for s in base_sets
    ]
    v_ways, a_ways = 2, 16
    passes, loops = passes or 3, 4

    asm = Assembler()
    asm.reserve("victim_result", 8)
    asm.reserve("victim_darena", v_ways * PAGE, align=PAGE)
    asm.reserve("attacker_darena", a_ways * PAGE, align=PAGE)

    asm.org(VICTIM_ARENA)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r13", asm.resolve("victim_darena"), width=64))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    for _ in range(v_ways * len(base_sets)):
        asm.emit(enc.load("r13", "r13"))
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)
    darena = asm.resolve("victim_darena")
    chain = [
        darena + w * PAGE + s * 64
        for w in range(v_ways) for s in base_sets
    ]

    asm.org(_attacker_arena(domain))
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r4", asm.resolve("attacker_darena"), width=64))
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    for w in range(a_ways):
        for s in a_sets:
            asm.emit(enc.load("r5", "r4", disp=w * PAGE + s * 64))
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="l1d",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        meta={
            "victim_sets": base_sets,
            "attacker_sets": a_sets,
            "victim_ways": v_ways,
            "attacker_ways": a_ways,
            "passes": passes,
            "loops": loops,
            "pointer_chain": chain,
        },
    )


def _build_store_buffer(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """Store-buffer drain-port pressure.

    The victim issues one unpaced burst of ``size`` stores (well past
    the 16-entry buffer, so its *baseline* already includes its own
    capacity stalls); the conflict attacker floods the shared drain
    port with looped back-to-back stores.  The disjoint attacker
    issues only 4 stores *total* before settling into a PAUSE loop --
    pacing must be by count, not by interleaved delays, because the
    out-of-order window issues independent stores past any PAUSE.
    SMT-only by design: serial calls rebase drain state, so
    time-sliced/cross-domain cells read ~zero -- that asymmetry is
    itself the measured fact."""
    config = config or contention_config("store_buffer")
    k = size or 48
    n_att = 32 if variant == "conflict" else 4
    loops = 8 if variant == "conflict" else 16

    asm = Assembler()
    asm.reserve("victim_result", 8)
    asm.reserve("victim_sbuf", 64)
    asm.reserve("attacker_sbuf", 64)

    asm.org(VICTIM_ARENA)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r13", asm.resolve("victim_sbuf"), width=64))
    for i in range(k):
        asm.emit(enc.store("r12", "r13", disp=(i % 8) * 8))
    _epilogue(asm)

    asm.org(_attacker_arena(domain))
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r4", asm.resolve("attacker_sbuf"), width=64))
    asm.emit(enc.mov_imm("r2", loops))
    if variant == "conflict":
        asm.label("attacker_loop")
        for i in range(n_att):
            asm.emit(enc.store("r5", "r4", disp=(i % 8) * 8))
    else:
        for i in range(n_att):
            asm.emit(enc.store("r5", "r4", disp=(i % 8) * 8))
        asm.label("attacker_loop")
        asm.emit(enc.pause())
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    return GeneratedPair(
        resource="store_buffer",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        claims=[
            StoreClaim("victim", "victim_work", k + 1),
            StoreClaim("attacker", _attacker_call_label(domain), n_att),
            ResourcePairClaim("attacker", "victim", "store_buffer", variant),
        ],
        meta={
            "victim_stores": k + 1,
            "attacker_stores": n_att,
            "sb_entries": config.store_buffer_entries,
            "loops": loops,
        },
    )


def _emit_jcc_blocks(
    asm: Assembler,
    name: str,
    base: int,
    nblocks: int,
    cond: str,
    exit_label: str,
    in_region_off: int = 0,
) -> None:
    """TEST+JCC+JMP blocks at 64-byte steps from ``base + 256``.

    Both JCC and JMP target the next block, so either branch outcome
    lands somewhere valid; with r3=1 the ``nz`` chain runs taken and
    the ``z`` chain runs not-taken.  ``in_region_off`` shifts the whole
    block (hence its ``pc & 4095`` bimodal slot) for disjoint layouts.
    """
    for i in range(nblocks):
        asm.org(base + 256 + i * 64 + in_region_off)
        asm.label(f"{name}_b{i}")
        asm.emit(enc.test_reg("r3", "r3"))
        nxt = f"{name}_b{i + 1}" if i + 1 < nblocks else exit_label
        asm.emit(enc.jcc(cond, nxt))
        asm.emit(enc.jmp(nxt))


def _build_btb(
    variant: str, domain: str, size: Optional[int], stride: Optional[int],
    config: Optional[CPUConfig], passes: Optional[int],
) -> GeneratedPair:
    """Branch direction-predictor aliasing over the bimodal slot
    (``pc & 4095``).

    The victim's chain branches are always-taken; the conflict
    attacker's branches sit at the *same* slots (arenas are 4096-
    aligned, blocks byte-identical in shape) but resolve never-taken,
    driving the shared counters to predict not-taken.  Serial-only by
    design: predictors are per-thread, so the SMT cell is a built-in
    negative control."""
    config = config or contention_config("btb")
    nblocks = size or 16
    off = stride or 32
    passes, loops = passes or 2, 4
    vb, ab = VICTIM_ARENA, _attacker_arena(domain)

    asm = Assembler()
    asm.reserve("victim_result", 8)

    asm.org(vb)
    asm.label("victim_work")
    asm.emit(enc.rdtsc("r14"))
    asm.emit(enc.mov_imm("r3", 1))
    asm.emit(enc.mov_imm("r12", passes))
    asm.label("victim_loop")
    asm.emit(enc.jmp("victim_b0"))
    asm.org(vb + 64)
    asm.label("victim_chk")
    asm.emit(enc.dec("r12"))
    asm.emit(enc.jcc("nz", "victim_loop"))
    _epilogue(asm)
    _emit_jcc_blocks(asm, "victim", vb, nblocks, "nz", "victim_chk")

    a_off = 0 if variant == "conflict" else off
    # the attacker scaffold sits past the block array so its own
    # control branches cannot alias the victim's slots
    scaffold = ab + 256 + nblocks * 64 + 64
    asm.org(scaffold)
    _attacker_entry(asm, domain)
    asm.emit(enc.mov_imm("r3", 1))
    asm.emit(enc.mov_imm("r2", loops))
    asm.label("attacker_loop")
    asm.emit(enc.jmp("attacker_b0"))
    asm.org(scaffold + 64)
    asm.label("attacker_chk")
    asm.emit(enc.dec("r2"))
    asm.emit(enc.jcc("nz", "attacker_loop"))
    _attacker_exit(asm, domain)
    _emit_jcc_blocks(asm, "attacker", ab, nblocks, "z", "attacker_chk",
                     in_region_off=a_off)

    _emit_idle(asm)
    if domain == "kernel":
        _emit_stub(asm)
    program = _assemble(asm, domain)
    v_slots = [(256 + i * 64 + 3) & 4095 for i in range(nblocks)]
    a_slots = [(256 + i * 64 + a_off + 3) & 4095 for i in range(nblocks)]
    return GeneratedPair(
        resource="btb",
        variant=variant,
        domain=domain,
        program=program,
        config=config,
        attacker_label=_attacker_call_label(domain),
        meta={
            "victim_slots": v_slots,
            "attacker_slots": a_slots,
            "mispredict_penalty": config.mispredict_penalty,
            "passes": passes,
            "loops": loops,
        },
    )


_BUILDERS = {
    "uop_cache": _build_uop_cache,
    "itlb": _build_itlb,
    "dtlb": _build_dtlb,
    "l1i": _build_l1i,
    "l1d": _build_l1d,
    "store_buffer": _build_store_buffer,
    "btb": _build_btb,
}


#: Per-resource sampling ranges :func:`generate_pair` draws from when
#: handed an ``rng`` and the knob was left unspecified.  Every value in
#: these ranges assembles and lints clean (the template sampling test
#: sweeps them), so a seeded sampler can never produce a broken pair.
_SAMPLE_SPACE: Dict[str, Dict[str, Tuple[int, ...]]] = {
    "uop_cache": {"size": (4, 8, 16)},
    "itlb": {"size": (4, 6, 8, 10), "passes": (2, 3, 4)},
    "dtlb": {"size": (4, 6, 8, 10), "passes": (2, 3)},
    "l1i": {"size": (2, 4, 8), "stride": (4, 8, 16), "passes": (2, 3, 4)},
    "l1d": {"size": (2, 4, 8), "stride": (4, 8, 16), "passes": (2, 3)},
    "store_buffer": {"size": (32, 40, 48, 56, 64)},
    "btb": {"size": (8, 16, 24), "passes": (2, 3)},
}


def generate_pair(
    resource: str,
    variant: str = "conflict",
    domain: str = "user",
    size: Optional[int] = None,
    stride: Optional[int] = None,
    config: Optional[CPUConfig] = None,
    passes: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> GeneratedPair:
    """Generate one attacker/victim pair for ``resource``.

    ``variant``: ``"conflict"`` (contending footprints) or
    ``"disjoint"`` (the negative control).  ``domain``: ``"user"``
    (both same privilege) or ``"kernel"`` (attacker kernel-resident,
    entered through a SYSCALL stub -- the cross-domain scenario).
    ``size``/``stride`` scale the footprint and its displacement; each
    template documents its own interpretation.  ``passes`` overrides
    the victim's timed-loop iteration count (SMT cells need enough
    victim work to overlap the concurrent attacker's warm-up; see
    :data:`repro.contention.session.SMT_PASSES`).  ``config``
    overrides :func:`contention_config`.

    ``rng`` turns the generator into a *seeded sampler*: knobs the
    caller left ``None`` are drawn deterministically from the
    per-resource :data:`_SAMPLE_SPACE`, so the synthesis layer gets
    reproducible template populations (same ``random.Random`` state,
    same pair -- and therefore the same harness job key) while explicit
    knobs still win.  Without ``rng`` the historical fixed defaults
    apply unchanged.
    """
    if resource not in _BUILDERS:
        raise ConfigError(
            f"unknown contention resource {resource!r}; "
            f"choose from {RESOURCES}"
        )
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    if domain not in DOMAINS:
        raise ConfigError(
            f"unknown domain {domain!r}; choose from {DOMAINS}"
        )
    if rng is not None:
        space = _SAMPLE_SPACE[resource]
        if size is None and "size" in space:
            size = rng.choice(space["size"])
        if stride is None and "stride" in space:
            stride = rng.choice(space["stride"])
        if resource == "uop_cache" and stride is None:
            # the striped-set displacement must stay below the stripe
            # stride (32 DSB sets / nsets), which depends on the size
            # just drawn
            stride = rng.randrange(1, max(2, 32 // (size or 8)))
        if passes is None and "passes" in space:
            passes = rng.choice(space["passes"])
    return _BUILDERS[resource](variant, domain, size, stride, config, passes)
