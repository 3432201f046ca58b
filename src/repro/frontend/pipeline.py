"""Front-end fetch/delivery engine.

``FrontEnd.fetch_block`` advances one hardware thread's fetch stream by
one *block*: the micro-ops delivered from the current fetch address up
to the first predicted-taken branch, serialising instruction, or
32-byte region boundary.  Delivery comes either from the micro-op
cache (DSB path: up to 6 uops/cycle, no ICache access, no decode) or
from the legacy pipeline (MITE path: ICache access, 16B/cycle
predecode with LCP stalls, decoder grouping, MSROM sequencing), with
the one-cycle switch penalty charged on every DSB<->MITE transition.

Two documented simplifications (DESIGN.md):

- a region's cached content is built from the *full* region walk
  (decoding through not-taken conditional branches up to the region
  end or first unconditional jump), so cached content is independent
  of branch predictions; predictions cut the *delivery* instead;
- on a DSB hit, delivered micro-ops are re-derived from the program
  (identical by construction to the cached packing), the cached lines
  being authoritative for capacity/timing only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.thread import KERNEL_PRIV, ThreadContext, USER_PRIV
from repro.frontend.decode import decode_cost, effective_msrom, predecode_cost
from repro.isa.instruction import BranchKind, MacroOp, MicroOp, UopKind
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.observe.events import BRANCH_PREDICT, ITLB_FILL
from repro.uopcache.cache import UopCache
from repro.uopcache.placement import LineSpec, build_lines


#: Branch and micro-op kinds, bound once for the identity tests of the
#: walk and the delivery loop.
_NONE = BranchKind.NONE
_JCC = BranchKind.JCC
_JMP = BranchKind.JMP
_CALL = BranchKind.CALL
_JMP_IND = BranchKind.JMP_IND
_CALL_IND = BranchKind.CALL_IND
_RET = BranchKind.RET
_HALT = UopKind.HALT
_CPUID = UopKind.CPUID

#: Block termination kinds.
BLOCK_SEQ = "seq"  # fell through to the next region
BLOCK_TAKEN = "taken"  # predicted-taken branch redirected fetch
BLOCK_STALL = "stall_indirect"  # unpredicted indirect/ret: wait for resolve
BLOCK_HALT = "halt"  # HALT fetched
BLOCK_CPUID = "cpuid"  # serialising instruction: fetch stalls until done
BLOCK_FAULT = "fault"  # wild fetch or privilege violation


#: One delivery-plan step per macro-op of a region walk:
#: ``(macro, uops, n_uops, msrom, branch_kind, stop)``.  ``msrom`` is
#: :func:`effective_msrom` under the walk's config; ``stop`` is the
#: block kind a straight-line HALT or CPUID ends delivery with (else
#: None).  Built once per walk, so delivery reads fields instead of
#: re-deriving them per fetch.
_PlanStep = Tuple[MacroOp, Tuple[MicroOp, ...], int, bool, BranchKind, Optional[str]]


#: Result of one fetch step, a plain tuple (one is built per block):
#: ``(entry, steps, preds, n_uops, kind, next_rip, source, cycles)``.
#: ``steps`` is the delivered prefix of the region walk's plan, ``preds``
#: the front end's ``(taken, target)`` prediction or None per step.
FetchBlock = Tuple[int, tuple, list, int, str, Optional[int], str, int]


def _stop_kind(macro: MacroOp) -> Optional[str]:
    """Block kind a non-branch macro-op ends delivery with, if any."""
    if macro.branch_kind is not BranchKind.NONE:
        return None
    if any(u.kind is UopKind.HALT for u in macro.uops):
        return BLOCK_HALT
    if any(u.kind is UopKind.CPUID for u in macro.uops):
        return BLOCK_CPUID
    return None


def region_extent(program: Program, rip: int, region_bytes: int) -> Tuple[MacroOp, ...]:
    """The macro-ops a region walk from ``rip`` decodes.

    The walk is prediction-independent: it stays inside ``rip``'s
    aligned region, runs through conditional branches, and stops after
    any other control transfer or a serialising (HALT/CPUID)
    instruction.  Empty when no instruction starts at ``rip``.
    """
    macros: List[MacroOp] = []
    mask = ~(region_bytes - 1)
    region = rip & mask
    at = program.instructions.get
    addr = rip
    macro = at(addr)
    while macro is not None and addr & mask == region:
        macros.append(macro)
        kind = macro.branch_kind
        if kind is not _NONE and kind is not _JCC:
            break  # unconditional control transfer ends the walk
        for uop in macro.uops:
            if uop.kind is _HALT or uop.kind is _CPUID:
                return tuple(macros)  # so does a serialising instruction
        addr += macro.length
        macro = at(addr)
    return tuple(macros)


#: Config fields the shape-derived tables read: the packer's
#: (``build_lines``), the decoders' (``decode_cost``,
#: ``effective_msrom``) and the predecoder's (``predecode_cost``).
_config_shape = attrgetter(
    "uops_per_line",
    "max_lines_per_region",
    "msrom_threshold",
    "macro_fusion",
    "decode_style",
    "max_decode_uops_per_cycle",
    "msrom_min_cycles",
    "msrom_uops_per_cycle",
    "fetch_bytes_per_cycle",
    "lcp_penalty",
)
_macro_shape = attrgetter("length", "lcp_count", "branch_kind", "msrom", "cacheable")
_uop_shape = attrgetter("kind", "slots", "sets_flags")


@dataclass(slots=True, frozen=True)
class _WalkShape:
    """Everything a region walk derives from its instructions' *shape*.

    Placement (Section II-B) and the decode model (Section II-A) read
    only lengths, LCPs, micro-op kinds and slots, MSROM and branch
    kinds -- never an address -- so programs that emit the same
    instructions at different addresses share one shape.  ``lines``
    is the micro-op cache packing as ``(first uop, end uop, slots,
    msrom)`` over the walk's micro-ops in fetch order (None: not
    cacheable); ``steps`` holds ``(n_uops, effective msrom, stop kind)``
    per macro-op; ``decisions``, ``src_uops``, ``msrom_uops`` and
    ``mite_cycles`` are :class:`_RegionWalk`'s tables.  Immutable but
    for ``mite_cycles``, whose prefix costs are filled on first use
    (idempotently: any walk of this shape computes the same value).
    """

    lines: Optional[Tuple[Tuple[int, int, int, bool], ...]]
    steps: Tuple[Tuple[int, bool, Optional[str]], ...]
    decisions: Tuple[int, ...]
    src_uops: Tuple[int, ...]
    msrom_uops: Tuple[int, ...]
    mite_cycles: List[Optional[int]]


#: Bound on the process-wide shape memo, in entries (oldest first out).
#: The Figure 3-7 fast grid needs 20 shapes; adding the fast attack
#: evaluation and the lint corpus brings the process to 130.
SHAPE_MEMO_MAX = 4096

#: Shape key -> :class:`_WalkShape`, shared by every front end (and the
#: static analyzer) in the process.  Lookups need no lock; inserts and
#: evictions take ``_SHAPE_LOCK``.
_SHAPES: Dict[tuple, _WalkShape] = {}
_SHAPE_LOCK = threading.Lock()


def _derive_shape(macros: Sequence[MacroOp], config: CPUConfig) -> _WalkShape:
    """The shape tables of one walk, computed from its macro-ops."""
    specs = None
    if macros:
        specs = build_lines(
            macros,
            uops_per_line=config.uops_per_line,
            max_lines_per_region=config.max_lines_per_region,
        )
    lines = None
    if specs is not None:
        bounds = list(accumulate((len(spec.uops) for spec in specs), initial=0))
        lines = tuple(
            (start, end, spec.slots, spec.msrom)
            for start, end, spec in zip(bounds, bounds[1:], specs)
        )
    steps = tuple(
        (len(m.uops), effective_msrom(m, config), _stop_kind(m)) for m in macros
    )
    return _WalkShape(
        lines=lines,
        steps=steps,
        decisions=tuple(
            i for i, (m, step) in enumerate(zip(macros, steps))
            if m.branch_kind is not _NONE or step[2] is not None
        ),
        src_uops=tuple(accumulate((0 if m else n for n, m, _ in steps), initial=0)),
        msrom_uops=tuple(accumulate((n if m else 0 for n, m, _ in steps), initial=0)),
        mite_cycles=[None] * (len(macros) + 1),
    )


def _shape(key: tuple, macros: Sequence[MacroOp], config: CPUConfig) -> _WalkShape:
    """The memo's shape for ``key``, derived from ``macros`` on a miss."""
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _derive_shape(macros, config)
        with _SHAPE_LOCK:
            shape = _SHAPES.setdefault(key, shape)
            while len(_SHAPES) > SHAPE_MEMO_MAX:
                del _SHAPES[next(iter(_SHAPES))]
    return shape


@dataclass(slots=True)
class _RegionWalk:
    """Prediction-independent decode of one region entry of one program.

    ``macros`` are this program's instructions from the entry to the
    walk's end, ``plan`` their delivery steps (one :data:`_PlanStep`
    per macro-op) and ``specs`` their micro-op cache packing, the
    lines holding this program's micro-ops (None: not cacheable).
    The remaining tables are the shared :class:`_WalkShape`'s:
    ``decisions`` (indices of the steps that are branches or stop
    delivery: the only ones delivery has to look at), the prefix
    micro-op counts ``src_uops`` / ``msrom_uops`` (non-MSROM and MSROM
    micro-ops of the first ``k`` steps at index ``k``) and
    ``mite_cycles``: the MITE cost of delivering the first ``k``
    macro-ops at index ``k``, filled on first use.  Predictions only
    ever cut delivery to a prefix of the walk, so these are all the
    costs a block at this entry can need.
    """

    macros: Tuple[MacroOp, ...]
    specs: Optional[List[LineSpec]]  # None => not cacheable
    plan: Tuple[_PlanStep, ...]
    decisions: Tuple[int, ...]
    src_uops: Tuple[int, ...]
    msrom_uops: Tuple[int, ...]
    mite_cycles: List[Optional[int]]

    def prefix_cycles(self, k: int, config: CPUConfig) -> int:
        """Predecode plus decode cycles of the first ``k`` macro-ops
        (before SMT decoder sharing), memoized."""
        cycles = self.mite_cycles[k]
        if cycles is None:
            prefix = self.macros[:k]
            cycles = (
                predecode_cost(
                    sum(m.length for m in prefix),
                    sum(m.lcp_count for m in prefix),
                    config,
                )
                + decode_cost(prefix, config).cycles
            )
            self.mite_cycles[k] = cycles
        return cycles


def walk_region(program: Program, rip: int, config: CPUConfig) -> _RegionWalk:
    """Walk ``program``'s region entry at ``rip`` under ``config``.

    The extent, the plan and the line packing bind this program's
    macro- and micro-ops; everything derived from the walk's shape
    comes from the shared memo.
    """
    macros = region_extent(program, rip, config.region_bytes)
    # The shape key: the config fields the tables read, then per
    # macro-op every field they read of it and of its micro-ops.
    key = [_config_shape(config)]
    uops: List[MicroOp] = []
    for m in macros:
        uops += m.uops
        key.append((_macro_shape(m), tuple(map(_uop_shape, m.uops))))
    shape = _shape(tuple(key), macros, config)
    specs = None
    if shape.lines is not None:
        specs = [
            LineSpec(tuple(uops[start:end]), slots, msrom)
            for start, end, slots, msrom in shape.lines
        ]
    return _RegionWalk(
        macros=macros,
        specs=specs,
        plan=tuple(
            (m, m.uops, n, msrom, m.branch_kind, stop)
            for m, (n, msrom, stop) in zip(macros, shape.steps)
        ),
        decisions=shape.decisions,
        src_uops=shape.src_uops,
        msrom_uops=shape.msrom_uops,
        mite_cycles=shape.mite_cycles,
    )


class FrontEnd:
    """Fetch and decode engine shared by all threads of a core."""

    __slots__ = (
        "config",
        "program",
        "uop_cache",
        "hierarchy",
        "_walks",
        "smt_active",
        "observer",
    )

    def __init__(
        self,
        config: CPUConfig,
        program: Program,
        uop_cache: UopCache,
        hierarchy: MemoryHierarchy,
    ):
        self.config = config
        self.program = program
        self.uop_cache = uop_cache
        self.hierarchy = hierarchy
        self._walks: Dict[int, _RegionWalk] = {}
        self.smt_active = False
        #: Observability bus (set by ``Core.observe()``, None = no hooks).
        self.observer = None

    # ------------------------------------------------------------------

    def _walk_region(self, rip: int) -> _RegionWalk:
        """The region walk at ``rip`` (see :func:`walk_region`),
        memoized per entry for the life of this front end.  The first
        walk over a micro-op fills its scoreboard tables
        (:meth:`MicroOp.prepare`) for the backend."""
        walk = self._walks.get(rip)
        if walk is None:
            walk = self._walks[rip] = walk_region(self.program, rip, self.config)
            for macro in walk.macros:
                for uop in macro.uops:
                    if uop.read_regs is None:
                        uop.prepare()
        return walk

    # ------------------------------------------------------------------

    def fetch_block(self, thread: ThreadContext) -> FetchBlock:
        """Fetch/deliver one block for ``thread`` and charge its clock."""
        config = self.config
        entry = thread.fetch_rip
        counters = thread.counters
        counters.fetch_blocks += 1

        walk = self._walk_region(entry)
        if not walk.macros or (
            thread.fetch_priv != KERNEL_PRIV and self.program.is_kernel_code(entry)
        ):
            return entry, (), [], 0, BLOCK_FAULT, None, "none", 0

        # --- DSB lookup -------------------------------------------------
        hit_lines = None
        if config.uop_cache_enabled:
            hit_lines = self.uop_cache.lookup(
                thread.thread_id, entry, thread.fetch_priv
            )
            if hit_lines is not None:
                counters.dsb_hits += 1
            else:
                counters.dsb_misses += 1
        source = "dsb" if hit_lines is not None else "mite"

        # --- delivery with prediction cuts ------------------------------
        # (hot path: only the walk's decision points -- branches and
        # serialising stops -- can cut delivery, so they are the only
        # steps visited; everything before a cut is delivered whole)
        plan = walk.plan
        preds: list = [None] * len(plan)
        kind = BLOCK_SEQ
        next_rip: Optional[int] = None
        predictor = thread.predictor
        for i in walk.decisions:
            macro, _, _, _, bkind, stop = plan[i]
            if bkind is _NONE:
                kind = stop  # HALT or serialising CPUID
                next_rip = macro.end
            elif bkind is _JCC:
                pred = preds[i] = predictor.predict(macro)
                counters.branches += 1
                if not pred[0]:
                    continue
                kind = BLOCK_TAKEN
                next_rip = pred[1]
            elif bkind is _JMP or bkind is _CALL:
                preds[i] = predictor.predict(macro)
                counters.branches += 1
                kind = BLOCK_TAKEN
                next_rip = macro.target
            elif bkind is _JMP_IND or bkind is _CALL_IND or bkind is _RET:
                pred = preds[i] = predictor.predict(macro)
                counters.branches += 1
                if pred[1] is None:
                    kind = BLOCK_STALL
                else:
                    kind = BLOCK_TAKEN
                    next_rip = pred[1]
            elif bkind is BranchKind.SYSCALL:
                kernel_entry = self.program.labels.get("kernel_entry")
                if kernel_entry is None:
                    kind = BLOCK_FAULT
                else:
                    thread.kernel_link.append(macro.end)
                    thread.fetch_priv = KERNEL_PRIV
                    counters.syscalls += 1
                    kind = BLOCK_TAKEN
                    next_rip = kernel_entry
                    if config.flush_uop_cache_on_domain_crossing:
                        self.uop_cache.flush()
            elif bkind is BranchKind.SYSRET:
                if not thread.kernel_link:
                    kind = BLOCK_FAULT
                else:
                    thread.fetch_priv = USER_PRIV
                    kind = BLOCK_TAKEN
                    next_rip = thread.kernel_link.pop()
                    if config.flush_uop_cache_on_domain_crossing:
                        self.uop_cache.flush()
            n_delivered_macros = i + 1
            break
        else:
            n_delivered_macros = len(plan)
            next_rip = walk.macros[-1].end  # sequential fall-through
        steps = plan[:n_delivered_macros]
        del preds[n_delivered_macros:]
        n_source = walk.src_uops[n_delivered_macros]
        n_msrom = walk.msrom_uops[n_delivered_macros]

        # --- timing and counters ----------------------------------------
        switch = thread.last_source not in (source, "none")
        cycles = config.dsb_mite_switch_penalty if switch else 0
        if switch:
            counters.dsb_switches += 1

        n_delivered = n_source + n_msrom
        if source == "dsb":
            cycles += -(-n_delivered // config.dsb_uops_per_cycle)
            counters.uops_dsb += n_source
        else:
            hierarchy = self.hierarchy
            itlb_misses_before = hierarchy.itlb.misses
            access = hierarchy.access_inst(entry)
            if access.level != "L1":
                counters.icache_misses += 1
            itlb_missed = hierarchy.itlb.misses - itlb_misses_before
            counters.itlb_misses += itlb_missed
            if itlb_missed:
                obs = self.observer
                if obs is not None and obs.wants(ITLB_FILL):
                    obs.emit(
                        ITLB_FILL,
                        thread.fetch_clock,
                        thread.thread_id,
                        entry=entry,
                        page=hierarchy.itlb.page_of(entry),
                    )
            extra = max(0, access.latency - hierarchy.l1i.latency)
            mite_cycles = walk.prefix_cycles(n_delivered_macros, config)
            if self.smt_active and config.smt_decode_shared:
                mite_cycles *= 2
            penalty = mite_cycles + extra + (
                config.dsb_mite_switch_penalty if switch else 0
            )
            counters.dsb_miss_penalty_cycles += penalty
            counters.macro_ops_decoded += n_delivered_macros
            counters.uops_mite += n_source
            cycles += mite_cycles + extra
            # Fill the micro-op cache with the full region packing.
            if config.uop_cache_enabled and walk.specs is not None:
                self.uop_cache.fill(
                    thread.thread_id, entry, walk.specs, thread.fetch_priv
                )

        counters.uops_msrom += n_msrom

        thread.last_source = source
        thread.fetch_clock += max(cycles, 1)

        obs = self.observer
        if obs is not None and obs.wants(BRANCH_PREDICT):
            for step, pred in zip(steps, preds):
                if pred is None:
                    continue
                obs.emit(
                    BRANCH_PREDICT,
                    thread.fetch_clock,
                    thread.thread_id,
                    rip=step[0].addr,
                    taken=pred[0],
                    target=pred[1],
                )

        return entry, steps, preds, n_delivered, kind, next_rip, source, cycles
