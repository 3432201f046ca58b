"""Static µop-cache footprint analysis of an assembled program.

This walks a :class:`~repro.isa.program.Program` region-entry by
region-entry -- exactly the granularity at which the micro-op cache is
filled -- and predicts, for a given :class:`~repro.cpu.config.CPUConfig`,
which cache set every fetch entry maps to, how many lines its packing
consumes, whether it is cacheable at all, and where the MSROM lines,
LCP stall sites and 64-bit-immediate slot inflation sit.  No simulator
object is constructed and nothing executes: the full corpus lints in
milliseconds.

The region walk itself -- where it stops and how it packs into lines --
is the simulator's own (:func:`repro.frontend.pipeline.walk_region`,
with its packing from the shared shape memo), so the analyzer and the
front end cannot disagree about a walk.  The set-index arithmetic is
*deliberately re-stated here* rather than imported from
``repro.uopcache.cache``, so the live cross-check
(:meth:`FootprintReport.fill_prediction`) still tests the cache's
mapping differentially: if it drifts, the diff catches it instead of
both sides moving together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cpu.config import CPUConfig
from repro.frontend.pipeline import walk_region
from repro.isa.instruction import BranchKind, MacroOp, UopKind
from repro.isa.program import Program
from repro.lint.crosscheck import Prediction
from repro.lint.diagnostics import Diagnostic
from repro.observe.events import DSB_FILL
from repro.uopcache.placement import LineSpec

#: Privilege levels, restated from ``repro.cpu.thread`` (kernel ring 0,
#: user ring 3) so the analyzer stays simulator-independent.
KERNEL_PRIV = 0
USER_PRIV = 3


def predicted_set(
    entry: int,
    config: CPUConfig,
    thread: int = 0,
    privilege: int = USER_PRIV,
    smt_active: bool = False,
) -> int:
    """Cache set a fetch entry address maps to, from first principles.

    Base index is ``(entry / region_bytes) mod sets``; SMT static
    sharing halves the index space per thread, and the
    privilege-partition mitigation halves it again per ring (Section
    III / Section VIII).  Mirrors -- independently -- the mapping in
    ``UopCache.set_index``.
    """
    frac = config.uop_cache_sets
    offset = 0
    if smt_active and config.uop_cache_sharing == "static":
        frac //= 2
        offset += frac * (thread & 1)
    if config.privilege_partition_uop_cache:
        frac //= 2
        offset += frac * (0 if privilege == KERNEL_PRIV else 1)
    return offset + ((entry // config.region_bytes) % frac)


@dataclass
class RegionFootprint:
    """Everything the analyzer knows about one fetch entry point.

    ``entry`` is the address fetch enters the region at (cache lines
    are tagged by entry, not by region base, so two entries into the
    same 32 bytes are two distinct footprints).  ``specs`` is the
    Section II-B line packing, ``None`` when the region cannot be
    cached.  ``successors`` are the statically resolvable next fetch
    entries; ``unresolved`` flags an exit through an indirect
    branch/return the static walk cannot follow.
    """

    entry: int
    macros: Tuple[MacroOp, ...]
    specs: Optional[List[LineSpec]]
    set_index: int
    privilege: int
    label: Optional[str] = None
    successors: Tuple[int, ...] = ()
    unresolved: bool = False
    #: Direct-branch targets with no instruction (addr_of_branch, target).
    wild_targets: Tuple[Tuple[int, int], ...] = ()

    # -- packing-derived views ----------------------------------------

    @property
    def cacheable(self) -> bool:
        """True when the region packs into the cache at all."""
        return self.specs is not None

    @property
    def n_lines(self) -> int:
        """Lines this entry's fill would install (0 if uncacheable)."""
        return len(self.specs) if self.specs else 0

    @property
    def slot_count(self) -> int:
        """Total micro-op cache slots over all lines."""
        return sum(s.slots for s in self.specs) if self.specs else 0

    @property
    def msrom_lines(self) -> int:
        """Lines consumed whole by microcoded instructions (rule 2)."""
        return sum(1 for s in self.specs if s.msrom) if self.specs else 0

    @property
    def lcp_count(self) -> int:
        """Length-changing prefixes in the walked instructions."""
        return sum(m.lcp_count for m in self.macros)

    @property
    def imm64_uops(self) -> int:
        """Micro-ops paying the two-slot 64-bit-immediate tax (rule 6)."""
        return sum(
            1 for m in self.macros for u in m.uops if u.slots > 1
        )

    @property
    def has_rdtsc(self) -> bool:
        """True when the walk contains a timestamp read."""
        return any(
            u.kind is UopKind.RDTSC for m in self.macros for u in m.uops
        )

    @property
    def terminator(self) -> MacroOp:
        """The instruction that ended the walk."""
        return self.macros[-1]

    def location(self) -> str:
        """``label@0xaddr`` rendering for diagnostics."""
        if self.label:
            return f"{self.label}@{self.entry:#x}"
        return f"{self.entry:#x}"


@dataclass
class FootprintReport:
    """The analyzer's output: one :class:`RegionFootprint` per entry.

    ``regions`` is keyed by fetch entry address.  ``thread`` and
    ``smt_active`` record the mapping context the prediction was made
    for (they change set indices under static SMT sharing).
    """

    program: Program
    config: CPUConfig
    regions: Dict[int, RegionFootprint] = field(default_factory=dict)
    thread: int = 0
    smt_active: bool = False

    def footprint_at(self, entry: int) -> Optional[RegionFootprint]:
        """Footprint for one fetch entry, if analyzed."""
        return self.regions.get(entry)

    def cacheable_regions(self) -> List[RegionFootprint]:
        """Footprints that actually enter the cache, by address."""
        return [
            fp for _, fp in sorted(self.regions.items()) if fp.cacheable
        ]

    def by_set(self) -> Dict[int, List[RegionFootprint]]:
        """Cacheable footprints grouped by predicted set index."""
        out: Dict[int, List[RegionFootprint]] = {}
        for fp in self.cacheable_regions():
            out.setdefault(fp.set_index, []).append(fp)
        return out

    def set_occupancy(self) -> Dict[int, int]:
        """Predicted lines per set if every entry were resident at once.

        This is the *demand* on each set; compare against
        ``config.uop_cache_ways`` to find guaranteed conflicts.
        """
        out: Dict[int, int] = {}
        for fp in self.cacheable_regions():
            out[fp.set_index] = out.get(fp.set_index, 0) + fp.n_lines
        return out

    def expected_fill(self, entry: int) -> Optional[Tuple[int, int]]:
        """Predicted ``(set_index, n_lines)`` of a fill at ``entry``,
        or ``None`` when the entry is unknown or uncacheable."""
        fp = self.regions.get(entry)
        if fp is None or not fp.cacheable:
            return None
        return fp.set_index, fp.n_lines

    def fill_prediction(self) -> Prediction:
        """The XC001 live prediction: every ``dsb_fill`` the simulator
        emits is keyed ``(entry, set, lines)`` and must be the fill
        :meth:`expected_fill` predicts for its entry."""
        keys = frozenset(
            (fp.entry, fp.set_index, fp.n_lines)
            for fp in self.cacheable_regions()
        )

        def describe(key, event) -> Diagnostic:
            entry, observed_set, observed_lines = key
            where = f"fill at entry {entry:#x} (cycle {event.cycle})"
            predicted = self.expected_fill(entry)
            if predicted is None:
                text = f"{where} was not predicted at all"
            else:
                text = (
                    f"{where}: observed set {observed_set} "
                    f"x{observed_lines} line(s), predicted set "
                    f"{predicted[0]} x{predicted[1]}"
                )
            return Diagnostic("XC001", text, addr=entry)

        return Prediction(
            "XC001", (DSB_FILL,),
            lambda e: (int(e.get("entry")), int(e.get("set")),
                       int(e.get("lines"))),
            keys, describe, unit_of=lambda key: key[0],
        )

    def unresolved_exits(self) -> List[RegionFootprint]:
        """Footprints whose control flow leaves the static walk."""
        return [
            fp for _, fp in sorted(self.regions.items()) if fp.unresolved
        ]

    def wild_branches(self) -> List[Tuple[int, int]]:
        """All (branch addr, target) pairs pointing at no instruction."""
        out = []
        for _, fp in sorted(self.regions.items()):
            out.extend(fp.wild_targets)
        return out


def _label_map(program: Program) -> Dict[int, str]:
    """addr -> label for code labels (first label wins per address)."""
    out: Dict[int, str] = {}
    for name, addr in sorted(program.labels.items()):
        out.setdefault(addr, name)
    return out


def _nearest_label(
    entry: int, labels: Dict[int, str], ordered: List[int]
) -> Optional[str]:
    """Exact-match label, else the closest preceding one (as ``lbl+off``)."""
    if entry in labels:
        return labels[entry]
    best = None
    for addr in ordered:
        if addr > entry:
            break
        best = addr
    if best is None:
        return None
    return f"{labels[best]}+{entry - best:#x}"


def _successors(
    program: Program, macros: Tuple[MacroOp, ...]
) -> Tuple[List[int], List[Tuple[int, int]], bool]:
    """Statically resolvable next fetch entries of one walk.

    Returns ``(successors, wild_targets, unresolved)``.  Successor
    discovery mirrors next-fetch-address selection: taken JCC targets
    anywhere in the walk, the terminator's transfer target, and the
    sequential fall-through where the simulator would continue fetch.
    """
    succ: List[int] = []
    wild: List[Tuple[int, int]] = []
    unresolved = False

    def add(addr: Optional[int], branch_addr: Optional[int] = None) -> None:
        if addr is None:
            return
        if program.has_code(addr):
            if addr not in succ:
                succ.append(addr)
        elif branch_addr is not None:
            wild.append((branch_addr, addr))

    last = macros[-1]
    for macro in macros:
        if macro.branch_kind is BranchKind.JCC:
            add(macro.target, macro.addr)  # taken edge

    kind = last.branch_kind
    if kind in (BranchKind.JMP, BranchKind.CALL):
        add(last.target, last.addr)
        if kind is BranchKind.CALL:
            add(last.end)  # return site, reached through RET
    elif kind in (BranchKind.JMP_IND, BranchKind.CALL_IND, BranchKind.RET):
        unresolved = True
        if kind is BranchKind.CALL_IND:
            add(last.end)
    elif kind is BranchKind.SYSCALL:
        add(program.labels.get("kernel_entry"), last.addr)
        add(last.end)  # SYSRET pops the link back here
    elif kind is BranchKind.SYSRET:
        pass  # return target comes off the kernel link stack
    elif any(u.kind is UopKind.HALT for u in last.uops):
        pass  # thread stops
    else:
        # Serialising CPUID and plain region-boundary fall-through both
        # resume fetch at the next instruction.
        add(last.end)
    return succ, wild, unresolved


def analyze(
    program: Program,
    config: CPUConfig,
    entries: Optional[Iterable[int]] = None,
    thread: int = 0,
    smt_active: bool = False,
) -> FootprintReport:
    """Build the static footprint report for ``program`` on ``config``.

    Reachability is a BFS over fetch entries seeded from the program
    entry point, every code label (attack drivers enter gadget chains
    by label) and any extra ``entries``.  Each discovered entry gets a
    :class:`RegionFootprint` with its predicted set index and packing.
    """
    labels = _label_map(program)
    ordered_label_addrs = sorted(labels)

    seeds: List[int] = []
    if program.has_code(program.entry):
        seeds.append(program.entry)
    for addr in ordered_label_addrs:
        if program.has_code(addr) and addr not in seeds:
            seeds.append(addr)
    for addr in entries or ():
        if program.has_code(addr) and addr not in seeds:
            seeds.append(addr)

    report = FootprintReport(
        program=program, config=config, thread=thread, smt_active=smt_active
    )
    queue = list(seeds)
    seen: Set[int] = set(queue)
    while queue:
        entry = queue.pop(0)
        walk = walk_region(program, entry, config)
        macros = walk.macros
        if not macros:
            continue
        succ, wild, unresolved = _successors(program, macros)
        priv = (
            KERNEL_PRIV if program.is_kernel_code(entry) else USER_PRIV
        )
        report.regions[entry] = RegionFootprint(
            entry=entry,
            macros=macros,
            specs=walk.specs,
            set_index=predicted_set(
                entry, config, thread=thread, privilege=priv,
                smt_active=smt_active,
            ),
            privilege=priv,
            label=_nearest_label(entry, labels, ordered_label_addrs),
            successors=tuple(succ),
            unresolved=unresolved,
            wild_targets=tuple(wild),
        )
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return report
