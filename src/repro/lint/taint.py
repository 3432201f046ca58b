"""Secret-flow taint analysis: static leakage prediction and capacity
bounds over the µop-cache, iTLB and store-buffer footprints.

The footprint analyzer (:mod:`repro.lint.footprint`) predicts *what*
a program occupies; this module predicts *which of that occupancy is
secret-dependent*.  A driver declares its secrets as
:class:`SecretClaim` objects -- a register live at an entry label, a
data label holding secret bytes, or a set of alternative entry labels
the secret selects between -- and the analysis answers with a
:class:`LeakReport`: the fetch regions whose presence in the µop
cache depends on the secret, the DSB sets / iTLB pages / store sites
they map to, and a static channel-capacity upper bound (log2 of the
distinguishable occupancy states) usable directly as a synthesis
fitness scalar.

The dataflow is a classic forward taint lattice over the region graph
the footprint walk already built:

- **explicit flow** propagates through :meth:`MicroOp.reads` /
  :meth:`MicroOp.writes` (flags are a pseudo-register, so
  ``TEST r8, r8; JCC`` carries taint into the branch);
- **constant tracking** (``MOV_IMM`` plus add/sub arithmetic) resolves
  statically-computable load/store addresses so reads of a declared
  secret *data label* seed taint, and taint stored to a known address
  forwards to later loads of it;
- **implicit flow** comes from post-dominators over the
  intraprocedural region graph: every region on a path from a
  secret-tainted branch to (beyond) its post-dominator frontier is
  fetched -- or not -- depending on the secret, so its fills are
  secret-dependent.  Callees invoked under tainted control (and
  targets of secret-indexed indirect transfers) taint transitively.

Everything over-approximates: the differential XC004 mode
(:meth:`TaintReport.prediction` run through
:func:`repro.lint.crosscheck.live_check`) runs a target once per secret
and asserts the live divergent ``dsb_fill``/``itlb_fill``/``sb_drain``
events are a **subset** of this module's prediction, which keeps the
analysis honest in the sound direction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.isa.instruction import BranchKind, UopKind
from repro.lint.crosscheck import Prediction
from repro.lint.diagnostics import (
    MAX_DIVERGENCE_DIAGNOSTICS,
    Diagnostic,
    Severity,
)
from repro.lint.footprint import FootprintReport, RegionFootprint
from repro.observe.events import DSB_FILL, ITLB_FILL, SB_DRAIN

#: Page size for the iTLB footprint view (mirrors
#: ``repro.lint.resources.PAGE_SIZE`` without importing the module).
PAGE_SIZE = 4096

#: Resources a claim can declare leakage into.
RESOURCES = ("dsb", "itlb", "sb")

#: Live event kind -> (resource, payload field keying the event), for
#: the XC004 prediction.
_EVENT_KEYS = {
    DSB_FILL: ("dsb", "entry"),
    ITLB_FILL: ("itlb", "page"),
    SB_DRAIN: ("sb", "pc"),
}

#: Fixed-point iteration bound for the dataflow (region graphs are a
#: few hundred nodes; this is a runaway backstop, not a tuning knob).
MAX_ITERATIONS = 64

#: Cap on the exponent when counting distinguishable control states,
#: so the capacity bound stays finite arithmetic.
MAX_CONTROL_BITS = 64


@dataclass(frozen=True)
class SecretClaim:
    """A driver's declaration of where its secret lives.

    Exactly one source shape applies:

    - ``register`` -- the named register holds the secret when
      execution enters ``entry`` (keyextract's exponent in ``r7``);
    - ``label`` -- the data reservation ``[label, label+size)`` holds
      secret bytes (the transient drivers' ``secret`` arrays);
    - ``entries`` -- the secret selects *which* of the alternative
      entry labels runs (covert/SMT channels calling ``send_one`` vs
      ``send_zero``).  ``entry`` is ignored for this shape.

    ``indirect_targets`` lists the possible landing labels of
    secret-indexed indirect transfers (a jump-table dispatcher);
    without it a tainted indirect branch conservatively taints every
    analyzed region.  ``leaks_to`` declares which resources the
    secret is expected to reach (verified as TA005);
    ``constant_time`` asserts the opposite -- that taint must *never*
    reach control flow or an address (verified as TA004).
    """

    name: str
    entry: str = ""
    register: Optional[str] = None
    label: Optional[str] = None
    size: int = 8
    entries: Tuple[str, ...] = ()
    indirect_targets: Tuple[str, ...] = ()
    leaks_to: Tuple[str, ...] = ("dsb", "itlb")
    constant_time: bool = False

    def __post_init__(self) -> None:
        for res in self.leaks_to:
            if res not in RESOURCES:
                raise ValueError(
                    f"unknown leak resource {res!r}; choose from "
                    f"{RESOURCES}"
                )
        if not self.entries and not self.entry:
            raise ValueError(
                f"claim {self.name!r} needs an entry label (or "
                f"alternative entries)"
            )


# ----------------------------------------------------------------------
# abstract values

#: Lattice: TAINT > CONST(v) / UNKNOWN.  ``None`` in the state map
#: means "untainted, value unknown" (the implicit bottom).
_TAINT = ("taint",)


def _const(value: int) -> Tuple[str, int]:
    return ("const", value)


def _is_taint(v: object) -> bool:
    return v is _TAINT


def _const_of(v: object) -> Optional[int]:
    if isinstance(v, tuple) and v[0] == "const":
        return v[1]
    return None


def _join_value(a: object, b: object) -> object:
    if _is_taint(a) or _is_taint(b):
        return _TAINT
    if a == b:
        return a
    return None


@dataclass
class _State:
    """Abstract machine state at one program point.

    ``regs`` maps register name -> abstract value (absent = untainted
    unknown).  ``mem`` maps *statically known* tainted byte intervals
    (start, end).  ``wild_store`` records that tainted data was stored
    through an unresolvable address, after which any unresolvable load
    must be assumed tainted (sound memory summary).
    """

    regs: Dict[str, object] = field(default_factory=dict)
    mem: FrozenSet[Tuple[int, int]] = frozenset()
    wild_store: bool = False

    def copy(self) -> "_State":
        return _State(dict(self.regs), self.mem, self.wild_store)

    def join(self, other: "_State") -> "_State":
        regs: Dict[str, object] = {}
        for key in set(self.regs) | set(other.regs):
            v = _join_value(self.regs.get(key), other.regs.get(key))
            if v is not None:
                regs[key] = v
        return _State(
            regs, self.mem | other.mem,
            self.wild_store or other.wild_store,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _State)
            and self.regs == other.regs
            and self.mem == other.mem
            and self.wild_store == other.wild_store
        )

    def tainted(self, reg: Optional[str]) -> bool:
        return reg is not None and _is_taint(self.regs.get(reg))

    def mem_tainted(self, start: int, end: int) -> bool:
        return any(s < end and start < e for s, e in self.mem)


@dataclass
class _Analysis:
    """Mutable scratch shared by one claim's fixed-point run."""

    report: FootprintReport
    secret_mem: List[Tuple[int, int]]
    #: branch macro addr -> region entry, for tainted conditionals
    tainted_branches: Dict[int, int] = field(default_factory=dict)
    #: indirect transfers (macro addr) with a tainted target register
    tainted_indirect: Dict[int, int] = field(default_factory=dict)
    #: (macro addr, "load"/"store") with a secret-derived address
    tainted_memops: List[Tuple[int, str]] = field(default_factory=list)
    #: store sites (macro addr) writing secret-derived data
    tainted_stores: Set[int] = field(default_factory=set)
    #: regions whose *values* are implicitly tainted (control dep)
    implicit_regions: Set[int] = field(default_factory=set)


def _address_of(state: _State, uop) -> Optional[int]:
    """Statically resolved effective address, if computable."""
    base = 0
    if uop.base is not None:
        base_v = _const_of(state.regs.get(uop.base))
        if base_v is None:
            return None
        base = base_v
    index = 0
    if uop.index is not None:
        index_v = _const_of(state.regs.get(uop.index))
        if index_v is None:
            return None
        index = index_v * (uop.scale or 1)
    return base + index + (uop.disp or 0)


def _address_tainted(state: _State, uop) -> bool:
    return state.tainted(uop.base) or state.tainted(uop.index)


def _transfer_uop(
    uop, state: _State, ana: _Analysis, region_entry: int,
    implicit: bool,
) -> None:
    """Apply one micro-op to the abstract state, in place."""
    kind = uop.kind
    srcs_tainted = any(state.tainted(r) for r in uop.reads())

    if kind is UopKind.LOAD:
        addr = _address_of(state, uop)
        addr_tainted = _address_tainted(state, uop)
        if addr_tainted:
            ana.tainted_memops.append((uop.macro_addr, "load"))
        value_tainted = addr_tainted or implicit
        if addr is not None:
            end = addr + (uop.mem_size or 8)
            if any(
                addr < se and ss < end for ss, se in ana.secret_mem
            ) or state.mem_tainted(addr, end):
                value_tainted = True
        elif ana.secret_mem or state.wild_store:
            # A load whose address the analysis cannot resolve may
            # reach the declared secret bytes (the Spectre bounds
            # bypass is exactly an attacker-indexed load walking past
            # an array into the secret), so over-approximate.
            value_tainted = True
        if uop.dst:
            if value_tainted:
                state.regs[uop.dst] = _TAINT
            else:
                state.regs.pop(uop.dst, None)
        if value_tainted and uop.sets_flags:
            state.regs["flags"] = _TAINT
        return

    if kind is UopKind.STORE:
        addr = _address_of(state, uop)
        addr_tainted = _address_tainted(state, uop)
        if addr_tainted:
            ana.tainted_memops.append((uop.macro_addr, "store"))
        data_tainted = srcs_tainted or implicit
        if data_tainted or addr_tainted:
            ana.tainted_stores.add(uop.macro_addr)
        if data_tainted:
            if addr is not None:
                state.mem = state.mem | {
                    (addr, addr + (uop.mem_size or 8))
                }
            else:
                state.wild_store = True
        return

    if kind in (UopKind.JMP_IND, UopKind.CALL_IND):
        if srcs_tainted:
            ana.tainted_indirect[uop.macro_addr] = region_entry
        return

    if kind is UopKind.JCC:
        if srcs_tainted:
            ana.tainted_branches[uop.macro_addr] = region_entry
        return

    # plain register-to-register dataflow
    if uop.dst:
        if srcs_tainted or implicit:
            state.regs[uop.dst] = _TAINT
        elif kind is UopKind.MOV_IMM and uop.imm is not None:
            state.regs[uop.dst] = _const(uop.imm)
        elif kind is UopKind.MOV and uop.srcs:
            state.regs[uop.dst] = state.regs.get(uop.srcs[0])
            if state.regs[uop.dst] is None:
                state.regs.pop(uop.dst, None)
        elif kind in (UopKind.ALU, UopKind.ALU_IMM, UopKind.LEA):
            state.regs[uop.dst] = _const_arith(state, uop)
            if state.regs[uop.dst] is None:
                state.regs.pop(uop.dst, None)
        else:
            state.regs.pop(uop.dst, None)
    if uop.sets_flags:
        if srcs_tainted or implicit:
            state.regs["flags"] = _TAINT
        else:
            state.regs.pop("flags", None)


def _const_arith(state: _State, uop) -> Optional[object]:
    """Constant folding for the address-forming subset (add/sub/lea)."""
    if uop.kind is UopKind.LEA:
        addr = _address_of(state, uop)
        return None if addr is None else _const(addr)
    op = uop.alu_op
    if op not in ("add", "sub"):
        return None
    if uop.kind is UopKind.ALU_IMM:
        left_reg = uop.srcs[0] if uop.srcs else uop.dst
        left = _const_of(state.regs.get(left_reg))
        right = uop.imm
    else:
        if len(uop.srcs) < 2:
            return None
        left = _const_of(state.regs.get(uop.srcs[0]))
        right = _const_of(state.regs.get(uop.srcs[1]))
    if left is None or right is None:
        return None
    return _const(left + right if op == "add" else left - right)


# ----------------------------------------------------------------------
# region graph helpers


def _call_target(fp: RegionFootprint) -> Optional[int]:
    """Direct-call target of the region's terminator, if any."""
    term = fp.terminator
    if term.branch_kind is BranchKind.CALL and term.target is not None:
        return term.target
    return None


def _flow_successors(
    report: FootprintReport, entry: int
) -> Tuple[int, ...]:
    """Intraprocedural successors: drop the call-target edge (the
    callee is summarized separately) and keep the return-site edge."""
    fp = report.regions.get(entry)
    if fp is None:
        return ()
    target = _call_target(fp)
    if target is None:
        return fp.successors
    return tuple(s for s in fp.successors if s != target)


def _reachable(
    report: FootprintReport, seeds: Sequence[int],
    intraprocedural: bool = False,
) -> Set[int]:
    """Region entries reachable from ``seeds`` over the region graph."""
    seen: Set[int] = set()
    queue = [s for s in seeds if s in report.regions]
    while queue:
        cur = queue.pop()
        if cur in seen:
            continue
        seen.add(cur)
        succ = (
            _flow_successors(report, cur)
            if intraprocedural
            else report.regions[cur].successors
        )
        queue.extend(s for s in succ if s in report.regions)
    return seen


_EXIT = -1  # virtual exit node of the post-dominator graph


def _exits_graph(fp: RegionFootprint) -> bool:
    """True when some path through the region leaves the analyzed
    graph: HALT stops the thread, RET and unresolved indirect flow
    are only followed dynamically.  Such a region keeps an implicit
    edge to the virtual exit even when internal taken-JCC edges give
    it listed successors -- otherwise a lone branch target would
    appear to post-dominate a region the thread can simply stop in."""
    term = fp.terminator
    if any(u.kind is UopKind.HALT for u in term.uops):
        return True
    return term.branch_kind is BranchKind.RET or fp.unresolved


def _flow_graph(
    report: FootprintReport, nodes: Set[int]
) -> Dict[int, Tuple[int, ...]]:
    """The intraprocedural region graph restricted to ``nodes``, as a
    successor map in which the virtual ``_EXIT`` absorbs every
    graph-leaving edge (RET, HALT, unresolved indirect flow) and
    follows every region with no successor left."""
    succ: Dict[int, Tuple[int, ...]] = {}
    for n in nodes:
        out = tuple(
            s for s in _flow_successors(report, n) if s in nodes
        )
        if not out or _exits_graph(report.regions[n]):
            out += (_EXIT,)
        succ[n] = out
    return succ


def _post_dominators(
    succ: Mapping[int, Sequence[int]]
) -> Dict[int, AbstractSet[int]]:
    """``node -> set of nodes post-dominating it`` in a successor map
    whose sink is ``_EXIT`` (every other node is a key).

    Immediate post-dominators are the dominators of the reversed graph
    rooted at ``_EXIT`` (Cooper, Harvey and Kennedy, "A Simple, Fast
    Dominance Algorithm"): nodes in reverse postorder, each one's
    ipdom the intersection of its successors' ipdom chains, repeated
    until nothing changes.  A node's set is its chain up to ``_EXIT``.
    A node with no path to ``_EXIT`` keeps the full node set, as in the
    greatest fixed point of the set equations: a tainted branch inside
    a runaway loop influences no region of the flow graph.
    """
    preds: Dict[int, List[int]] = {n: [] for n in succ}
    preds[_EXIT] = []
    for n, out in succ.items():
        for s in out:
            preds[s].append(n)

    # postorder of a depth-first walk of the reversed graph from _EXIT;
    # nodes that cannot reach _EXIT are never visited
    postorder: List[int] = []
    seen = {_EXIT}
    stack = [(_EXIT, iter(preds[_EXIT]))]
    while stack:
        node, rest = stack[-1]
        for p in rest:
            if p not in seen:
                seen.add(p)
                stack.append((p, iter(preds[p])))
                break
        else:
            stack.pop()
            postorder.append(node)
    rank = {n: i for i, n in enumerate(postorder)}

    ipdom = {_EXIT: _EXIT}
    order = postorder[-2::-1]  # reverse postorder without _EXIT
    changed = True
    while changed:
        changed = False
        for n in order:
            new = None
            for s in succ[n]:
                if s == n or s not in ipdom:
                    continue
                if new is None:
                    new = s
                    continue
                a = s
                while a != new:
                    while rank[a] < rank[new]:
                        a = ipdom[a]
                    while rank[new] < rank[a]:
                        new = ipdom[new]
            if ipdom.get(n) != new:
                ipdom[n] = new
                changed = True

    pdom: Dict[int, AbstractSet[int]] = {_EXIT: {_EXIT}}
    for n in order:  # an ipdom precedes its nodes in reverse postorder
        pdom[n] = pdom[ipdom[n]] | {n}
    everything = frozenset(succ) | {_EXIT}
    for n in succ:
        if n not in pdom:
            pdom[n] = everything
    return pdom


def _influence(
    report: FootprintReport, branch_region: int,
    pdom: Mapping[int, AbstractSet[int]],
) -> Set[int]:
    """Regions whose fetch depends on the branch's outcome: reachable
    from the branch's successors over the *full* graph (call targets
    included -- a conditionally-reached CALL conditionally fetches its
    callee) minus the regions that post-dominate the branch, which are
    fetched either way.  An over-approximation of control dependence,
    sound for XC004."""
    fp = report.regions.get(branch_region)
    if fp is None:
        return set()
    reach = _reachable(report, fp.successors)
    reach.discard(branch_region)
    post = pdom.get(branch_region, ())
    return {r for r in reach if r not in post}


# ----------------------------------------------------------------------
# leak reports


@dataclass
class LeakReport:
    """Per-claim result: the secret-dependent footprint.

    ``regions`` holds the fetch entries whose *presence* in the cache
    depends on the secret; the per-resource views project them onto
    DSB sets, instruction pages and store sites.  ``capacity_bits``
    bounds the channel: the observer distinguishes at most
    ``2**capacity_bits`` occupancy states, capped both by how many
    control decisions the secret feeds (alternatives) and by how many
    binary observables it modulates.
    """

    claim: SecretClaim
    regions: FrozenSet[int] = frozenset()
    dsb_sets: FrozenSet[int] = frozenset()
    itlb_pages: FrozenSet[int] = frozenset()
    store_sites: FrozenSet[int] = frozenset()
    tainted_branches: Tuple[int, ...] = ()
    tainted_memops: Tuple[Tuple[int, str], ...] = ()
    tainted_indirect: Tuple[int, ...] = ()
    dead_regions: FrozenSet[int] = frozenset()

    @property
    def observable_bits(self) -> int:
        """Binary occupancy observables the secret modulates."""
        return (
            len(self.dsb_sets) + len(self.itlb_pages)
            + len(self.store_sites)
        )

    @property
    def control_bits(self) -> float:
        """log2 of the distinguishable control outcomes."""
        alternatives = max(1, len(self.claim.entries))
        branch_bits = min(len(self.tainted_branches), MAX_CONTROL_BITS)
        # A tainted indirect transfer distinguishes as many outcomes
        # as it has landing sites (the jump-table multi-bit trick);
        # without declared targets assume the minimum of two.
        fanout = max(2, len(self.claim.indirect_targets))
        indirect_bits = min(
            len(self.tainted_indirect) * math.log2(fanout),
            float(MAX_CONTROL_BITS),
        )
        return branch_bits + indirect_bits + math.log2(alternatives)

    @property
    def capacity_bits(self) -> float:
        """Static channel-capacity upper bound, in bits."""
        return min(self.control_bits, float(self.observable_bits))

    def inferred_resources(self) -> Tuple[str, ...]:
        """Resources the analysis found secret-dependent state in."""
        out = []
        if self.dsb_sets:
            out.append("dsb")
        if self.itlb_pages:
            out.append("itlb")
        if self.store_sites:
            out.append("sb")
        return tuple(out)

    def as_dict(self) -> Dict[str, object]:
        return {
            "claim": self.claim.name,
            "regions": sorted(self.regions),
            "dsb_sets": sorted(self.dsb_sets),
            "itlb_pages": sorted(self.itlb_pages),
            "store_sites": sorted(self.store_sites),
            "tainted_branches": sorted(self.tainted_branches),
            "tainted_indirect": sorted(self.tainted_indirect),
            "dead_regions": sorted(self.dead_regions),
            "capacity_bits": round(self.capacity_bits, 3),
        }


@dataclass
class TaintReport:
    """All claims' leak reports plus the TA diagnostics."""

    leaks: List[LeakReport] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def regions(self) -> FrozenSet[int]:
        """Union of secret-dependent fetch entries over all claims."""
        out: Set[int] = set()
        for leak in self.leaks:
            out |= leak.regions
        return frozenset(out)

    @property
    def itlb_pages(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for leak in self.leaks:
            out |= leak.itlb_pages
        return frozenset(out)

    @property
    def store_sites(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for leak in self.leaks:
            out |= leak.store_sites
        return frozenset(out)

    @property
    def capacity_bits(self) -> float:
        """Synthesis fitness scalar: total static capacity bound."""
        return sum(leak.capacity_bits for leak in self.leaks)

    def as_dict(self) -> Dict[str, object]:
        return {
            "capacity_bits": round(self.capacity_bits, 3),
            "leaks": [leak.as_dict() for leak in self.leaks],
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def prediction(self) -> Prediction:
        """The XC004 live prediction, checked once per secret: every
        ``dsb_fill`` entry, ``itlb_fill`` page and ``sb_drain`` pc that
        diverges between the runs must be predicted secret-dependent.

        DSB fill entries are compared at 32-byte fetch-region
        granularity: the live front end re-enters a region mid-line (a
        loop-exit fall-through, a call's return site) at addresses the
        static walk only knows by their region, and the cache indexes
        by the aligned window either way.  A tainted branch's own
        window always executes, but the fetch resumption point inside
        it differs per outcome, so its sub-entry fill keys legitimately
        diverge too.
        """
        keys = frozenset(
            [("dsb", entry) for entry in self.regions]
            + [("itlb", page) for page in self.itlb_pages]
            + [("sb", site) for site in self.store_sites]
        )
        windows = {entry >> 5 for entry in self.regions}
        for leak in self.leaks:
            windows |= {addr >> 5 for addr in leak.tainted_branches}
            windows |= {addr >> 5 for addr in leak.tainted_indirect}

        def covers(key) -> bool:
            return key in keys or (key[0] == "dsb" and key[1] >> 5 in windows)

        def describe(key, event) -> Diagnostic:
            resource, value = key
            return Diagnostic(
                "XC004",
                f"{resource} event {value:#x} diverged between the two "
                f"secrets but is outside the static secret-dependence "
                f"prediction",
                addr=value,
            )

        return Prediction(
            "XC004", tuple(_EVENT_KEYS),
            lambda e: (_EVENT_KEYS[e.kind][0],
                       int(e.get(_EVENT_KEYS[e.kind][1]))),
            keys, describe, covers=covers, groups=RESOURCES,
        )


# ----------------------------------------------------------------------
# the analysis driver


def _region_pages(fp: RegionFootprint) -> Set[int]:
    """Instruction pages the region's fetch touches."""
    pages = set()
    for macro in fp.macros:
        pages.add(macro.addr // PAGE_SIZE)
        pages.add((macro.end - 1) // PAGE_SIZE)
    return pages


def _region_store_sites(fp: RegionFootprint) -> Set[int]:
    return {
        m.addr for m in fp.macros
        if any(u.kind is UopKind.STORE for u in m.uops)
    }


def _seed_state(claim: SecretClaim) -> _State:
    state = _State()
    if claim.register:
        state.regs[claim.register] = _TAINT
    return state


def _run_dataflow(
    report: FootprintReport,
    claim: SecretClaim,
    entry_addr: int,
    ana: _Analysis,
) -> Set[int]:
    """Fixed-point explicit+implicit taint from one entry; returns the
    set of secret-dependent fetch regions."""
    nodes = _reachable(report, [entry_addr])
    flow_nodes = _reachable(report, [entry_addr], intraprocedural=True)
    pdom = _post_dominators(_flow_graph(report, flow_nodes))
    # The graph is fixed for the call, so each tainted branch's
    # influence and each callee's closure is computed once.
    influence: Dict[int, Set[int]] = {}
    callee_reach: Dict[int, Set[int]] = {}
    landed: Optional[Set[int]] = None

    dependent: Set[int] = set()
    for _ in range(MAX_ITERATIONS):
        before = (
            len(dependent), len(ana.tainted_branches),
            len(ana.tainted_indirect), len(ana.implicit_regions),
        )
        # forward dataflow over the full reachable graph
        in_states: Dict[int, _State] = {entry_addr: _seed_state(claim)}
        worklist = deque([entry_addr])
        queued = {entry_addr}
        visits: Dict[int, int] = {}
        while worklist:
            cur = worklist.popleft()
            queued.discard(cur)
            visits[cur] = visits.get(cur, 0) + 1
            if visits[cur] > MAX_ITERATIONS:
                continue
            fp = report.regions.get(cur)
            if fp is None:
                continue
            state = in_states[cur].copy()
            implicit = cur in ana.implicit_regions
            exit_states = [state]
            for macro in fp.macros:
                for uop in macro.uops:
                    _transfer_uop(uop, state, ana, cur, implicit)
                if macro.branch_kind is not BranchKind.NONE:
                    exit_states.append(state.copy())
            out = exit_states[0]
            for s in exit_states[1:]:
                out = out.join(s)
            out = out.join(state)
            for nxt in fp.successors:
                if nxt not in nodes:
                    continue
                prev = in_states.get(nxt)
                new = out if prev is None else prev.join(out)
                if prev is None or new != prev:
                    in_states[nxt] = new
                    if nxt not in queued:
                        queued.add(nxt)
                        worklist.append(nxt)

        # implicit flows: influence regions of tainted branches
        for region in ana.tainted_branches.values():
            infl = influence.get(region)
            if infl is None:
                infl = influence[region] = _influence(report, region, pdom)
            dependent |= infl
            ana.implicit_regions |= infl & nodes
        # tainted indirect transfers: land anywhere in the hint set,
        # or (no hints) anywhere at all
        if ana.tainted_indirect:
            if landed is None:
                if claim.indirect_targets:
                    hints = [
                        report.program.labels[lbl]
                        for lbl in claim.indirect_targets
                        if lbl in report.program.labels
                    ]
                    landed = _reachable(report, hints)
                else:
                    landed = set(report.regions)
            dependent |= landed
            ana.implicit_regions |= landed & nodes
        # callees invoked from secret-dependent regions inherit
        for region in list(dependent):
            fp = report.regions.get(region)
            if fp is None:
                continue
            target = _call_target(fp)
            if target is not None:
                reach = callee_reach.get(target)
                if reach is None:
                    reach = callee_reach[target] = _reachable(
                        report, [target]
                    )
                dependent |= reach

        after = (
            len(dependent), len(ana.tainted_branches),
            len(ana.tainted_indirect), len(ana.implicit_regions),
        )
        if after == before:
            break
    return dependent


def analyze_claim(
    report: FootprintReport, claim: SecretClaim
) -> Tuple[LeakReport, List[Diagnostic]]:
    """Run the taint analysis for one claim."""
    labels = report.program.labels
    diags: List[Diagnostic] = []

    secret_mem: List[Tuple[int, int]] = []
    if claim.label is not None:
        base = labels.get(claim.label)
        if base is None:
            diags.append(Diagnostic(
                "TA001",
                f"claim {claim.name!r}: secret data label "
                f"{claim.label!r} is not defined",
            ))
            return LeakReport(claim=claim), diags
        secret_mem.append((base, base + claim.size))

    if claim.entries:
        missing = [e for e in claim.entries if e not in labels]
        if missing:
            diags.append(Diagnostic(
                "TA001",
                f"claim {claim.name!r}: alternative entr"
                f"{'y' if len(missing) == 1 else 'ies'} "
                f"{', '.join(repr(m) for m in missing)} not defined",
            ))
            return LeakReport(claim=claim), diags
        # The secret picks which alternative runs: regions reachable
        # from exactly one alternative are secret-dependent.
        reach = [
            _reachable(report, [labels[e]]) for e in claim.entries
        ]
        common = set.intersection(*reach) if reach else set()
        dependent = set.union(*reach) - common if reach else set()
        ana = _Analysis(report=report, secret_mem=secret_mem)
    else:
        entry_addr = labels.get(claim.entry)
        if entry_addr is None or entry_addr not in report.regions:
            diags.append(Diagnostic(
                "TA001",
                f"claim {claim.name!r}: entry label {claim.entry!r} "
                f"is not analyzed code",
                label=claim.entry or None,
            ))
            return LeakReport(claim=claim), diags
        if claim.register is None and claim.label is None:
            diags.append(Diagnostic(
                "TA001",
                f"claim {claim.name!r} declares neither a register, "
                f"a data label nor alternative entries",
            ))
            return LeakReport(claim=claim), diags
        ana = _Analysis(report=report, secret_mem=secret_mem)
        dependent = _run_dataflow(report, claim, entry_addr, ana)

    dsb_sets: Set[int] = set()
    itlb_pages: Set[int] = set()
    store_sites: Set[int] = set(ana.tainted_stores)
    dead: Set[int] = set()
    for entry in dependent:
        fp = report.regions.get(entry)
        if fp is None:
            continue
        itlb_pages |= _region_pages(fp)
        store_sites |= _region_store_sites(fp)
        if fp.cacheable:
            dsb_sets.add(fp.set_index)
        else:
            dead.add(entry)

    leak = LeakReport(
        claim=claim,
        regions=frozenset(dependent),
        dsb_sets=frozenset(dsb_sets),
        itlb_pages=frozenset(itlb_pages),
        store_sites=frozenset(store_sites),
        tainted_branches=tuple(sorted(ana.tainted_branches)),
        tainted_memops=tuple(ana.tainted_memops),
        tainted_indirect=tuple(sorted(ana.tainted_indirect)),
        dead_regions=frozenset(dead),
    )

    if dependent:
        sample = ", ".join(
            report.regions[e].location()
            for e in sorted(dependent)[:4]
        )
        more = len(dependent) - min(len(dependent), 4)
        diags.append(Diagnostic(
            "TA002",
            f"claim {claim.name!r}: {len(dependent)} fetch region(s) "
            f"are secret-dependent ({sample}"
            + (f", +{more} more" if more else "") + f"); "
            f"{len(dsb_sets)} DSB set(s), {len(itlb_pages)} page(s), "
            f"{len(store_sites)} store site(s); capacity <= "
            f"{leak.capacity_bits:.1f} bit(s)",
        ))
    seen_memops: Set[Tuple[int, str]] = set()
    for addr, op in ana.tainted_memops:
        if (addr, op) in seen_memops:
            continue
        seen_memops.add((addr, op))
        if len(seen_memops) > MAX_DIVERGENCE_DIAGNOSTICS:
            diags.append(Diagnostic(
                "TA003",
                f"claim {claim.name!r}: plus further secret-derived "
                f"memory operands (capped at "
                f"{MAX_DIVERGENCE_DIAGNOSTICS})",
            ))
            break
        diags.append(Diagnostic(
            "TA003",
            f"claim {claim.name!r}: {op} at {addr:#x} uses a "
            f"secret-derived address",
            addr=addr,
        ))
    if claim.constant_time and (
        dependent or ana.tainted_branches or ana.tainted_indirect
        or seen_memops
    ):
        diags.append(Diagnostic(
            "TA004",
            f"claim {claim.name!r} declares constant_time but the "
            f"secret reaches {len(ana.tainted_branches)} branch(es), "
            f"{len(ana.tainted_indirect)} indirect transfer(s) and "
            f"{len(seen_memops)} memory operand(s)",
        ))
    inferred = leak.inferred_resources()
    if set(inferred) != set(claim.leaks_to) and not claim.constant_time:
        diags.append(Diagnostic(
            "TA005",
            f"claim {claim.name!r} declares leaks_to="
            f"{sorted(claim.leaks_to)} but the analysis infers "
            f"{sorted(inferred)}",
        ))
    for entry in sorted(dead):
        diags.append(Diagnostic(
            "TA006",
            f"claim {claim.name!r}: secret-dependent region at "
            f"{entry:#x} is uncacheable; it never reaches the DSB",
            addr=entry,
            label=report.regions[entry].label,
        ))
    return leak, diags


def verify_secret_claims(
    report: FootprintReport, claims: Sequence[object]
) -> Optional[TaintReport]:
    """Analyze every :class:`SecretClaim` in a claim list; the
    taint-mode entry point.  ``None`` when the list declares no
    secret."""
    secrets = [c for c in claims if isinstance(c, SecretClaim)]
    if not secrets:
        return None
    out = TaintReport()
    for claim in secrets:
        leak, diags = analyze_claim(report, claim)
        out.leaks.append(leak)
        out.diagnostics.extend(diags)
    return out
