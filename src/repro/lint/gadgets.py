"""Attack-gadget verification: prove tiger/zebra chains do what their
:class:`~repro.core.exploitgen.FootprintSpec` claims.

A generated chain *claims* a footprint -- "I occupy ``ways`` lines in
each of these sets".  A silent layout mistake (an ``org`` landing one
region over, an arena overlapping another function's, a broken jump in
the chain) does not crash anything: the channel just reads flat and the
experiment wastes hours.  The verifier turns those mistakes into
immediate diagnostics:

- **UC003** -- a ``{name}_r{i}`` region label is not at its claimed
  ``arena + way*stride + set*32`` address;
- **UC005** -- a chain region's predicted cache set is not the claimed
  one, or a claimed-*disjoint* pair actually overlaps;
- **UC004** -- a claimed set ends up with fewer resident lines than the
  claimed ways (broken chain links count too: a region the jump chain
  never reaches is never fetched, hence never filled), or a claimed
  *conflict* pair cannot evict.

Claims compare **final mapped set indices** (after SMT / privilege
partitioning), so a claim made against physical sets still verifies
correctly on partitioned configurations.

Every static claim -- these chain and pair claims and the per-resource
ones in :mod:`repro.lint.resources` -- answers ``verify(report, named)``
with its diagnostics; :func:`verify_claims` runs one mixed list of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.isa.instruction import BranchKind
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.footprint import (
    FootprintReport,
    USER_PRIV,
    predicted_set,
)
from repro.lint.resources import ITLBClaim, StoreClaim
from repro.lint.taint import SecretClaim


@dataclass
class ChainClaim:
    """One generated chain: its entry-label prefix and footprint spec.

    ``kind`` is informational ("tiger" / "zebra" / "probe" ...); the
    layout checks are identical for all of them.
    """

    name: str
    spec: "FootprintSpec"  # repro.core.exploitgen.FootprintSpec
    kind: str = "chain"

    def body_entries(self) -> List[Tuple[int, int, int, int]]:
        """``(index, set, way, addr)`` for every claimed body region,
        in chain order (sets outer, ways inner -- generator order)."""
        out = []
        i = 0
        for s in self.spec.sets:
            for w in range(self.spec.ways):
                out.append((i, s, w, self.spec.region_addr(s, w)))
                i += 1
        return out

    def verify(
        self, report: FootprintReport, named: Dict[str, object]
    ) -> List[Diagnostic]:
        """Layout, mapping, connectivity and occupancy checks for one chain."""
        out: List[Diagnostic] = []
        program = report.program
        spec = self.spec
        entries = self.body_entries()
        mapped = _claimed_final_sets(self, report)
        #: final set -> lines the verified chain actually lands there
        landed: Dict[int, int] = {}

        reachable = True  # chain connectivity so far
        for i, s, w, want_addr in entries:
            label = f"{self.name}_r{i}"
            have_addr = program.labels.get(label)
            if have_addr is None:
                out.append(
                    Diagnostic(
                        "UC004",
                        f"{self.kind} {self.name!r}: region label "
                        f"{label!r} missing; the chain is shorter than the "
                        f"claimed {len(entries)} regions",
                        label=self.name,
                    )
                )
                reachable = False
                continue
            if have_addr != want_addr:
                out.append(
                    Diagnostic(
                        "UC003",
                        f"{self.kind} {self.name!r}: {label} is at "
                        f"{have_addr:#x}, claimed slot (set {s}, way {w}) "
                        f"is {want_addr:#x}",
                        addr=have_addr,
                        label=label,
                    )
                )
            fp = report.regions.get(have_addr)
            if fp is None or not fp.cacheable:
                out.append(
                    Diagnostic(
                        "UC004",
                        f"{self.kind} {self.name!r}: region {label} at "
                        f"{have_addr:#x} is not cacheable, so it installs "
                        f"no line in set {s}",
                        addr=have_addr,
                        label=label,
                    )
                )
                continue
            if fp.set_index != mapped[s]:
                out.append(
                    Diagnostic(
                        "UC005",
                        f"{self.kind} {self.name!r}: region {label} at "
                        f"{have_addr:#x} maps to set {fp.set_index}, "
                        f"claimed set {s} maps to {mapped[s]}",
                        addr=have_addr,
                        label=label,
                    )
                )
            # A region is fetched (and fills) when every link before it was
            # intact, regardless of whether its own exit is broken.
            if reachable:
                landed[fp.set_index] = landed.get(fp.set_index, 0) + fp.n_lines
            # connectivity: the region must end in a direct jump to the
            # next region (or the chain exit); a broken link means every
            # later region is never fetched.
            term = fp.terminator
            if i + 1 < len(entries):
                want_next = program.labels.get(f"{self.name}_r{i + 1}")
                if (
                    term.branch_kind is not BranchKind.JMP
                    or term.target != want_next
                ):
                    out.append(
                        Diagnostic(
                            "UC004",
                            f"{self.kind} {self.name!r}: {label} does not "
                            f"jump to {self.name}_r{i + 1}; regions past "
                            f"it are never fetched",
                            addr=term.addr,
                            label=label,
                        )
                    )
                    reachable = False

        # occupancy: every claimed set must actually receive `ways` lines
        for s in spec.sets:
            got = landed.get(mapped[s], 0)
            if got < spec.ways:
                out.append(
                    Diagnostic(
                        "UC004",
                        f"{self.kind} {self.name!r}: claimed set {s} "
                        f"(mapped {mapped[s]}) receives {got} line(s), "
                        f"claimed {spec.ways} ways",
                        label=self.name,
                    )
                )
        return out


@dataclass
class PairClaim:
    """A claimed relation between two chains' footprints.

    ``relation``: ``"conflict"`` (the pair must contend -- transmitter
    vs receiver) or ``"disjoint"`` (the pair must never touch a common
    set -- zebra vs probe).
    """

    a: str
    b: str
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in ("conflict", "disjoint"):
            raise ValueError(f"unknown relation {self.relation!r}")

    def verify(
        self, report: FootprintReport, named: Dict[str, object]
    ) -> List[Diagnostic]:
        """Check a claimed conflict/disjointness between two chains.

        Uses the chains' *body* regions only: the shared prologue/epilogue
        scaffolding parks on a neutral set by construction and must not
        make two deliberately disjoint footprints look overlapping.
        """
        out: List[Diagnostic] = []
        a, b = named.get(self.a), named.get(self.b)
        for name, claim in ((self.a, a), (self.b, b)):
            if not isinstance(claim, ChainClaim):
                out.append(
                    Diagnostic(
                        "UC004",
                        f"pair claim references unknown chain {name!r}",
                    )
                )
        if not (isinstance(a, ChainClaim) and isinstance(b, ChainClaim)):
            return out

        sets_a = set(_claimed_final_sets(a, report).values())
        sets_b = set(_claimed_final_sets(b, report).values())
        shared = sets_a & sets_b

        if self.relation == "disjoint":
            if shared:
                out.append(
                    Diagnostic(
                        "UC005",
                        f"chains {self.a!r} and {self.b!r} claim disjoint "
                        f"footprints but share set(s) "
                        f"{sorted(shared)}",
                        label=self.b,
                    )
                )
            return out

        # conflict: the receiver's sets must all be contended, and the
        # combined demand per shared set must exceed the associativity.
        ways = report.config.uop_cache_ways
        missing = sets_b - sets_a
        if missing:
            out.append(
                Diagnostic(
                    "UC004",
                    f"chain {self.a!r} claims a conflict with {self.b!r} "
                    f"but misses its set(s) {sorted(missing)}; those sets "
                    f"never see contention",
                    label=self.a,
                )
            )
        if shared:
            # Under-provisioned contention is a sensitivity problem, not a
            # layout bug (parameter sweeps legitimately explore it), so it
            # warns instead of erroring.
            demand = a.spec.ways + b.spec.ways
            if demand <= ways:
                out.append(
                    Diagnostic(
                        "UC004",
                        f"chains {self.a!r}+{self.b!r} place {demand} "
                        f"line(s) in each shared set, within the "
                        f"{ways}-way associativity; conflict misses are "
                        f"not guaranteed",
                        severity=Severity.WARNING,
                        label=self.a,
                    )
                )
        return out


def _final_set(
    claim: ChainClaim, set_idx: int, report: FootprintReport
) -> int:
    """Mapped cache set the claimed physical ``set_idx`` lands in."""
    entry = claim.spec.region_addr(set_idx, 0)
    fp = report.regions.get(entry)
    if fp is not None:
        return fp.set_index
    priv = (
        0 if report.program.is_kernel_code(entry) else USER_PRIV
    )
    return predicted_set(
        entry,
        report.config,
        thread=report.thread,
        privilege=priv,
        smt_active=report.smt_active,
    )


def _claimed_final_sets(
    claim: ChainClaim, report: FootprintReport
) -> Dict[int, int]:
    """physical claimed set -> final mapped set."""
    return {s: _final_set(claim, s, report) for s in claim.spec.sets}


def verify_claims(
    report: FootprintReport, claims: Sequence[object]
) -> List[Diagnostic]:
    """Verify every static claim in one list; the verifier entry point.

    Claims run in list order, which fixes the diagnostic order; claim
    lists declare the pair claims (:class:`PairClaim`,
    :class:`~repro.lint.resources.ResourcePairClaim`) after the chain /
    iTLB / store claims they name.  :class:`~repro.lint.taint.SecretClaim`
    entries are skipped: the taint pass
    (:func:`~repro.lint.taint.verify_secret_claims`) owns them.
    """
    named = {
        c.name: c for c in claims
        if isinstance(c, (ChainClaim, ITLBClaim, StoreClaim))
    }
    out: List[Diagnostic] = []
    for claim in claims:
        if not isinstance(claim, SecretClaim):
            out.extend(claim.verify(report, named))
    return out
