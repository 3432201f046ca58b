"""Differential property test of the micro-op cache.

Random sequences of fills, lookups, noise evictions, inclusion
invalidations, flushes and SMT-mode toggles run against a small cache
under both replacement policies and both sharing modes.  Every lookup
is checked against a reference linear scan of ``lines_in_set``, the
stats against counts kept by the test, and after every op each set's
resident index against the set's lines.
"""

import random
from itertools import product

from hypothesis import example, given, settings, strategies as st

from repro.isa import encodings as enc
from repro.isa.instruction import region_of
from repro.uopcache.cache import UopCache
from repro.uopcache.placement import build_lines
from repro.uopcache.policies import make_policy

SETS = 4
WAYS = 4


def specs_for(n_uops):
    macros = [enc.nop(1) for _ in range(n_uops)]
    for addr, m in enumerate(macros):
        m.bind(addr)
    return build_lines(macros)


#: Entries in two sets (three tags each, so a set overflows often),
#: plus odd entries sharing a region with an even one (distinct tags,
#: same region).  Folding spreads them over the other sets.
ENTRIES = [
    0x40_0000 + tag * SETS * 32 + s * 32 + off
    for tag in range(3) for s in range(2) for off in (0, 1)
]

#: Op kinds by weight: fills and lookups dominate and flushes are rare,
#: so sets stay full long enough for replacement (and wear-down) to
#: matter.
KINDS = ["lookup"] * 6 + ["fill"] * 8 + ["evict"] * 2 + [
    "invalidate", "smt", "flush"]


def random_op(rng):
    kind = rng.choice(KINDS)
    thread, entry, priv = rng.randint(0, 1), rng.choice(ENTRIES), rng.choice((0, 3))
    if kind == "lookup":
        return kind, thread, entry, priv
    if kind == "fill":
        return kind, thread, entry, priv, rng.randint(1, 20)
    if kind == "evict":
        return kind, rng.randrange(2 ** 16)
    if kind == "invalidate":
        return kind, entry, rng.randint(1, 96)
    if kind == "smt":
        return kind, rng.random() < 0.5
    return (kind,)


@st.composite
def scripts(draw):
    """120 ops from a drawn seed: Hypothesis's own draws favour the
    simplest values (one-line fills, the first entry), which keeps sets
    too empty to reach the replacement corner cases."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return [random_op(rng) for _ in range(120)]


def reference_set(uc, entry, thread, privilege):
    """The set index, folded the way the paper's partitioning says."""
    frac, offset = uc.sets, 0
    if uc.smt_active and uc.sharing == "static":
        frac //= 2
        offset += frac * (thread & 1)
    if uc.privilege_partition:
        frac //= 2
        offset += frac * (0 if privilege == 0 else 1)
    return offset + (entry // uc.region_bytes) % frac


def reference_lookup(uc, thread, entry, privilege):
    """Lines a hit must stream, in order, or None for a miss."""
    idx = reference_set(uc, entry, thread, privilege)
    assert uc.set_index(entry, thread, privilege) == idx
    lines = sorted(
        (l for l in uc.lines_in_set(idx)
         if l.entry == entry and l.thread == thread),
        key=lambda l: l.seq,
    )
    if not lines or [l.seq for l in lines] != list(
        range(lines[0].region_lines)
    ):
        return None
    return lines


def all_lines(uc):
    return [l for i in range(uc.sets) for l in uc.lines_in_set(i)]


def check_resident_index(uc):
    """Each set's resident index holds exactly the set's lines, under
    their own ``(thread, entry)``, each entry's lines in strictly
    increasing seq order (the hit test reads only the first and the
    last)."""
    for idx in range(uc.sets):
        index = uc._resident[idx]
        indexed = [l for lines in index.values() for l in lines]
        ways = uc.lines_in_set(idx)
        assert len(indexed) == len(ways)
        assert {id(l) for l in indexed} == {id(l) for l in ways}
        for (thread, entry), lines in index.items():
            assert lines
            assert all(l.thread == thread and l.entry == entry for l in lines)
            seqs = [l.seq for l in lines]
            assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs


@example(
    # A refill whose victim is the last stale line of its own region
    # must leave the new line findable: a two-line region in set 0,
    # three one-line regions filling the set (the third evicts seq 0),
    # then a one-line refill that evicts the leftover seq 1.
    policy="lru", sharing="static", partition=False, decay=0,
    script=[("fill", 0, 0x40_0000, 3, 7)]
    + [("fill", 0, e, 3, 1) for e in (0x40_0001, 0x40_0080, 0x40_0100)]
    + [("fill", 0, 0x40_0000, 3, 1), ("lookup", 0, 0x40_0000, 3)],
)
@example(
    # A refill with fewer lines leaves a stale higher seq behind: with
    # a three-line region already in set 0, a three-line fill keeps
    # seqs 0 and 2 (seq 1 is bypassed), and a two-line refill replaces
    # seq 0 and is bypassed at seq 1.  The entry then holds as many
    # lines as its new packing has, seqs 0 and 2, but not a whole
    # region.
    policy="hotness", sharing="static", partition=False, decay=0,
    script=[("fill", 0, 0x40_0080, 0, 18), ("fill", 0, 0x40_0100, 0, 18),
            ("fill", 0, 0x40_0100, 0, 8), ("lookup", 0, 0x40_0100, 0)],
)
@given(
    policy=st.sampled_from(["hotness", "lru"]),
    sharing=st.sampled_from(["static", "competitive"]),
    partition=st.booleans(),
    decay=st.sampled_from([0, 5, 96]),
    script=scripts(),
)
@settings(deadline=None)
def test_cache_matches_reference_scan(policy, sharing, partition, decay, script):
    kwargs = {"decay_interval": decay} if policy == "hotness" else {}
    uc = UopCache(
        sets=SETS, ways=WAYS, policy=make_policy(policy, **kwargs),
        sharing=sharing, privilege_partition=partition,
    )
    expect = dict(vars(uc.stats))
    for op in script:
        before = all_lines(uc)
        stats_before = dict(vars(uc.stats))
        kind = op[0]
        if kind == "lookup":
            _, thread, entry, priv = op
            want = reference_lookup(uc, thread, entry, priv)
            got = uc.lookup(thread, entry, priv)
            expect["lookups"] += 1
            if want is None:
                assert got is None
                expect["misses"] += 1
            else:
                assert got == want  # the same line objects, in order
                expect["hits"] += 1
                expect["streamed_uops"] += sum(len(l.uops) for l in want)
                # The caller owns the returned list.
                got.clear()
                assert reference_lookup(uc, thread, entry, priv) == want
        elif kind == "fill":
            _, thread, entry, priv, n_uops = op
            specs = specs_for(n_uops)
            idx = reference_set(uc, entry, thread, priv)
            stale = [l for l in uc.lines_in_set(idx)
                     if l.entry == entry and l.thread == thread]
            admitted_all = uc.fill(thread, entry, specs, priv)
            if specs is None:  # uncacheable: more than 18 micro-ops
                assert not admitted_all
                assert all_lines(uc) == before
                continue
            if len(specs) > uc.max_lines_per_region:
                assert not admitted_all
                assert all_lines(uc) == before
                continue
            expect["fills"] += 1
            filled = uc.stats.lines_filled - stats_before["lines_filled"]
            rejected = uc.stats.fill_rejects - stats_before["fill_rejects"]
            evicted = uc.stats.evictions - stats_before["evictions"]
            assert filled + rejected == len(specs)
            assert admitted_all == (rejected == 0)
            after = all_lines(uc)
            new = [l for l in after if not any(l is b for b in before)]
            gone = [b for b in before if not any(b is l for l in after)]
            assert all(l.entry == entry and l.thread == thread for l in new)
            assert len({l.seq for l in new}) == len(new)
            # Wear-down can cool a line this fill installed enough for a
            # later line of the same fill to evict it; every other victim
            # was resident before, as was each line replaced in place.
            evicted_before = evicted - (filled - len(new))
            assert 0 <= evicted_before <= len(gone)
            assert len(gone) <= evicted_before + len(stale)
            assert uc.set_occupancy(idx) <= uc.ways
        elif kind == "evict":
            evicted = uc.evict_random(random.Random(op[1]))
            assert evicted == bool(before)
            assert len(all_lines(uc)) == len(before) - evicted
            assert uc.stats.evictions == stats_before["evictions"] + evicted
        elif kind == "invalidate":
            _, start, span = op
            end = start + span
            lo = region_of(start, uc.region_bytes)
            hit = [l for l in before
                   if lo <= region_of(l.entry, uc.region_bytes) < end]
            assert uc.invalidate_code_range(start, end) == len(hit)
            assert len(all_lines(uc)) == len(before) - len(hit)
            assert uc.stats.evictions == stats_before["evictions"]
        elif kind == "flush":
            uc.flush()
            expect["flushes"] += 1
            assert uc.occupancy() == 0
        else:
            _, active = op
            toggled = active != uc.smt_active
            uc.set_smt_active(active)
            if toggled and sharing == "static":
                expect["flushes"] += 1
                assert uc.occupancy() == 0
            else:
                assert all_lines(uc) == before
        # Counters the test does not model move only where it says.
        for name in ("lines_filled", "fill_rejects", "evictions"):
            expect[name] = getattr(uc.stats, name)
        assert dict(vars(uc.stats)) == expect
        check_resident_index(uc)
    # Finally every region the scan says is whole must hit, and no other.
    for thread, entry, priv in product((0, 1), ENTRIES, (0, 3)):
        want = reference_lookup(uc, thread, entry, priv)
        assert uc.lookup(thread, entry, priv) == want
