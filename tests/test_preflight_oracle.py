"""Oracles for the session preflight's taint pass: post-dominators and
the dataflow's visit order.

``repro.lint.taint._post_dominators`` computes immediate post-dominators
(Cooper, Harvey and Kennedy) and expands each node's chain into its
post-dominator set.  :func:`reference_post_dominators` is the set fixed
point it replaced: every node starts at the full node set and is
narrowed to ``{n} | intersection(pdom[s] for s in succ[n])`` until
nothing changes.  Both must give the same relation on every successor
map -- including nodes with no path to the exit, which keep the full
set -- and on every flow graph the drivers' sessions and the lint
targets build.

The forward dataflow visits regions first in, first out from the claim's
entry.  Its fixed point does not depend on the order, but the order in
which it meets secret-derived memory operands is the order of the TA003
diagnostics, so that order is pinned too.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.lint.taint as taint
from repro.cpu.config import CPUConfig
from repro.drivers import DRIVERS
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint import SecretClaim, analyze, analyze_claim
from repro.lint.runner import run_lint
from repro.lint.taint import _EXIT

# Region entries, as the flow graphs of real programs use them.
A, B, C, D, E = 0x1000, 0x1020, 0x1040, 0x1060, 0x1080


def reference_post_dominators(succ):
    """``node -> set of nodes post-dominating it``: the greatest fixed
    point of the post-dominator set equations over ``succ``."""
    nodes = list(succ)
    everything = set(nodes) | {_EXIT}
    pdom = {n: set(everything) for n in nodes}
    pdom[_EXIT] = {_EXIT}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            new = {n} | set.intersection(*(pdom[s] for s in succ[n]))
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


def reference_flow_graph(report, nodes):
    """The successor map the fixed point was run over: intraprocedural
    successors inside ``nodes``, plus an exit edge for every region
    that leaves the graph or has no successor left."""
    succ = {}
    for n in nodes:
        out = [s for s in taint._flow_successors(report, n) if s in nodes]
        if not out or taint._exits_graph(report.regions[n]):
            out = out + [_EXIT]
        succ[n] = out
    return succ


@st.composite
def successor_maps(draw):
    """Small graphs with every node a key and at least one successor
    each, drawn from the nodes and ``_EXIT``: self-loops, cycles that
    never reach the exit (feeding into, or fed by, nodes that do) and
    nodes with both listed successors and an exit edge all occur."""
    n = draw(st.integers(1, 9))
    nodes = [0x1000 + 0x20 * i for i in range(n)]
    targets = st.sampled_from(nodes + [_EXIT])
    return {
        node: tuple(draw(st.lists(targets, min_size=1, max_size=3)))
        for node in nodes
    }


@given(successor_maps())
# A branch into a loop that never exits, next to a path that does.
@example({A: (B, C), B: (D,), D: (B,), C: (_EXIT,)})
# A loop whose only exit is the RET ending its latch region.
@example({A: (B,), B: (A, _EXIT)})
# A runaway loop fed by, and falling into, exiting code.
@example({A: (B,), B: (C,), C: (B,), D: (B, E), E: (E, _EXIT)})
# Self-loops, on an exiting node and on a stuck one.
@example({A: (A, B), B: (B,)})
def test_post_dominators_equal_the_fixed_point(succ):
    assert taint._post_dominators(succ) == reference_post_dominators(succ)


def _captured_flow_graphs():
    """Every ``(name, report, nodes, succ)`` the taint pass builds for
    the registry drivers' sessions (preflight on) and for
    ``run_lint(taint=True)``."""
    captured = []
    build = taint._flow_graph

    def record(report, nodes):
        succ = build(report, nodes)
        captured.append((report, set(nodes), succ))
        return succ

    mp = pytest.MonkeyPatch()
    mp.setattr(taint, "_flow_graph", record)
    try:
        graphs = []
        for name, driver in DRIVERS.items():
            del captured[:]
            made = driver.make()
            if name == "keyextract":
                made._victim_session()
            graphs += [(f"session:{name}",) + g for g in captured]
        del captured[:]
        run_lint(taint=True)
        graphs += [("run_lint",) + g for g in captured]
    finally:
        mp.undo()
    return graphs


GRAPHS = _captured_flow_graphs()


def test_the_drivers_build_flow_graphs():
    names = {g[0] for g in GRAPHS}
    assert "session:crossdomain" in names and "run_lint" in names
    assert sum(1 for g in GRAPHS if g[0] == "run_lint") >= 9


@pytest.mark.parametrize(
    "name, report, nodes, succ", GRAPHS,
    ids=[f"{g[0]}-{i}" for i, g in enumerate(GRAPHS)],
)
def test_every_real_flow_graph_equals_the_fixed_point(
    name, report, nodes, succ
):
    reference = reference_flow_graph(report, nodes)
    assert {n: list(out) for n, out in succ.items()} == reference
    assert taint._post_dominators(succ) == reference_post_dominators(
        reference
    )


def test_dataflow_visits_regions_breadth_first():
    """``f`` branches on the secret to ``left`` (which jumps on to
    ``deep``) and ``right``; each region addresses memory through the
    secret.  First in, first out meets them as left, right, deep, once
    per round of the outer fixed point; last in, first out would meet
    right first."""
    asm = Assembler(base=0x2000)
    asm.label("f")
    asm.emit(enc.test_reg("r7", "r7"))
    asm.emit(enc.jcc("nz", "left"))
    asm.emit(enc.jmp("right"))
    asm.org(0x2040)
    asm.label("left")
    asm.emit(enc.load("r1", "r7"))
    asm.emit(enc.jmp("deep"))
    asm.org(0x2080)
    asm.label("right")
    asm.emit(enc.store("r2", "r7"))
    asm.emit(enc.halt())
    asm.org(0x20C0)
    asm.label("deep")
    asm.emit(enc.load("r3", "r7", disp=8))
    asm.emit(enc.halt())
    report = analyze(asm.assemble(entry="f"), CPUConfig.skylake())
    claim = SecretClaim(name="s", entry="f", register="r7",
                        leaks_to=("dsb", "itlb", "sb"))
    leak, diags = analyze_claim(report, claim)
    one_round = ((0x2040, "load"), (0x2080, "store"), (0x20C0, "load"))
    assert leak.tainted_memops == one_round * 2
    assert [d.addr for d in diags if d.code == "TA003"] == [
        0x2040, 0x2080, 0x20C0]
