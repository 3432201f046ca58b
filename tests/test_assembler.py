"""Assembler and Program tests, including layout property tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.isa import encodings as enc
from repro.isa.assembler import Assembler, AssemblyError


def test_sequential_layout():
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(3))
    asm.emit(enc.nop(5))
    prog = asm.assemble()
    addrs = sorted(prog.instructions)
    assert addrs == [0x1000, 0x1003]


def test_labels_resolve_branch_targets():
    asm = Assembler(base=0x1000)
    asm.label("start")
    asm.emit(enc.jmp("end"))
    asm.label("end")
    asm.emit(enc.halt())
    prog = asm.assemble(entry="start")
    jmp = prog.at(0x1000)
    assert jmp.target == prog.addr_of("end")
    assert jmp.uops[0].target == prog.addr_of("end")


def test_duplicate_label_rejected():
    asm = Assembler()
    asm.label("x")
    with pytest.raises(AssemblyError):
        asm.label("x")


def test_undefined_label_rejected():
    asm = Assembler()
    asm.emit(enc.jmp("nowhere"))
    with pytest.raises(AssemblyError):
        asm.assemble()


def test_align_pads_with_nops():
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(1))
    asm.align(32)
    asm.label("aligned")
    asm.emit(enc.halt())
    prog = asm.assemble()
    assert prog.addr_of("aligned") == 0x1020
    # padding is executable: each gap byte belongs to some instruction
    total = sum(i.length for i in prog.instructions.values())
    assert total == 0x21  # 32 bytes of nop+pad plus the halt


def test_align_without_padding_leaves_gap():
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(1))
    asm.align(64, pad=False)
    asm.label("aligned")
    asm.emit(enc.halt())
    prog = asm.assemble()
    assert prog.addr_of("aligned") == 0x1040
    assert prog.at(0x1001) is None  # hole


@pytest.mark.parametrize("boundary", [0, -32, 3, 48, 33])
@pytest.mark.parametrize("pad", [True, False])
def test_align_requires_power_of_two(boundary, pad):
    """Both the padding and the hole-leaving path must reject bad
    boundaries instead of silently mis-padding."""
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(1))
    with pytest.raises(AssemblyError):
        asm.align(boundary, pad=pad)
    # the failed align must not have moved the cursor or emitted pad
    asm.label("after")
    prog = asm.assemble()
    assert prog.addr_of("after") == 0x1001


def test_org_rejects_overlap():
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(10))
    with pytest.raises(AssemblyError):
        asm.org(0x1005)


def test_org_checks_every_contiguous_run():
    """``org`` refuses any address inside earlier code, whichever run
    holds it -- including runs started by a backwards ``org`` -- and
    allows exactly a run's end."""
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(10), enc.nop(6))        # run [0x1000, 0x1010)
    asm.emit(enc.nop(4))                     # extends it to 0x1014
    asm.org(0x2000)
    asm.emit(enc.nop(8))                     # run [0x2000, 0x2008)
    asm.org(0x1800)                          # backwards: a new run
    asm.emit(enc.nop(15), enc.nop(1))        # run [0x1800, 0x1810)
    inside = [0x1000, 0x1005, 0x100a, 0x1010, 0x1013,
              0x2000, 0x2007, 0x1800, 0x180f]
    for addr in inside:
        with pytest.raises(AssemblyError, match="lands inside emitted code"):
            asm.org(addr)
    for end in (0x1014, 0x2008, 0x1810):
        assert asm.org(end) == end
    asm.emit(enc.nop(1))                     # at 0x1810, after the run
    with pytest.raises(AssemblyError):
        asm.org(0x1810)
    asm.org(0x3000)
    prog = asm.assemble()
    assert 0x1810 in prog.instructions


def test_overlapping_emission_rejected_at_assemble():
    asm = Assembler(base=0x1000)
    asm.emit(enc.nop(10))
    asm.org(0x1020)
    asm.emit(enc.nop(10))
    asm.org(0x1015)
    asm.emit(enc.nop(15))  # 0x1015..0x1024 overlaps 0x1020
    with pytest.raises(AssemblyError):
        asm.assemble()


def test_data_segment_and_reserve():
    asm = Assembler()
    addr = asm.data("greeting", b"hello", align=64)
    addr2 = asm.reserve("buffer", 100)
    asm.emit(enc.halt())
    prog = asm.assemble()
    assert prog.data[addr] == b"hello"
    assert addr % 64 == 0
    assert addr2 > addr
    assert len(prog.data[addr2]) == 100


def test_entry_defaults_to_first_instruction():
    asm = Assembler(base=0x2000)
    asm.emit(enc.halt())
    assert asm.assemble().entry == 0x2000


def test_kernel_ranges():
    asm = Assembler(base=0x1000)
    asm.label("user")
    asm.emit(enc.halt())
    asm.org(0x9000)
    asm.label("kstart")
    asm.emit(enc.halt())
    asm.label("kend")
    prog = asm.assemble()
    prog.mark_kernel("kstart", "kend")
    assert prog.is_kernel_code(0x9000)
    assert not prog.is_kernel_code(0x1000)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=15), min_size=1,
                     max_size=60),
    aligns=st.sets(st.integers(min_value=0, max_value=59)),
)
@settings(max_examples=50, deadline=None)
def test_layout_never_overlaps(lengths, aligns):
    """Random emission with random interleaved .aligns never produces
    overlapping instructions, and addresses strictly increase."""
    asm = Assembler(base=0x40_0000)
    for i, length in enumerate(lengths):
        if i in aligns:
            asm.align(32)
        asm.emit(enc.nop(length))
    prog = asm.assemble()
    spans = sorted((i.addr, i.end) for i in prog.instructions.values())
    for (s0, e0), (s1, _) in zip(spans, spans[1:]):
        assert e0 <= s1


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1,
                max_size=40))
@settings(max_examples=50, deadline=None)
def test_code_bytes_accounts_everything(lengths):
    asm = Assembler()
    for length in lengths:
        asm.emit(enc.nop(length))
    prog = asm.assemble()
    assert prog.code_bytes == sum(lengths)


class _ScanModel:
    """Brute-force reference for the assembler's code runs: every run
    in emission order, and ``org`` scans them all."""

    def __init__(self, base):
        self.cursor = base
        self.runs = []

    def emit(self, length):
        first, self.cursor = self.cursor, self.cursor + length
        if self.runs and self.runs[-1][1] == first:
            self.runs[-1][1] = self.cursor
        else:
            self.runs.append([first, self.cursor])

    def org(self, addr):
        for start, end in self.runs:
            if start <= addr < end:
                raise AssemblyError(
                    f".org 0x{addr:x} lands inside emitted code "
                    f"[0x{start:x}, 0x{end:x})")
        self.cursor = addr
        return addr

    def align(self, boundary, pad):
        gap = -self.cursor % boundary
        if gap and pad:
            self.emit(gap)
        self.cursor += 0 if pad else gap


def _outcome(call):
    try:
        return call()
    except AssemblyError as exc:
        return f"AssemblyError: {exc}"


LAYOUT_OPS = st.lists(st.one_of(
    st.tuples(st.just("emit"),
              st.lists(st.integers(min_value=1, max_value=15), min_size=1,
                       max_size=3)),
    st.tuples(st.just("org"), st.integers(min_value=0, max_value=0x300)),
    st.tuples(st.just("align"), st.sampled_from([16, 32, 64, 256]),
              st.booleans()),
), max_size=40)


@given(LAYOUT_OPS)
@example([("org", 0x30), ("emit", [8]), ("org", 0x20), ("emit", [8]),
          ("emit", [15, 15, 4]), ("org", 0x40), ("org", 0x34),
          ("org", 0x4a)])
@example([("org", 0x30), ("emit", [8]), ("org", 0x20), ("emit", [15, 15]),
          ("org", 0x3a), ("org", 0x34)])
@example([("org", 0x30), ("emit", [15, 15, 2]), ("org", 0x20),
          ("align", 64, False), ("emit", [8]), ("org", 0x44),
          ("org", 0x4c)])
@settings(deadline=None)
def test_org_matches_a_brute_force_scan(ops):
    """``org`` (which bisects the runs kept in address order) accepts and
    refuses exactly the addresses a scan of every run in emission order
    does, with the same message -- also once runs overlap, and after
    ``org`` moves back into earlier code.  ``assemble`` then refuses
    exactly the overlapped layouts.

    The explicit examples overlap two runs in each way ``emit`` can: a
    run ``[0x1020, 0x1028)`` grows over ``[0x1030, 0x1038)`` to 0x104a,
    one emit from 0x1020 runs into it, or an unpadded ``align`` starts a
    run inside ``[0x1030, 0x1050)``."""
    base = 0x1000
    asm, model = Assembler(base=base), _ScanModel(base)
    for op, *args in ops:
        if op == "emit":
            asm.emit(*map(enc.nop, args[0]))
            model.emit(sum(args[0]))
        elif op == "org":
            addr = base + args[0]
            assert _outcome(lambda: asm.org(addr)) == _outcome(
                lambda: model.org(addr))
        else:
            asm.align(*args)
            model.align(*args)
        assert asm.cursor == model.cursor
    spans = sorted(model.runs)
    overlapped = any(s1 < e0 for (_, e0), (s1, _) in zip(spans, spans[1:]))
    outcome = _outcome(asm.assemble)
    assert isinstance(outcome, str) == overlapped
    if overlapped:
        assert outcome.startswith("AssemblyError: overlapping code")
