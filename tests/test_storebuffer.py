"""Store buffer tests: forwarding, truncation, commit — with a
property test against a reference model."""

from hypothesis import given, settings, strategies as st

from repro.backend.storebuffer import StoreBuffer
from repro.memory.mainmem import PAGE_SIZE, MainMemory


def test_forwarding_exact_match():
    sbuf, mem = StoreBuffer(), MainMemory()
    sbuf.write(1, 0x100, 0xAABB, size=2)
    assert sbuf.read(0x100, 2, mem) == 0xAABB
    assert mem.read(0x100, 2) == 0  # not yet committed


def test_partial_overlap_forwarding():
    sbuf, mem = StoreBuffer(), MainMemory()
    mem.write(0x100, 0x1122334455667788, 8)
    sbuf.write(1, 0x102, 0xFF, size=1)
    assert sbuf.read(0x100, 8, mem) == 0x11223344_55FF7788


def test_youngest_store_wins():
    sbuf, mem = StoreBuffer(), MainMemory()
    sbuf.write(1, 0x100, 0x01, size=1)
    sbuf.write(2, 0x100, 0x02, size=1)
    assert sbuf.read(0x100, 1, mem) == 0x02


def test_truncate_discards_younger():
    sbuf, mem = StoreBuffer(), MainMemory()
    sbuf.write(1, 0x100, 0x01, size=1)
    sbuf.write(5, 0x100, 0x05, size=1)
    dropped = sbuf.truncate(3)
    assert dropped == 1
    assert sbuf.read(0x100, 1, mem) == 0x01


def test_drain_upto_commits_prefix():
    sbuf, mem = StoreBuffer(), MainMemory()
    sbuf.write(1, 0x100, 0x01, size=1)
    sbuf.write(5, 0x108, 0x05, size=1)
    sbuf.drain_upto(3, mem)
    assert mem.read(0x100, 1) == 0x01
    assert mem.read(0x108, 1) == 0
    assert len(sbuf) == 1


def test_drain_all():
    sbuf, mem = StoreBuffer(), MainMemory()
    sbuf.write(1, 0x100, 0xDEAD, size=2)
    sbuf.drain_all(mem)
    assert mem.read(0x100, 2) == 0xDEAD
    assert len(sbuf) == 0


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=64),   # addr
            st.sampled_from([1, 2, 4, 8]),            # size
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_matches_sequential_memory_semantics(ops):
    """Buffered writes + forwarding reads behave exactly like writing
    straight to memory and reading it back."""
    sbuf, mem = StoreBuffer(), MainMemory()
    reference = MainMemory()
    for seq, (addr, size, value) in enumerate(ops):
        sbuf.write(seq, addr, value, size)
        reference.write(addr, value, size)
    for addr in range(0, 80, 8):
        assert sbuf.read(addr, 8, mem) == reference.read(addr, 8)
    sbuf.drain_all(mem)
    for addr in range(0, 80, 8):
        assert mem.read(addr, 8) == reference.read(addr, 8)


def test_forwarding_overlays_a_load_that_straddles_a_page():
    sbuf, mem = StoreBuffer(), MainMemory()
    edge = 3 * PAGE_SIZE
    mem.write(edge - 4, 0x8877665544332211, 8)
    sbuf.write(1, edge - 2, 0xBBAA, size=2)          # last two bytes of page
    sbuf.write(2, edge, 0xDDCC, size=2)              # first two of the next
    sbuf.write(3, edge + 1, 0xEE, size=1)            # younger, overlaps seq 2
    assert sbuf.read(edge - 4, 8, mem) == 0x8877EECCBBAA2211
    assert mem.read(edge - 4, 8) == 0x8877665544332211
    sbuf.drain_all(mem)
    assert mem.read(edge - 4, 8) == 0x8877EECCBBAA2211
