"""Speculative store buffer with byte-granular forwarding.

Stores executed along a speculative path must not reach memory until
the path is known-correct; loads must still observe them (store-to-load
forwarding).  A squash truncates the buffer at the checkpoint's
sequence number, which is how transiently "written" state vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memory.mainmem import MainMemory


@dataclass(slots=True)
class _Entry:
    seq: int
    addr: int
    size: int
    value: int


class StoreBuffer:
    """Ordered pending stores for one hardware thread."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def write(self, seq: int, addr: int, value: int, size: int = 8) -> None:
        """Buffer a store by the micro-op with sequence number ``seq``."""
        self._entries.append(_Entry(seq, addr, size, value))

    def read(self, addr: int, size: int, memory: MainMemory) -> int:
        """Load ``size`` bytes at ``addr``, forwarding buffered bytes.

        With no buffered store overlapping the load this is one
        ``memory.read``.  Otherwise memory's bytes are copied into a
        ``bytearray`` and each overlapping store's bytes laid over them
        in program order (oldest first), so the youngest store to each
        byte wins -- exactly store-to-load forwarding semantics -- and
        the result is decoded once.
        """
        end = addr + size
        data = None
        for entry in self._entries:
            lo = entry.addr
            hi = lo + entry.size
            if hi <= addr or lo >= end:
                continue
            if data is None:
                data = bytearray(memory.read_bytes(addr, size))
            shift = 0
            if lo < addr:
                shift = addr - lo
                lo = addr
            if hi > end:
                hi = end
            n = hi - lo
            data[lo - addr:hi - addr] = (
                (entry.value >> (shift << 3)) & ((1 << (n << 3)) - 1)
            ).to_bytes(n, "little")
        if data is None:
            return memory.read(addr, size)
        return int.from_bytes(data, "little")

    def clear(self) -> None:
        """Drop every pending store without committing it."""
        self._entries.clear()

    def truncate(self, seq: int) -> int:
        """Discard entries younger than ``seq`` (squash); returns count."""
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.seq <= seq]
        return before - len(self._entries)

    def drain_upto(self, seq: int, memory: MainMemory, on_commit=None) -> None:
        """Commit entries with sequence <= ``seq`` to memory.

        ``on_commit``, when given, is invoked with each committed entry
        (the observability layer's store-commit hook).
        """
        remaining: List[_Entry] = []
        for entry in self._entries:
            if entry.seq <= seq:
                memory.write(entry.addr, entry.value, entry.size)
                if on_commit is not None:
                    on_commit(entry)
            else:
                remaining.append(entry)
        self._entries = remaining

    def drain_all(self, memory: MainMemory, on_commit=None) -> None:
        """Commit everything (end of a non-speculative run)."""
        for entry in self._entries:
            memory.write(entry.addr, entry.value, entry.size)
            if on_commit is not None:
                on_commit(entry)
        self._entries.clear()
