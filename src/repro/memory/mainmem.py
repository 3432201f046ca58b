"""Sparse page-backed main memory."""

from __future__ import annotations

from typing import Dict

#: log2 of the backing page size.
PAGE_SHIFT = 12
#: Bytes per backing page.
PAGE_SIZE = 1 << PAGE_SHIFT
_OFFSET = PAGE_SIZE - 1


class MainMemory:
    """Backing store for simulated data memory.

    Sparse at page granularity: a dict maps page number
    (``addr >> PAGE_SHIFT``) to a zero-filled ``bytearray`` of
    ``PAGE_SIZE`` bytes, created by the first write or image byte that
    lands in it, so the attacks' large, mostly-untouched probe arrays
    cost nothing until touched and unwritten bytes read as zero.
    Values are unsigned and little-endian; ``write`` keeps only the low
    ``size`` bytes.  An access inside one page is a single slice
    (``int.from_bytes`` / ``to_bytes``); only one that straddles a page
    boundary is split per page.
    """

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, number: int) -> bytearray:
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = bytearray(PAGE_SIZE)
        return page

    def read(self, addr: int, size: int = 8) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned integer."""
        off = addr & _OFFSET
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            if size == 1:
                return page[off]
            return int.from_bytes(page[off:off + size], "little")
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write(self, addr: int, value: int, size: int = 8) -> None:
        """Write ``size`` low-order bytes of ``value`` at ``addr``."""
        off = addr & _OFFSET
        if size == 1:
            self._page(addr >> PAGE_SHIFT)[off] = value & 0xFF
            return
        data = (value & ((1 << (size << 3)) - 1)).to_bytes(size, "little")
        if off + size <= PAGE_SIZE:
            self._page(addr >> PAGE_SHIFT)[off:off + size] = data
        else:
            self.load_image(addr, data)

    def load_image(self, base: int, payload: bytes) -> None:
        """Copy ``payload`` to ``base`` one page-sized slice at a time
        (Program data segments; straddling writes)."""
        view = memoryview(payload)
        pos, end = 0, len(payload)
        while pos < end:
            addr = base + pos
            off = addr & _OFFSET
            n = min(PAGE_SIZE - off, end - pos)
            self._page(addr >> PAGE_SHIFT)[off:off + n] = view[pos:pos + n]
            pos += n

    def clear(self) -> None:
        """Drop every page (``Core.reset()`` re-images the program's
        data segments afterwards)."""
        self._pages.clear()

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read a raw byte string (for harness-side result extraction)."""
        off = addr & _OFFSET
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            return bytes(size) if page is None else bytes(page[off:off + size])
        out = bytearray()
        end = addr + size
        while addr < end:
            off = addr & _OFFSET
            n = min(PAGE_SIZE - off, end - addr)
            page = self._pages.get(addr >> PAGE_SHIFT)
            out += bytes(n) if page is None else page[off:off + n]
            addr += n
        return bytes(out)
