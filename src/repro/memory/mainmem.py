"""Sparse byte-addressable main memory."""

from __future__ import annotations

from typing import Dict


class MainMemory:
    """Backing store for simulated data memory.

    Byte-granular and sparse (unwritten bytes read as zero), which is
    convenient for the attacks' large, mostly-untouched probe arrays.
    Values are unsigned; multi-byte accesses are little-endian.
    """

    __slots__ = ("_bytes",)

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def read(self, addr: int, size: int = 8) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned integer."""
        value = 0
        for i in range(size):
            value |= self._bytes.get(addr + i, 0) << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int = 8) -> None:
        """Write ``size`` low-order bytes of ``value`` at ``addr``."""
        for i in range(size):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def load_image(self, base: int, payload: bytes) -> None:
        """Bulk-initialise memory (used for Program data segments)."""
        for i, b in enumerate(payload):
            self._bytes[base + i] = b

    def clear(self) -> None:
        """Forget every written byte (``Core.reset()`` re-images the
        program's data segments afterwards)."""
        self._bytes.clear()

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read a raw byte string (for harness-side result extraction)."""
        return bytes(self._bytes.get(addr + i, 0) for i in range(size))

    def footprint(self) -> int:
        """Number of bytes ever written (for tests)."""
        return len(self._bytes)
