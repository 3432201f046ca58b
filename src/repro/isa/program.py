"""An assembled program: code address space plus initial data image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Union

from repro.isa.instruction import MacroOp


@dataclass
class Program:
    """Immutable result of assembly.

    ``instructions`` maps each instruction's *start* address to its
    macro-op; the fetch unit walks this map.  ``data`` maps base
    addresses to initial byte payloads loaded into simulated memory
    before execution.  ``kernel_ranges`` marks address ranges that are
    only fetchable at privilege level 0 (used by the user/kernel
    channel and the privilege-partitioning mitigation); add to it
    through :meth:`mark_kernel`.
    """

    instructions: Dict[int, MacroOp]
    labels: Dict[str, int]
    data: Dict[int, bytes] = field(default_factory=dict)
    entry: int = 0
    kernel_ranges: list = field(default_factory=list)  # list[(start, end)]

    def at(self, addr: int) -> Optional[MacroOp]:
        """Instruction starting at ``addr``, or ``None``."""
        return self.instructions.get(addr)

    def fetch(self, addr: int) -> MacroOp:
        """Instruction starting at ``addr``; raises on a wild fetch."""
        instr = self.instructions.get(addr)
        if instr is None:
            raise KeyError(
                f"no instruction at 0x{addr:x} "
                f"(wild fetch -- check branch targets and padding)"
            )
        return instr

    def has_code(self, addr: int) -> bool:
        """True if an instruction starts exactly at ``addr``."""
        return addr in self.instructions

    def addr_of(self, label: str) -> int:
        """Address of ``label``."""
        return self.labels[label]

    def mark_kernel(self, start: Union[str, int], end: Union[str, int]) -> None:
        """Mark [start, end) as kernel-only code; each bound is a label
        or an address.  The one way to add a kernel range."""
        if isinstance(start, str):
            start = self.labels[start]
        if isinstance(end, str):
            end = self.labels[end]
        self.kernel_ranges.append((start, end))

    def is_kernel_code(self, addr: int) -> bool:
        """True if ``addr`` lies in a kernel-only range."""
        for start, end in self.kernel_ranges:
            if start <= addr < end:
                return True
        return False

    def iter_instructions(self) -> Iterator[MacroOp]:
        """All instructions in ascending address order."""
        for addr in sorted(self.instructions):
            yield self.instructions[addr]

    @property
    def code_bytes(self) -> int:
        """Total bytes of emitted code (excludes alignment gaps)."""
        return sum(i.length for i in self.instructions.values())
