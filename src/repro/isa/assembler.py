"""Two-pass assembler for the synthetic ISA.

Usage mirrors the NASM-style listings in the paper::

    asm = Assembler(base=0x40_0000)
    asm.label("region_0")
    asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))   # one 32-byte region
    asm.align(1024)
    asm.label("region_1")
    asm.emit(enc.jmp("exit"))
    ...
    program = asm.assemble(entry="region_0")

Instruction lengths are fixed per template (no relaxation), so layout
is final on the first pass; the second pass only resolves label
targets into macro-ops and their branch micro-ops.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instruction import MacroOp
from repro.isa.program import Program


class AssemblyError(Exception):
    """Raised for layout conflicts, unknown labels, or misalignment."""


class Assembler:
    """Places macro-ops in a virtual address space and resolves labels."""

    def __init__(self, base: int = 0x40_0000, data_base: int = 0x80_0000):
        if base & 0xF:
            raise AssemblyError("code base should be 16-byte aligned")
        self._cursor = base
        self._data_cursor = data_base
        self._instrs: List[MacroOp] = []
        self._labels: Dict[str, int] = {}
        self._data: Dict[int, bytes] = {}
        # [start, end) of each contiguous run of emitted code, in
        # emission order; an ``emit`` away from the last run's end
        # starts a new run.
        self._runs: List[List[int]] = []

    @property
    def cursor(self) -> int:
        """Next code address to be emitted to."""
        return self._cursor

    def label(self, name: str) -> int:
        """Define ``name`` at the current cursor; returns the address."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = self._cursor
        return self._cursor

    def label_at(self, name: str, addr: int) -> None:
        """Define ``name`` at an explicit address (e.g. a data symbol)."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = addr

    def align(self, boundary: int, pad: bool = True) -> int:
        """Advance the cursor to the next multiple of ``boundary``.

        With ``pad=True`` (default) the gap is filled with multi-byte
        NOPs, exactly as a real assembler's ``.align`` does -- so code
        that falls through the boundary stays executable.  ``pad=False``
        leaves a hole (only safe when control flow always jumps over).
        """
        if boundary <= 0 or boundary & (boundary - 1):
            raise AssemblyError(f"alignment must be a power of two, got {boundary}")
        rem = self._cursor % boundary
        if rem:
            gap = boundary - rem
            if pad:
                from repro.isa import encodings as _enc

                while gap > 0:
                    chunk = min(15, gap)
                    self.emit(_enc.nop(chunk))
                    gap -= chunk
            else:
                self._cursor += gap
        return self._cursor

    def org(self, addr: int) -> int:
        """Move the cursor to an absolute address (must not move back
        into already-emitted code)."""
        for start, end in self._runs:
            if start <= addr < end:
                raise AssemblyError(
                    f".org 0x{addr:x} lands inside emitted code [0x{start:x}, 0x{end:x})"
                )
        self._cursor = addr
        return self._cursor

    def emit(self, *instrs: MacroOp) -> int:
        """Place one or more instructions at the cursor, in order.

        Returns the address of the first instruction emitted.
        """
        if not instrs:
            raise AssemblyError("emit() needs at least one instruction")
        first = self._cursor
        for instr in instrs:
            instr.bind(self._cursor)
            self._instrs.append(instr)
            self._cursor += instr.length
        if self._runs and self._runs[-1][1] == first:
            self._runs[-1][1] = self._cursor
        else:
            self._runs.append([first, self._cursor])
        return first

    def data(self, name: str, payload: bytes, align: int = 64) -> int:
        """Reserve ``payload`` in the data segment under ``name``.

        Data is 64-byte (cache-line) aligned by default so FLUSH+RELOAD
        probe arrays behave as on real hardware.
        """
        rem = self._data_cursor % align
        if rem:
            self._data_cursor += align - rem
        addr = self._data_cursor
        self.label_at(name, addr)
        self._data[addr] = bytes(payload)
        self._data_cursor += len(payload)
        return addr

    def reserve(self, name: str, size: int, align: int = 64) -> int:
        """Reserve ``size`` zero bytes in the data segment."""
        return self.data(name, bytes(size), align=align)

    def patch_data(self, name: str, payload: bytes) -> None:
        """Replace the payload of an existing data symbol.

        For self-referential data (e.g. pointer chains) whose contents
        depend on the address the symbol was assigned: reserve first,
        build the bytes using the returned address, then patch.
        """
        addr = self.resolve(name)
        if addr not in self._data:
            raise AssemblyError(f"{name!r} is not a data symbol")
        if len(payload) > len(self._data[addr]):
            raise AssemblyError(
                f"patch for {name!r} ({len(payload)} bytes) exceeds its "
                f"reservation ({len(self._data[addr])} bytes)"
            )
        self._data[addr] = bytes(payload)

    def resolve(self, name: str) -> int:
        """Address of a previously defined label."""
        try:
            return self._labels[name]
        except KeyError:
            raise AssemblyError(f"undefined label {name!r}") from None

    def assemble(self, entry: Optional[str] = None) -> Program:
        """Resolve all branch targets and produce a :class:`Program`."""
        self._check_overlaps()
        for instr in self._instrs:
            if instr.target_label is not None:
                target = self.resolve(instr.target_label)
                instr.target = target
                for uop in instr.uops:
                    if uop.is_branch:
                        uop.target = target
        entry_addr = self.resolve(entry) if entry is not None else (
            self._instrs[0].addr if self._instrs else 0
        )
        return Program(
            instructions={i.addr: i for i in self._instrs},
            labels=dict(self._labels),
            data=dict(self._data),
            entry=entry_addr,
        )

    def _check_overlaps(self) -> None:
        runs = sorted(self._runs)
        for (s0, e0), (s1, _e1) in zip(runs, runs[1:]):
            if s1 < e0:
                raise AssemblyError(
                    f"overlapping code at [0x{s0:x},0x{e0:x}) and 0x{s1:x}"
                )
