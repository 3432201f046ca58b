"""The workload builders and the suite runner."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.cpu.counters import PerfCounters
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.isa.program import Program


@dataclass
class WorkloadResult:
    """Summary metrics of one workload run."""

    name: str
    cycles: int
    counters: PerfCounters

    @property
    def ipc(self) -> float:
        """Retired micro-ops per cycle."""
        return self.counters.retired_uops / self.cycles if self.cycles else 0.0

    @property
    def dsb_hit_rate(self) -> float:
        """Region-granular micro-op cache hit rate."""
        lookups = self.counters.dsb_hits + self.counters.dsb_misses
        return self.counters.dsb_hits / lookups if lookups else 0.0

    @property
    def dsb_uop_fraction(self) -> float:
        """Fraction of delivered micro-ops streamed from the DSB."""
        total = self.counters.uops_total
        return self.counters.uops_dsb / total if total else 0.0

    @property
    def mispredict_rate(self) -> float:
        """Mispredictions per branch."""
        if not self.counters.branches:
            return 0.0
        return self.counters.branch_mispredicts / self.counters.branches


# ----------------------------------------------------------------------
# builders


def hot_loop(scale: int = 1) -> Program:
    """A tight loop kernel: the paper's "hotspot" case (~100% DSB)."""
    asm = Assembler()
    asm.label("main")
    asm.emit(enc.mov_imm("r1", 200 * scale))
    asm.emit(enc.mov_imm("r2", 0))
    asm.align(32)
    asm.label("top")
    asm.emit(enc.alu_imm("add", "r2", 3))
    asm.emit(enc.alu_imm("xor", "r2", 0x55))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "top"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def matvec(scale: int = 1) -> Program:
    """Dense inner-product loops: hot code, streaming data."""
    n = 64
    asm = Assembler()
    rng = random.Random(11)
    vec = bytes(rng.randrange(256) for _ in range(n * 8))
    asm.data("mat", vec * 4)
    asm.data("vec", vec)
    asm.label("main")
    asm.emit(enc.mov_imm("r7", 4 * scale))  # rows x repeats
    asm.label("row")
    asm.emit(enc.mov_imm("r1", n))
    asm.emit(enc.mov_imm("r2", asm.resolve("mat"), width=64))
    asm.emit(enc.mov_imm("r3", asm.resolve("vec"), width=64))
    asm.emit(enc.mov_imm("r4", 0))
    asm.align(32)
    asm.label("inner")
    asm.emit(enc.load("r5", "r2"))
    asm.emit(enc.load("r6", "r3"))
    asm.emit(enc.alu("imul", "r5", "r6"))
    asm.emit(enc.alu("add", "r4", "r5"))
    asm.emit(enc.alu_imm("add", "r2", 8))
    asm.emit(enc.alu_imm("add", "r3", 8))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "inner"))
    asm.emit(enc.dec("r7"))
    asm.emit(enc.jcc("nz", "row"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def hash_loop(scale: int = 1) -> Program:
    """FNV-style byte hash over a buffer."""
    size = 256
    asm = Assembler()
    rng = random.Random(5)
    asm.data("buf", bytes(rng.randrange(256) for _ in range(size)))
    asm.label("main")
    asm.emit(enc.mov_imm("r7", 2 * scale))
    asm.label("again")
    asm.emit(enc.mov_imm("r1", size))
    asm.emit(enc.mov_imm("r2", asm.resolve("buf"), width=64))
    asm.emit(enc.mov_imm("r3", 0xCBF29CE484222325, width=64))
    asm.align(32)
    asm.label("step")
    asm.emit(enc.load("r4", "r2", size=1))
    asm.emit(enc.alu("xor", "r3", "r4"))
    asm.emit(enc.alu_imm("imul", "r3", 0x1B3))
    asm.emit(enc.alu_imm("add", "r2", 1))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "step"))
    asm.emit(enc.dec("r7"))
    asm.emit(enc.jcc("nz", "again"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def interpreter(scale: int = 1, n_handlers: int = 16) -> Program:
    """Bytecode-interpreter dispatch loop: indirect jumps through a
    handler table -- wider code footprint, indirect-predictor load."""
    asm = Assembler()
    rng = random.Random(17)
    bytecode = bytes(rng.randrange(n_handlers) for _ in range(128))
    asm.data("bytecode", bytecode)

    # handlers first so the table below can resolve their addresses
    for h in range(n_handlers):
        asm.align(64)
        asm.label(f"op_{h}")
        asm.emit(enc.alu_imm("add", "r4", h + 1))
        asm.emit(enc.alu_imm("xor", "r4", h))
        if h % 3 == 0:
            asm.emit(enc.alu_imm("imul", "r4", 3))
        asm.emit(enc.jmp("dispatch"))
    table = bytearray()
    for h in range(n_handlers):
        table += asm.resolve(f"op_{h}").to_bytes(8, "little")
    asm.data("handler_table", bytes(table))

    asm.align(64)
    asm.label("main")
    asm.emit(enc.mov_imm("r7", scale))
    asm.label("program_start")
    asm.emit(enc.mov_imm("r1", len(bytecode)))  # remaining ops
    asm.emit(enc.mov_imm("r2", asm.resolve("bytecode"), width=64))
    asm.emit(enc.mov_imm("r6", asm.resolve("handler_table"), width=64))
    asm.label("dispatch")
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("z", "program_end"))
    asm.emit(enc.load("r3", "r2", size=1))
    asm.emit(enc.alu_imm("add", "r2", 1))
    asm.emit(enc.alu_imm("shl", "r3", 3))
    asm.emit(enc.load("r5", "r6", index="r3"))
    asm.emit(enc.jmp_ind("r5"))
    asm.label("program_end")
    asm.emit(enc.dec("r7"))
    asm.emit(enc.jcc("nz", "program_start"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def syscall_heavy(scale: int = 1) -> Program:
    """A loop that calls into a trivial kernel routine -- the workload
    most sensitive to flush-at-domain-crossing."""
    asm = Assembler()
    asm.label("main")
    asm.emit(enc.mov_imm("r1", 40 * scale))
    asm.align(32)
    asm.label("top")
    asm.emit(enc.alu_imm("add", "r2", 1))
    asm.emit(enc.syscall())
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "top"))
    asm.emit(enc.halt())
    asm.org(0xC0_0000)
    asm.label("kernel_entry")
    asm.emit(enc.alu_imm("add", "r3", 1))
    asm.emit(enc.sysret())
    asm.label("kernel_end")
    prog = asm.assemble(entry="main")
    prog.mark_kernel(0xC0_0000, 0xC1_0000)
    return prog


def pointer_chase(scale: int = 1) -> Program:
    """Latency-bound linked-list walk: the DSB barely matters."""
    length = 64
    stride = 4096
    asm = Assembler()
    base = asm.reserve("chain", length * stride, align=4096)
    chain = bytearray()
    for i in range(length):
        nxt = base + ((i + 1) % length) * stride
        chain += nxt.to_bytes(8, "little") + bytes(stride - 8)
    asm.patch_data("chain", bytes(chain))
    asm.label("main")
    asm.emit(enc.mov_imm("r1", 2 * length * scale))
    asm.emit(enc.mov_imm("r3", asm.resolve("chain"), width=64))
    asm.align(32)
    asm.label("top")
    asm.emit(enc.load("r3", "r3"))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "top"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def branchy(scale: int = 1) -> Program:
    """Data-dependent branches over pseudo-random bytes: mispredict-
    heavy, exercising squash recovery on benign code."""
    size = 192
    asm = Assembler()
    rng = random.Random(23)
    asm.data("noise", bytes(rng.randrange(256) for _ in range(size)))
    asm.label("main")
    asm.emit(enc.mov_imm("r7", 2 * scale))
    asm.label("again")
    asm.emit(enc.mov_imm("r1", size))
    asm.emit(enc.mov_imm("r2", asm.resolve("noise"), width=64))
    asm.align(32)
    asm.label("step")
    asm.emit(enc.load("r4", "r2", size=1))
    asm.emit(enc.alu_imm("and", "r4", 1))
    asm.emit(enc.test_reg("r4", "r4"))
    asm.emit(enc.jcc("z", "even"))
    asm.emit(enc.alu_imm("add", "r5", 3))
    asm.emit(enc.jmp("next"))
    asm.label("even")
    asm.emit(enc.alu_imm("sub", "r5", 1))
    asm.label("next")
    asm.emit(enc.alu_imm("add", "r2", 1))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "step"))
    asm.emit(enc.dec("r7"))
    asm.emit(enc.jcc("nz", "again"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


def large_code(scale: int = 1) -> Program:
    """A code footprint larger than the micro-op cache, walked
    repeatedly: the capacity-miss regime."""
    regions = 320  # > 256 lines
    asm = Assembler()
    asm.label("main")
    asm.emit(enc.mov_imm("r1", 2 * scale))
    asm.align(32)
    asm.label("top")
    for _ in range(regions):
        asm.align(32)
        asm.emit(enc.nop(15), enc.nop(15), enc.nop(2))
    asm.emit(enc.dec("r1"))
    asm.emit(enc.jcc("nz", "top"))
    asm.emit(enc.halt())
    return asm.assemble(entry="main")


#: Name -> builder registry.
WORKLOADS: Dict[str, Callable[[int], Program]] = {
    "hot_loop": hot_loop,
    "matvec": matvec,
    "hash_loop": hash_loop,
    "interpreter": interpreter,
    "syscall_heavy": syscall_heavy,
    "pointer_chase": pointer_chase,
    "branchy": branchy,
    "large_code": large_code,
}


def build_workload(name: str, scale: int = 1) -> Program:
    """Instantiate one workload by name."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return builder(scale)


def run_workload(
    name: str,
    config: Optional[CPUConfig] = None,
    scale: int = 1,
    warmup: bool = True,
) -> WorkloadResult:
    """Run one workload to completion and summarise its counters.

    With ``warmup`` the program runs once before measurement so the
    result reflects steady state (warm micro-op cache and predictors).
    """
    config = config or CPUConfig.skylake()
    core = Core(config, build_workload(name, scale))
    if warmup:
        core.call("main")
    delta = core.call("main")
    return WorkloadResult(name=name, cycles=core.cycles(), counters=delta)


def run_suite(
    config: Optional[CPUConfig] = None,
    scale: int = 1,
    names: Optional[List[str]] = None,
) -> Dict[str, WorkloadResult]:
    """Run every workload (or a subset); returns results by name."""
    return {
        name: run_workload(name, config, scale)
        for name in (names or sorted(WORKLOADS))
    }
