"""Per-hardware-thread architectural and pipeline state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.branch.predictor import BranchPredictor
from repro.cpu.counters import PerfCounters

#: General-purpose register names.  ``rsp`` is the stack pointer;
#: ``flags`` holds the condition codes as a small bitfield.
GPR_NAMES = tuple(f"r{i}" for i in range(16)) + ("rsp", "flags")

#: Default stack top for each thread (grows down, 64 KiB apart).
STACK_TOP = 0x00F0_0000

USER_PRIV = 3
KERNEL_PRIV = 0


def fresh_registers(thread_id: int = 0) -> Dict[str, int]:
    """Initial architectural register file for a thread."""
    regs = {name: 0 for name in GPR_NAMES}
    regs["rsp"] = STACK_TOP - 0x1_0000 * thread_id
    return regs


@dataclass(slots=True)
class ThreadContext:
    """One SMT hardware context.

    Architectural state (``regs``, ``privilege``) is checkpointed and
    restored across speculation; fetch-side state (``fetch_rip``,
    ``fetch_priv``, ``fetch_clock``) tracks the *speculative* front-end
    position, which runs ahead of -- and is resteered independently of --
    the architectural state.

    Slotted: every field below is touched on the per-uop hot path.
    """

    thread_id: int = 0
    regs: Dict[str, int] = None  # type: ignore[assignment]
    privilege: int = USER_PRIV
    halted: bool = True

    # Front-end state
    fetch_rip: int = 0
    fetch_priv: int = USER_PRIV
    fetch_clock: int = 0
    last_source: str = "none"  # "dsb" | "mite" | "none"
    kernel_link: List[int] = field(default_factory=list)  # SYSCALL return RIPs

    # Backend scoreboard state
    reg_ready: Dict[str, int] = field(default_factory=dict)
    exec_floor: int = 0  # fences raise this
    oldest_inflight_done: int = 0  # running max of completions (for LFENCE)
    dispatch_cycle: int = 0
    dispatch_slots_used: int = 0
    last_retire: int = 0
    last_rdtsc: int = 0  # previous RDTSC value (monotonicity clamp)

    counters: PerfCounters = field(default_factory=PerfCounters)
    predictor: BranchPredictor = field(default_factory=BranchPredictor)

    def __post_init__(self) -> None:
        if self.regs is None:
            self.regs = fresh_registers(self.thread_id)

    def reset_pipeline_clocks(self) -> None:
        """Zero timing state (between independent experiment phases)."""
        self.fetch_clock = 0
        self.reg_ready.clear()
        self.exec_floor = 0
        self.oldest_inflight_done = 0
        self.dispatch_cycle = 0
        self.dispatch_slots_used = 0
        self.last_retire = 0
        self.last_rdtsc = 0
        self.last_source = "none"
