"""Functional execution of the micro-op kinds that have semantics.

The core's block loop (``Core._step``) runs each fetched micro-op
once, in fetch (i.e. speculative program) order.  It owns **timing**:
a register scoreboard where a micro-op starts at ``max(dispatch slot,
operand readiness, fence floor)`` -- an out-of-order dataflow model --
and it handles the kinds with no functional effect itself.  The rest
go through :meth:`Backend.execute`: **functional execution** against
the thread's registers and store buffer, rolled forward eagerly (a
squash restores a checkpoint), plus the data-side latency of loads
and stores.  Branch *resolution time* is the branch micro-op's
completion time, which opens transient windows when its operands
arrive late (e.g. a flushed bounds variable missing to DRAM).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.backend.storebuffer import StoreBuffer
from repro.cpu.config import CPUConfig
from repro.cpu.thread import KERNEL_PRIV, ThreadContext, USER_PRIV
from repro.isa.instruction import MacroOp, MicroOp, UopKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import MainMemory
from repro.observe.events import SB_DRAIN

_MASK64 = (1 << 64) - 1

#: Micro-op kinds, bound once for :meth:`Backend.execute`'s identity
#: tests (a module global reads far faster than an enum member), in
#: the order the chain tests them: most executed first.
_STORE = UopKind.STORE
_JCC = UopKind.JCC
_ALU_IMM = UopKind.ALU_IMM
_MOV_IMM = UopKind.MOV_IMM
_ALU = UopKind.ALU
_LOAD = UopKind.LOAD
_MOV = UopKind.MOV
_CMP = UopKind.CMP
_TEST = UopKind.TEST
_LEA = UopKind.LEA
_JMP_IND = UopKind.JMP_IND
_CALL = UopKind.CALL
_CALL_IND = UopKind.CALL_IND
_RET = UopKind.RET
_RDTSC = UopKind.RDTSC
_CLFLUSH = UopKind.CLFLUSH
_SYSCALL = UopKind.SYSCALL
_SYSRET = UopKind.SYSRET

# flags bitfield
_ZF = 1
_SF = 2
_CF = 4


def _signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def _compare_flags(a: int, b: int) -> int:
    """Flags from ``a - b`` (ZF/SF/CF subset)."""
    flags = 0
    if (a - b) & _MASK64 == 0:
        flags |= _ZF
    if _signed(a) - _signed(b) < 0:
        flags |= _SF
    if (a & _MASK64) < (b & _MASK64):
        flags |= _CF
    return flags


def _eval_cond(cond: str, flags: int) -> bool:
    if cond == "z":
        return bool(flags & _ZF)
    if cond == "nz":
        return not flags & _ZF
    if cond == "b":
        return bool(flags & _CF)
    if cond == "ae":
        return not flags & _CF
    if cond in ("l", "s"):
        return bool(flags & _SF)
    if cond in ("ge", "ns"):
        return not flags & _SF
    raise ValueError(f"unknown condition code {cond!r}")


def _alu(op: str, a: int, b: int) -> int:
    if op == "add":
        return (a + b) & _MASK64
    if op == "sub":
        return (a - b) & _MASK64
    if op == "and":
        return a & b & _MASK64
    if op == "or":
        return (a | b) & _MASK64
    if op == "xor":
        return (a ^ b) & _MASK64
    if op == "shl":
        return (a << (b & 63)) & _MASK64
    if op == "shr":
        return (a & _MASK64) >> (b & 63)
    if op == "imul":
        return (a * b) & _MASK64
    raise ValueError(f"unknown ALU op {op!r}")


class Backend:
    """Executes micro-ops for all threads of one core."""

    __slots__ = ("config", "memory", "hierarchy", "rdtsc_jitter",
                 "store_buffers", "observer", "_sb_commits",
                 "_sb_port_free")

    def __init__(
        self,
        config: CPUConfig,
        memory: MainMemory,
        hierarchy: MemoryHierarchy,
        rdtsc_jitter: Optional[Callable[[], int]] = None,
    ):
        self.config = config
        self.memory = memory
        self.hierarchy = hierarchy
        self.rdtsc_jitter = rdtsc_jitter
        self.store_buffers = {0: StoreBuffer(), 1: StoreBuffer()}
        #: Observability bus (wired by ``Core.observe``; ``None`` keeps
        #: the hot path at one attribute check).
        self.observer = None
        # Store-drain timing model (see ``_store_timing``): per-thread
        # scheduled commit-completion cycles, plus the next-free cycle
        # of each L1D write port.  Under "competitive" sharing both
        # threads drain through port 0.
        self._sb_commits = {0: [], 1: []}
        self._sb_port_free = [0, 0]

    # ------------------------------------------------------------------

    def reset_store_timing(self) -> None:
        """Rebase the store-drain schedule (call boundaries, resets).

        The schedule is expressed in pipeline-clock cycles; whenever
        those clocks rebase (``Core.call`` / ``Core.run_smt`` with
        ``reset_clocks``, ``Core.reset``) the in-flight commit times
        from the previous clock domain are meaningless and dropped.
        """
        self._sb_commits[0].clear()
        self._sb_commits[1].clear()
        self._sb_port_free[0] = 0
        self._sb_port_free[1] = 0

    def _store_timing(self, thread_id: int, start: int) -> "tuple[int, int, int]":
        """Charge one store against the bounded drain model.

        Timing-only companion of the functional :class:`StoreBuffer`
        (which stays unbounded and squash-aware): each store occupies a
        buffer entry from ``start`` until its commit completes through
        an L1D write port at one commit per ``store_drain_interval``
        cycles.  A store arriving at a full buffer stalls until the
        oldest outstanding commit frees an entry -- the back-pressure
        the store-buffer contention channel measures.

        Returns ``(stall, occupancy, commit_done)``.
        """
        config = self.config
        queue = self._sb_commits[thread_id]
        # Retire commits that completed before this store arrived.
        done = 0
        for t in queue:
            if t > start:
                break
            done += 1
        if done:
            del queue[:done]
        stall = 0
        capacity = config.store_buffer_entries
        if len(queue) >= capacity:
            # Wait for enough older commits to complete that an entry
            # is free when this store retires into the buffer.
            free_at = queue[len(queue) - capacity]
            stall = max(0, free_at - start)
            del queue[: len(queue) - capacity + 1]
        port = 0 if config.store_buffer_sharing == "competitive" else thread_id
        begin = max(start + stall, self._sb_port_free[port])
        commit_done = begin + config.store_drain_interval
        self._sb_port_free[port] = commit_done
        queue.append(commit_done)  # port times are monotonic: stays sorted
        return stall, len(queue), commit_done

    def _address(self, uop, regs) -> int:
        addr = regs[uop.base] + uop.disp if uop.base else uop.disp
        if uop.index is not None:
            addr += regs[uop.index] * uop.scale
        return addr & _MASK64

    def execute(
        self,
        uop: MicroOp,
        macro: MacroOp,
        seq: int,
        thread: ThreadContext,
        regs: Dict[str, int],
        sbuf: StoreBuffer,
        start: int,
        suppressed: bool,
        data_hidden: bool,
    ) -> Tuple[int, bool, Optional[int]]:
        """Execute one micro-op issuing at ``start``; returns
        ``(latency, taken, actual_target)``.

        A ``suppressed`` micro-op would only issue at or after an older
        misprediction's resolution, so it never issues on real
        hardware: its data-cache accesses, CLFLUSH and store-drain slot
        are dropped.  That is what makes LFENCE block Spectre-v1's
        disclosure loads while fetch (the micro-op cache) is untouched.
        ``data_hidden`` hides data-side effects of issuing micro-ops
        too (invisible speculation).  Functional effects still roll
        forward; the squash discards them.
        """
        kind = uop.kind
        latency = uop.latency
        taken = True
        actual_target: Optional[int] = None

        if kind is _STORE:
            addr = self._address(uop, regs)
            sbuf.write(seq, addr, regs[uop.srcs[0]], uop.mem_size)
            latency = 1
            if not suppressed:
                # Suppressed stores never issue, so they neither occupy
                # a drain slot nor pay back-pressure.  CALL-side stack
                # pushes bypass the model too (they go through the
                # CALL/CALL_IND uop kinds), keeping the drain count an
                # exact mirror of the STORE uops lint can see.
                stall, occupancy, commit_done = self._store_timing(
                    thread.thread_id, start
                )
                latency += stall
                obs = self.observer
                if obs is not None and obs.wants(SB_DRAIN):
                    obs.emit(
                        SB_DRAIN,
                        start,
                        thread.thread_id,
                        pc=macro.addr,
                        addr=addr,
                        occupancy=occupancy,
                        stall=stall,
                        commit_done=commit_done,
                    )
        elif kind is _JCC:
            taken = _eval_cond(uop.cond, regs["flags"])
            actual_target = uop.target if taken else macro.end
        elif kind is _ALU_IMM:
            value = _alu(uop.alu_op, regs[uop.srcs[0]], uop.imm)
            regs[uop.dst] = value
            if uop.sets_flags:
                regs["flags"] = _compare_flags(value, 0)
        elif kind is _MOV_IMM:
            regs[uop.dst] = uop.imm & _MASK64
        elif kind is _ALU:
            a, b = regs[uop.srcs[0]], regs[uop.srcs[1]]
            value = _alu(uop.alu_op, a, b)
            regs[uop.dst] = value
            if uop.sets_flags:
                regs["flags"] = _compare_flags(value, 0)
        elif kind is _LOAD:
            addr = self._address(uop, regs)
            regs[uop.dst] = sbuf.read(addr, uop.mem_size, self.memory)
            if data_hidden:
                latency = (
                    self.hierarchy.l1d.latency
                    if suppressed
                    else self.hierarchy.probe_data_latency(addr)
                )
            else:
                latency = self._data_access(addr, thread.counters)
        elif kind is _MOV:
            regs[uop.dst] = regs[uop.srcs[0]]
        elif kind is _CMP:
            b = regs[uop.srcs[1]] if len(uop.srcs) > 1 else uop.imm
            regs["flags"] = _compare_flags(regs[uop.srcs[0]], b)
        elif kind is _TEST:
            b = regs[uop.srcs[1]] if len(uop.srcs) > 1 else uop.imm
            regs["flags"] = _compare_flags(regs[uop.srcs[0]] & b, 0)
        elif kind is _LEA:
            regs[uop.dst] = self._address(uop, regs)
        elif kind is _JMP_IND:
            actual_target = regs[uop.srcs[0]]
        elif kind is _CALL:
            regs["rsp"] = (regs["rsp"] - 8) & _MASK64
            sbuf.write(seq, regs["rsp"], macro.end, 8)
            actual_target = uop.target
        elif kind is _CALL_IND:
            actual_target = regs[uop.srcs[0]]
            regs["rsp"] = (regs["rsp"] - 8) & _MASK64
            sbuf.write(seq, regs["rsp"], macro.end, 8)
        elif kind is _RET:
            actual_target = sbuf.read(regs["rsp"], 8, self.memory)
            regs["rsp"] = (regs["rsp"] + 8) & _MASK64
        elif kind is _RDTSC:
            value = start
            if self.rdtsc_jitter is not None:
                # Hardware TSCs never run backwards: jitter that would
                # drop a read below the previous one (making short probe
                # deltas negative) is clamped to the last value.
                value = max(thread.last_rdtsc, value + self.rdtsc_jitter())
            thread.last_rdtsc = value
            regs[uop.dst] = value
        elif kind is _CLFLUSH:
            if not data_hidden:
                self.hierarchy.clflush(self._address(uop, regs))
        elif kind is _SYSCALL:
            thread.privilege = KERNEL_PRIV
            # the fetch-side linkage decides the target
        elif kind is _SYSRET:
            thread.privilege = USER_PRIV
        else:  # pragma: no cover - template/backend mismatch guard
            raise NotImplementedError(f"uop kind {kind}")
        return latency, taken, actual_target

    def _data_access(self, addr: int, counters) -> int:
        """Access the data hierarchy and update data-side counters."""
        result = self.hierarchy.access_data(addr)
        counters.l1d_refs += 1
        if result.level != "L1":
            counters.l1d_misses += 1
        if result.level in ("LLC", "DRAM"):
            counters.llc_refs += 1
            if result.level == "DRAM":
                counters.llc_misses += 1
        return result.latency
