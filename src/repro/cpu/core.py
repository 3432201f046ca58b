"""The simulated core: ties front end, micro-op cache, backend and
threads together, and implements checkpointed speculative execution.

Speculation model (see DESIGN.md): micro-ops execute functionally in
fetch order along the *predicted* path.  When a control micro-op turns
out mispredicted, a checkpoint of architectural state is taken (state
at that instant *is* the at-branch state, since processing is in
order) and a squash is scheduled for the branch's resolution cycle --
the scoreboard-computed completion time.  Fetch keeps running down the
wrong path until the fetch clock reaches that cycle, faithfully
filling the micro-op cache, training predictors and touching data
caches along the way; the squash then restores registers, truncates
the store buffer, and resteers fetch.  Nested wrong-path mispredicts
resolve in time order, which is exactly what the variant-1 attack's
secret-dependent transient branch needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.backend.execute import Backend
from repro.cpu.config import CPUConfig
from repro.cpu.counters import PerfCounters
from repro.cpu.noise import NoiseModel
from repro.cpu.thread import ThreadContext
from repro.errors import SimFault
from repro.frontend.pipeline import (
    BLOCK_CPUID,
    BLOCK_FAULT,
    BLOCK_HALT,
    BLOCK_SEQ,
    BLOCK_STALL,
    BLOCK_TAKEN,
    FrontEnd,
)
from repro.isa.instruction import MacroOp, UopKind
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import MainMemory
from repro.memory.tlb import TLB
from repro.observe.events import (
    BRANCH_RESOLVE,
    FETCH_BLOCK,
    SQUASH,
    STORE_COMMIT,
    EventBus,
)
from repro.uopcache.cache import UopCache
from repro.uopcache.policies import make_policy


#: Micro-op kinds the block loop handles itself, bound once for its
#: identity tests (the rest go through ``Backend.execute``).
_NOP = UopKind.NOP
_PAUSE = UopKind.PAUSE
_MSROM_FLOW = UopKind.MSROM_FLOW
_JMP = UopKind.JMP
_LFENCE = UopKind.LFENCE
_MFENCE = UopKind.MFENCE
_CPUID = UopKind.CPUID
_HALT = UopKind.HALT
_RDTSC = UopKind.RDTSC

#: Sentinel for ``Core.reset(noise=...)``: "keep the current model".
_KEEP_NOISE = object()

_MASK = (1 << 64) - 1


@dataclass(slots=True)
class _Checkpoint:
    """Architectural + scoreboard state at a mispredicted branch."""

    seq: int
    regs: Dict[str, int]
    privilege: int
    fetch_priv: int
    kernel_link: List[int]
    rsb: List[int]
    reg_ready: Dict[str, int]
    exec_floor: int
    oldest_inflight_done: int
    dispatch_cycle: int
    dispatch_slots_used: int
    last_source: str


@dataclass(slots=True)
class _PendingSquash:
    """A discovered misprediction awaiting its resolution cycle."""

    seq: int
    resolve_cycle: int
    correct_rip: int
    checkpoint: _Checkpoint


@dataclass(slots=True)
class _SpecState:
    """Per-thread speculation bookkeeping."""

    seq: int = 0
    pending: List[_PendingSquash] = field(default_factory=list)
    head_seqs: List[int] = field(default_factory=list)  # macro heads in flight


class Core:
    """One physical core with up to two SMT hardware threads.

    Typical use::

        core = Core(CPUConfig.skylake(), program)
        delta = core.call("main")        # run until HALT, measure
        print(delta.uops_dsb, delta.uops_legacy)
    """

    MAX_BLOCKS = 20_000_000  # runaway-program guard

    def __init__(
        self,
        config: CPUConfig,
        program: Program,
        noise: Optional[NoiseModel] = None,
    ):
        self.config = config
        self.program = program
        self.noise = noise

        policy = make_policy(config.uop_cache_policy)
        self.uop_cache = UopCache(
            sets=config.uop_cache_sets,
            ways=config.uop_cache_ways,
            uops_per_line=config.uops_per_line,
            max_lines_per_region=config.max_lines_per_region,
            policy=policy,
            sharing=config.uop_cache_sharing,
            privilege_partition=config.privilege_partition_uop_cache,
            region_bytes=config.region_bytes,
        )
        self.hierarchy = MemoryHierarchy(
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            llc_latency=config.llc_latency,
            dram_latency=config.dram_latency,
            on_l1i_evict=self._on_l1i_evict,
            itlb_on_flush=self.uop_cache.flush,
            itlb_entries=config.itlb_entries,
            itlb_walk_latency=config.itlb_walk_latency,
            dtlb=(
                TLB(entries=config.dtlb_entries,
                    walk_latency=config.dtlb_walk_latency)
                if config.dtlb_enabled
                else None
            ),
        )
        self.memory = MainMemory()
        for base, payload in program.data.items():
            self.memory.load_image(base, payload)

        self.frontend = FrontEnd(config, program, self.uop_cache, self.hierarchy)
        self.backend = Backend(
            config,
            self.memory,
            self.hierarchy,
            rdtsc_jitter=noise.rdtsc_jitter if noise else None,
        )
        self.threads = (
            ThreadContext(thread_id=0),
            ThreadContext(thread_id=1),
        )
        self._spec = (_SpecState(), _SpecState())
        #: Observability bus (``None`` until :meth:`observe` attaches
        #: one) -- every hook site guards on this single attribute.
        self.observer: Optional[EventBus] = None

    # ------------------------------------------------------------------
    # lifecycle

    def reset(self, noise=_KEEP_NOISE) -> None:
        """Restore the core to its post-construction state.

        Registers, memory image, micro-op cache, cache hierarchy,
        predictors, store buffers, counters and speculation state all
        return to what ``__init__`` left them -- but the assembled
        program and the front end's memoized region decodes are kept,
        so nothing is re-assembled or re-decoded.  A trial on a reset
        core is byte-identical to one on a freshly built core (the
        parity tests assert this), at a fraction of the cost.

        ``noise`` swaps in a different :class:`NoiseModel` (or ``None``
        to disable noise); by default the existing model is kept and
        rewound to its seed, so reset trials replay the same noise
        sequence a fresh core would draw.

        Any :meth:`observe` subscribers are debugging aids, not
        simulation state, and are left alone.
        """
        if noise is not _KEEP_NOISE:
            self.noise = noise
        if self.noise is not None:
            self.noise.reseed()
        self.backend.rdtsc_jitter = (
            self.noise.rdtsc_jitter if self.noise else None
        )
        self.uop_cache.reset()
        self.hierarchy.reset()
        self.memory.clear()
        for base, payload in self.program.data.items():
            self.memory.load_image(base, payload)
        for buffer in self.backend.store_buffers.values():
            buffer.clear()
        self.backend.reset_store_timing()
        self.frontend.smt_active = False
        self.threads = (
            ThreadContext(thread_id=0),
            ThreadContext(thread_id=1),
        )
        self._spec = (_SpecState(), _SpecState())

    # ------------------------------------------------------------------
    # wiring

    def _on_l1i_evict(self, line_base: int) -> None:
        # Micro-op cache inclusion in the L1I (Section II-B).
        self.uop_cache.invalidate_code_range(
            line_base, line_base + self.hierarchy.l1i.line_size
        )

    # ------------------------------------------------------------------
    # observability

    def observe(self) -> EventBus:
        """The core's structured event bus, created on first use.

        Attaching the bus wires the front end and micro-op cache hook
        sites to it; until then (``self.observer is None``) every hook
        is a single attribute check, so unobserved cores pay nothing.
        See :mod:`repro.observe` for the consumers.
        """
        if self.observer is None:
            bus = EventBus()
            self.observer = bus
            self.frontend.observer = bus
            self.uop_cache.observer = bus
            self.backend.observer = bus
        return self.observer

    def unobserve(self) -> None:
        """Detach the event bus (and any subscribers) entirely."""
        self.observer = None
        self.frontend.observer = None
        self.uop_cache.observer = None
        self.backend.observer = None

    def _commit_hook(self, thread: ThreadContext, obs: Optional[EventBus]):
        """Store-commit callback for the drain sites (None when idle)."""
        if obs is None or not obs.wants(STORE_COMMIT):
            return None

        def _on_commit(entry, _obs=obs, _thread=thread) -> None:
            _obs.emit(
                STORE_COMMIT,
                _thread.fetch_clock,
                _thread.thread_id,
                seq=entry.seq,
                addr=entry.addr,
                size=entry.size,
                value=entry.value,
            )

        return _on_commit

    # ------------------------------------------------------------------
    # public conveniences

    def thread(self, thread_id: int = 0) -> ThreadContext:
        """Hardware-thread context."""
        return self.threads[thread_id]

    def counters(self, thread_id: int = 0) -> PerfCounters:
        """Live counter block of a thread."""
        return self.threads[thread_id].counters

    def write_reg(self, name: str, value: int, thread_id: int = 0) -> None:
        """Set an architectural register."""
        self.threads[thread_id].regs[name] = value & _MASK

    def read_reg(self, name: str, thread_id: int = 0) -> int:
        """Read an architectural register."""
        return self.threads[thread_id].regs[name]

    def read_mem(self, addr: int, size: int = 8) -> int:
        """Read committed memory (store buffers drain at halt)."""
        return self.memory.read(addr, size)

    def write_mem(self, addr: int, value: int, size: int = 8) -> None:
        """Write memory directly (harness-side setup)."""
        self.memory.write(addr, value, size)

    def addr_of(self, label: str) -> int:
        """Address of a program label."""
        return self.program.addr_of(label)

    def flush_uop_cache(self) -> None:
        """Architecturally flush the micro-op cache (iTLB-flush path)."""
        self.uop_cache.flush()

    def cycles(self, thread_id: int = 0) -> int:
        """Current cycle count of a thread (fetch/retire max)."""
        t = self.threads[thread_id]
        return max(t.fetch_clock, t.last_retire)

    # ------------------------------------------------------------------
    # running

    def call(
        self,
        entry: Union[str, int],
        thread_id: int = 0,
        regs: Optional[Dict[str, int]] = None,
        reset_clocks: bool = True,
        max_blocks: Optional[int] = None,
    ) -> PerfCounters:
        """Run one thread from ``entry`` until HALT retires.

        Microarchitectural state (caches, predictors, micro-op cache)
        persists across calls -- phases of an attack are separate
        calls.  Returns the counter delta for this call.

        The observer and noise model are read once per call: one
        attached or swapped mid-call (say, by an event subscriber)
        takes effect at the next call.
        """
        if isinstance(entry, str):
            entry = self.program.addr_of(entry)
        thread = self.threads[thread_id]
        if regs:
            for name, value in regs.items():
                thread.regs[name] = value & _MASK
        if reset_clocks:
            thread.reset_pipeline_clocks()
            # The store-drain schedule lives in the same clock domain
            # as the pipeline clocks; rebasing one without the other
            # would leave phantom in-flight commits from the last call.
            self.backend.reset_store_timing()
        thread.fetch_rip = entry
        thread.fetch_priv = thread.privilege
        thread.halted = False
        before = thread.counters.snapshot()
        limit = max_blocks if max_blocks is not None else self.MAX_BLOCKS
        blocks = 0
        step = self._step
        obs = self.observer
        noise = self.noise
        while not thread.halted:
            blocks += 1
            if blocks > limit:
                raise SimFault(
                    f"thread {thread_id} exceeded {limit} fetch blocks "
                    f"(runaway program?) at rip=0x{thread.fetch_rip:x}"
                )
            step(thread, obs, noise)
        return thread.counters.delta(before)

    def run_smt(
        self,
        entries: Tuple[Union[str, int], Union[str, int]],
        regs: Tuple[Optional[Dict[str, int]], Optional[Dict[str, int]]] = (None, None),
        reset_clocks: bool = True,
        max_blocks: Optional[int] = None,
    ) -> Tuple[PerfCounters, PerfCounters]:
        """Run both hardware threads concurrently until both halt.

        Fetch interleaves at block granularity, always advancing the
        thread whose fetch clock is behind -- a fair round-robin
        approximation of SMT front-end arbitration.  The micro-op
        cache switches into SMT mode (repartitioning under the static
        policy) for the duration.  As in :meth:`call`, the observer
        and noise model are read once per call.
        """
        resolved = tuple(
            self.program.addr_of(entry) if isinstance(entry, str) else entry
            for entry in entries
        )
        self.uop_cache.set_smt_active(True)
        self.frontend.smt_active = True
        if reset_clocks:
            self.backend.reset_store_timing()
        t0, t1 = self.threads
        befores = []
        for tid, thread in ((0, t0), (1, t1)):
            if regs[tid]:
                for name, value in regs[tid].items():
                    thread.regs[name] = value & _MASK
            if reset_clocks:
                thread.reset_pipeline_clocks()
            thread.fetch_rip = resolved[tid]
            thread.fetch_priv = thread.privilege
            thread.halted = False
            befores.append(thread.counters.snapshot())
        limit = max_blocks if max_blocks is not None else self.MAX_BLOCKS
        blocks = 0
        step = self._step
        obs = self.observer
        noise = self.noise
        while True:
            h0 = t0.halted
            h1 = t1.halted
            if h0 and h1:
                break
            blocks += 1
            if blocks > limit:
                raise SimFault(f"SMT run exceeded {limit} fetch blocks")
            # Advance the thread whose fetch clock is behind (ties go
            # to thread 0, matching min() over (t0, t1)).
            if h0:
                thread = t1
            elif h1 or t0.fetch_clock <= t1.fetch_clock:
                thread = t0
            else:
                thread = t1
            step(thread, obs, noise)
        self.frontend.smt_active = False
        self.uop_cache.set_smt_active(False)
        return (
            t0.counters.delta(befores[0]),
            t1.counters.delta(befores[1]),
        )

    # ------------------------------------------------------------------
    # the pipeline step

    def _step(
        self,
        thread: ThreadContext,
        obs: Optional[EventBus],
        noise: Optional[NoiseModel],
    ) -> None:
        """Fetch, execute and resolve one block for ``thread``.

        ``obs``/``noise`` are hoisted once per call by :meth:`call` /
        :meth:`run_smt`, so the hot path pays no attribute lookups for
        them.
        """
        spec = self._spec[thread.thread_id]
        self._sweep(thread, spec, obs)
        if thread.halted:
            return

        if obs is not None:
            # Attribution hints for clockless components (uop cache).
            self.uop_cache.obs_cycle = thread.fetch_clock
            self.uop_cache.obs_thread = thread.thread_id

        if noise is not None:
            noise.maybe_evict(self.uop_cache)

        (entry, steps, preds, n_uops, block_kind, next_rip, source,
         cycles) = self.frontend.fetch_block(thread)
        if obs is not None and obs.wants(FETCH_BLOCK):
            # Early fault blocks never charge the fetch clock; every
            # other block costs at least one cycle.
            charged = (
                0
                if block_kind == BLOCK_FAULT and not steps
                else max(cycles, 1)
            )
            obs.emit(
                FETCH_BLOCK,
                thread.fetch_clock,
                thread.thread_id,
                entry=entry,
                kind=block_kind,
                source=source,
                n_uops=n_uops,
                cycles=charged,
            )

        # Execute the block's micro-ops in fetch order.  Scoreboard
        # state lives in locals for the block and is written back to
        # the thread before each resolution (a misprediction
        # checkpoints it) and after the loop.  ``regs`` / ``reg_ready``
        # are only ever replaced by a squash, which the epilogue fires.
        halt_seq: Optional[int] = None
        # Target and completion cycle of a stalled indirect branch.
        stall_target: Optional[int] = None
        stall_cycle = 0
        cpuid_done = 0
        execute = self.backend.execute
        sbuf = self.backend.store_buffers[thread.thread_id]
        regs = thread.regs
        reg_ready = thread.reg_ready
        ready_at = reg_ready.get
        width = self.config.dispatch_width
        invisible = self.config.invisible_speculation
        head_seqs = spec.head_seqs
        # ``kill``: earliest resolution of a discovered misprediction
        # (resolutions append to ``pending``).  Under invisible
        # speculation (Section VII defenses) everything past it hides
        # its data-cache effects; fetch, and so the micro-op cache, is
        # untouched: the hole the paper's attack drives through.
        pending = spec.pending
        kill = min(p.resolve_cycle for p in pending) if pending else None
        hide = invisible and kill is not None
        fetch_cycle = thread.fetch_clock
        dispatch = thread.dispatch_cycle
        slots = thread.dispatch_slots_used
        floor = thread.exec_floor
        inflight = thread.oldest_inflight_done
        last_retire = thread.last_retire
        seq = spec.seq
        for step, pred in zip(steps, preds):
            macro, uops = step[0], step[1]
            head_seqs.append(seq + 1)
            for uop in uops:
                seq += 1
                # Dispatch: the first free slot at or after fetch, at
                # most ``dispatch_width`` micro-ops per cycle.
                if fetch_cycle > dispatch:
                    dispatch = fetch_cycle
                    slots = 1
                else:
                    slots += 1
                    if slots > width:
                        dispatch += 1
                        slots = 1
                start = dispatch
                for reg in uop.read_regs:
                    t = ready_at(reg, 0)
                    if t > start:
                        start = t
                if floor > start:
                    start = floor
                kind = uop.kind
                if kind is _NOP or kind is _PAUSE or kind is _MSROM_FLOW:
                    done = start + uop.latency
                elif kind is _JMP:
                    done = start + uop.latency
                    taken = True
                    actual = uop.target
                elif kind is _LFENCE or kind is _MFENCE or kind is _CPUID:
                    # Serialise against all older in-flight completions;
                    # a fence also holds younger micro-ops until it is
                    # done, and CPUID stalls fetch (see the epilogue).
                    if inflight > start:
                        start = inflight
                    done = start + uop.latency
                    if kind is _CPUID:
                        cpuid_done = done
                    elif done > floor:
                        floor = done
                elif kind is _HALT:
                    done = start + uop.latency
                    halt_seq = seq
                else:
                    if kind is _RDTSC and inflight > start:
                        start = inflight
                    suppressed = kill is not None and start >= kill
                    latency, taken, actual = execute(
                        uop, macro, seq, thread, regs, sbuf, start, suppressed,
                        suppressed or hide)
                    done = start + latency
                for reg in uop.write_regs:
                    reg_ready[reg] = done
                if done > inflight:
                    inflight = done
                if done > last_retire:
                    last_retire = done
                if (pred is not None and uop.resolves and uop is uops[0]
                        # A branch issuing at or after an older squash
                        # never executes: no training, no resteer.
                        and (kill is None or start < kill)):
                    thread.dispatch_cycle = dispatch
                    thread.dispatch_slots_used = slots
                    thread.exec_floor = floor
                    thread.oldest_inflight_done = inflight
                    self._handle_resolution(
                        thread, spec, macro, seq, pred[1], taken, actual, done,
                        obs)
                    if pending:
                        kill = min(p.resolve_cycle for p in pending)
                        hide = invisible
                    if pred[1] is None:
                        stall_target = actual
                        stall_cycle = done
        spec.seq = seq
        thread.dispatch_cycle = dispatch
        thread.dispatch_slots_used = slots
        thread.exec_floor = floor
        thread.oldest_inflight_done = inflight
        thread.last_retire = last_retire
        thread.counters.retired_uops += n_uops
        thread.counters.retired_instructions += len(steps)

        # Block epilogue: where does fetch go next, and when?
        if block_kind is BLOCK_SEQ or block_kind is BLOCK_TAKEN:
            if next_rip is None:  # unreachable guard
                raise SimFault(f"no next rip after block at 0x{entry:x}")
            thread.fetch_rip = next_rip
        elif block_kind == BLOCK_STALL:
            if stall_target is None:
                if spec.pending:
                    # The stalled indirect is itself transient: wait for
                    # the older squash to resteer fetch.
                    self._wait_for_resolution(thread, spec, obs)
                    return
                raise SimFault(
                    f"indirect branch at 0x{entry:x} never resolved"
                )
            thread.fetch_rip = stall_target
            thread.fetch_clock = max(
                thread.fetch_clock, stall_cycle + self.config.redirect_penalty
            )
        elif block_kind == BLOCK_CPUID:
            # Fetch of younger instructions stalls until the serialising
            # instruction completes -- unless a squash preempts it.
            stall_until = cpuid_done
            if spec.pending:
                stall_until = min(
                    stall_until, min(p.resolve_cycle for p in spec.pending)
                )
            thread.fetch_clock = max(thread.fetch_clock, stall_until)
            thread.fetch_rip = next_rip  # type: ignore[assignment]
            self._sweep(thread, spec, obs)
        elif block_kind == BLOCK_HALT:
            if spec.pending:
                self._wait_for_resolution(thread, spec, obs)
            else:
                thread.halted = True
                sbuf.drain_all(self.memory, self._commit_hook(thread, obs))
                spec.head_seqs.clear()
                return
        elif block_kind == BLOCK_FAULT:
            if spec.pending:
                # Transient wild fetch / privilege violation: hardware
                # just stalls fetch until the squash redirects it.
                self._wait_for_resolution(thread, spec, obs)
            else:
                raise SimFault(
                    f"wild fetch at 0x{thread.fetch_rip:x} "
                    f"(priv={thread.fetch_priv})"
                )
        else:  # pragma: no cover
            raise SimFault(f"unknown block kind {block_kind}")

        # A HALT only takes effect if it survived any squash above
        # (wrong-path HALTs are rolled back with everything else).
        halt_committed = (
            halt_seq is not None and halt_seq <= spec.seq and not spec.pending
        )
        if halt_committed and not thread.halted:
            thread.halted = True
            sbuf.drain_all(self.memory, self._commit_hook(thread, obs))
            spec.head_seqs.clear()
            return

        # IDQ backpressure: fetch may run ahead of dispatch only by the
        # IDQ's drain time; past that the front end stalls.
        config = self.config
        ahead_limit = config.idq_size // config.dispatch_width
        if thread.dispatch_cycle - thread.fetch_clock > ahead_limit:
            thread.fetch_clock = thread.dispatch_cycle - ahead_limit

        # Commit stores that can no longer be squashed.  (The list test
        # skips the ``__len__`` call ``if sbuf:`` costs on every block.)
        if sbuf._entries:
            safe = min(p.seq for p in spec.pending) if spec.pending else spec.seq
            sbuf.drain_upto(safe, self.memory, self._commit_hook(thread, obs))
        if not spec.pending:
            spec.head_seqs.clear()

        # ROB capacity bounds the transient window.
        if spec.pending:
            oldest = min(spec.pending, key=lambda p: p.seq)
            if spec.seq - oldest.seq > self.config.rob_size:
                self._wait_for_resolution(thread, spec, obs)

    # ------------------------------------------------------------------
    # speculation machinery

    def _handle_resolution(
        self,
        thread: ThreadContext,
        spec: _SpecState,
        macro: MacroOp,
        seq: int,
        predicted: Optional[int],
        taken: bool,
        actual: Optional[int],
        resolve_cycle: int,
        obs: Optional[EventBus],
    ) -> None:
        """Train the predictor with a resolved branch (the micro-op at
        ``seq``, completing at ``resolve_cycle``) and, if the front end
        ``predicted`` another target, schedule the squash."""
        mispredicted = predicted is not None and predicted != actual
        if obs is not None and obs.wants(BRANCH_RESOLVE):
            obs.emit(
                BRANCH_RESOLVE,
                resolve_cycle,
                thread.thread_id,
                rip=macro.addr,
                predicted=predicted,
                taken=taken,
                actual=actual,
                mispredicted=mispredicted,
            )
        thread.predictor.resolve(
            macro, taken, actual if actual is not None else 0, mispredicted
        )
        if mispredicted:
            thread.counters.branch_mispredicts += 1
            checkpoint = self._capture(thread, seq)
            spec.pending.append(
                _PendingSquash(seq, resolve_cycle, actual, checkpoint)
            )

    def _capture(self, thread: ThreadContext, seq: int) -> _Checkpoint:
        return _Checkpoint(
            seq=seq,
            regs=dict(thread.regs),
            privilege=thread.privilege,
            fetch_priv=thread.fetch_priv,
            kernel_link=list(thread.kernel_link),
            rsb=thread.predictor.rsb.snapshot(),
            reg_ready=dict(thread.reg_ready),
            exec_floor=thread.exec_floor,
            oldest_inflight_done=thread.oldest_inflight_done,
            dispatch_cycle=thread.dispatch_cycle,
            dispatch_slots_used=thread.dispatch_slots_used,
            last_source=thread.last_source,
        )

    def _sweep(
        self,
        thread: ThreadContext,
        spec: _SpecState,
        obs: Optional[EventBus],
    ) -> None:
        """Fire every pending squash whose resolution time has come."""
        while spec.pending:
            nxt = min(spec.pending, key=lambda p: p.resolve_cycle)
            if nxt.resolve_cycle > thread.fetch_clock:
                return
            self._squash(thread, spec, nxt, obs)

    def _wait_for_resolution(
        self,
        thread: ThreadContext,
        spec: _SpecState,
        obs: Optional[EventBus],
    ) -> None:
        """Stall fetch until the earliest pending squash can fire."""
        earliest = min(p.resolve_cycle for p in spec.pending)
        thread.fetch_clock = max(thread.fetch_clock, earliest)
        self._sweep(thread, spec, obs)

    def _squash(
        self,
        thread: ThreadContext,
        spec: _SpecState,
        pending: _PendingSquash,
        obs: Optional[EventBus],
    ) -> None:
        cp = pending.checkpoint
        squashed = spec.seq - pending.seq
        if obs is not None and obs.wants(SQUASH):
            obs.emit(
                SQUASH,
                pending.resolve_cycle,
                thread.thread_id,
                seq=pending.seq,
                squashed=squashed,
                correct_rip=pending.correct_rip,
            )
        thread.counters.squashes += 1
        thread.counters.squashed_uops += squashed
        thread.counters.retired_uops -= squashed
        while spec.head_seqs and spec.head_seqs[-1] > pending.seq:
            spec.head_seqs.pop()
            thread.counters.retired_instructions -= 1

        thread.regs = dict(cp.regs)
        thread.privilege = cp.privilege
        thread.fetch_priv = cp.fetch_priv
        thread.kernel_link = list(cp.kernel_link)
        thread.predictor.rsb.restore(cp.rsb)
        thread.reg_ready = dict(cp.reg_ready)
        thread.exec_floor = cp.exec_floor
        thread.oldest_inflight_done = cp.oldest_inflight_done
        thread.dispatch_cycle = cp.dispatch_cycle
        thread.dispatch_slots_used = cp.dispatch_slots_used
        thread.last_source = cp.last_source

        self.backend.store_buffers[thread.thread_id].truncate(pending.seq)
        spec.seq = pending.seq
        spec.pending = [p for p in spec.pending if p.seq < pending.seq]

        thread.fetch_rip = pending.correct_rip
        thread.fetch_clock = pending.resolve_cycle + self.config.mispredict_penalty
        thread.last_retire = max(thread.last_retire, thread.fetch_clock)
