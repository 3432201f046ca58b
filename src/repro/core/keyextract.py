"""End-to-end key extraction from a square-and-multiply victim (the
classic code-path side channel, carried over the micro-op cache).

The victim computes ``base ** key mod (2^31 - 1)`` with the textbook
left-to-right square-and-multiply loop: every exponent bit costs one
``square``; a *one* bit additionally calls ``multiply``.  The two
routines live at different addresses and therefore occupy different
micro-op cache sets -- so, on an SMT processor with a competitively
shared micro-op cache (AMD Zen, Section V-B), a sibling-thread spy that
probes *multiply's* sets sees its probe latency spike exactly when a
one bit is processed.

The attack mirrors how such key extractions work in practice:

1. the spy calibrates iteration timings on its own copy of the binary
   with chosen keys (all-ones, alternating) to learn the durations of
   1-iterations and 0-iterations;
2. during the victim's real run it records a timeline of probe
   latencies;
3. offline, spikes mark the one bits and inter-spike gaps count the
   zero bits between them.

The arithmetic is real (Mersenne-prime modulus, so reduction needs
only shifts/ands/adds our ISA has); tests verify the victim's result
against Python's ``pow`` and the recovered key against the truth.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.session import AttackSession

#: Mersenne modulus: products of 31-bit operands fit in 62 bits, and
#: reduction is (x & M) + (x >> 31), twice, plus one conditional
#: subtract -- all expressible in the synthetic ISA.
MODULUS = (1 << 31) - 1

_SQUARE_ARENA = 0x60_0000  # square's code: sets 0..7
_MULTIPLY_ARENA = 0x62_0000  # multiply's code: sets 16..23
_SPY_ARENA = 0x44_0000

_MUL_SETS = tuple(range(16, 24))
_SQ_SETS = tuple(range(0, 8))
#: The spy probes the sets of multiply's *limb loop* (regions 3..7),
#: which the routine re-walks every call -- the strongest contention.
_PROBE_SETS = tuple(range(19, 24))


@dataclass
class ExtractionResult:
    """Outcome of one key-recovery run."""

    true_key: int
    recovered_key: int
    nbits: int
    modexp_result: int
    spikes: List[int]

    @property
    def bit_errors(self) -> int:
        """Hamming distance between truth and recovery."""
        return bin(self.true_key ^ self.recovered_key).count("1")

    @property
    def exact(self) -> bool:
        """True when the key was recovered perfectly."""
        return self.true_key == self.recovered_key


class ModexpVictim(AttackSession):
    """Builds and drives the victim + spy program pair."""

    def __init__(
        self,
        nbits: int = 16,
        spy_samples: int = 500,
        limb_rounds: int = 8,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        if not 4 <= nbits <= 63:
            raise ConfigError("nbits must be 4..63")
        self.nbits = nbits
        self.spy_samples = spy_samples
        self.limb_rounds = limb_rounds
        super().__init__(config or CPUConfig.zen(), noise)

    # ------------------------------------------------------------------
    # program construction

    def _emit_modmul_routine(
        self, asm: Assembler, name: str, arena: int, first_set: int,
        operand: str,
    ) -> None:
        """One modular-multiply routine: ``r1 = r1 * operand mod M``.

        The real arithmetic occupies the first regions; a limb loop
        (standing in for multi-precision work) walks the tail regions
        ``limb_rounds`` times, giving the routine the repeated-fetch
        behaviour of a real bignum inner loop.  The code spans eight
        consecutive 32-byte regions => eight consecutive cache sets.
        """
        region = lambda k: arena + (first_set + k) * 32

        asm.org(region(0))
        asm.label(name)
        asm.emit(enc.mov("r5", "r1"))
        asm.emit(enc.alu("imul", "r5", operand))  # <= 62 bits
        asm.emit(enc.mov("r6", "r5"))
        asm.emit(enc.alu_imm("shr", "r6", 31))
        asm.emit(enc.alu("and", "r5", "r3"))
        asm.emit(enc.jmp(f"{name}_fold"))

        asm.org(region(1))
        asm.label(f"{name}_fold")
        asm.emit(enc.alu("add", "r5", "r6"))
        asm.emit(enc.mov("r6", "r5"))
        asm.emit(enc.alu_imm("shr", "r6", 31))
        asm.emit(enc.alu("and", "r5", "r3"))
        asm.emit(enc.alu("add", "r5", "r6"))
        asm.emit(enc.jmp(f"{name}_cond"))

        asm.org(region(2))
        asm.label(f"{name}_cond")
        asm.emit(enc.cmp_reg("r5", "r3"))
        asm.emit(enc.jcc("b", f"{name}_limbs"))
        asm.emit(enc.alu("sub", "r5", "r3"))
        asm.emit(enc.jmp(f"{name}_limbs"))

        asm.org(region(3))
        asm.label(f"{name}_limbs")
        asm.emit(enc.mov("r1", "r5"))
        asm.emit(enc.mov_imm("r9", self.limb_rounds))
        asm.emit(enc.jmp(f"{name}_limb_top"))

        bank2 = lambda k: arena + 1024 + (first_set + k) * 32
        asm.org(region(4))
        asm.label(f"{name}_limb_top")
        asm.emit(enc.alu_imm("add", "r6", 3))
        asm.emit(enc.nop(5))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_l5"))
        asm.org(region(5))
        asm.label(f"{name}_l5")
        asm.emit(enc.alu_imm("xor", "r6", 0x1D))
        asm.emit(enc.nop(5))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_l6"))
        asm.org(region(6))
        asm.label(f"{name}_l6")
        asm.emit(enc.alu_imm("sub", "r6", 1))
        asm.emit(enc.nop(5))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_l7"))
        asm.org(region(7))
        asm.label(f"{name}_l7")
        asm.emit(enc.alu_imm("or", "r6", 7))
        asm.emit(enc.jmp(f"{name}_b4"))
        # second half of the loop body: one way-stride higher, so the
        # routine holds *two* ways of each of its sets while looping
        asm.org(bank2(4))
        asm.label(f"{name}_b4")
        asm.emit(enc.alu_imm("add", "r6", 5))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_b5"))
        asm.org(bank2(5))
        asm.label(f"{name}_b5")
        asm.emit(enc.alu_imm("xor", "r6", 0x2B))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_b6"))
        asm.org(bank2(6))
        asm.label(f"{name}_b6")
        asm.emit(enc.alu_imm("sub", "r6", 2))
        asm.emit(enc.nop(5))
        asm.emit(enc.jmp(f"{name}_b7"))
        asm.org(bank2(7))
        asm.label(f"{name}_b7")
        asm.emit(enc.dec("r9"))
        asm.emit(enc.jcc("nz", f"{name}_limb_top"))
        asm.emit(enc.ret())

    def build_program(self):
        from repro.core.exploitgen import FootprintSpec, _emit_regions, neutral_set

        asm = Assembler()
        asm.reserve("spy_log", 16 * (self.spy_samples + 1))
        asm.reserve("victim_done", 8)
        # debug aid: per-iteration victim timestamps (harness-side
        # ground truth for tests; the spy never reads this)
        asm.reserve("victim_iters", 8 * 70)

        # Victim routines (square: sets 0..7; multiply: sets 16..23).
        self._emit_modmul_routine(asm, "fn_square", _SQUARE_ARENA,
                                  _SQ_SETS[0], "r1")
        self._emit_modmul_routine(asm, "fn_multiply", _MULTIPLY_ARENA,
                                  _MUL_SETS[0], "r2")

        # Victim main loop (r2 = base, r7 = key, r4 = bit index).
        asm.org(0x40_0000 + 26 * 32)
        asm.label("victim")
        # spin-up: give the sibling spy time to warm its probe before
        # the first exponent bit is processed (a real victim would not
        # be so courteous; a real spy simply waits for the victim's
        # process to start, which our fixed-start SMT run cannot model)
        asm.emit(enc.mov_imm("r0", 6000))
        asm.label("v_spin")
        asm.emit(enc.dec("r0"))
        asm.emit(enc.jcc("nz", "v_spin"))
        asm.emit(enc.mov_imm("r1", 1))
        asm.emit(enc.mov_imm("r3", MODULUS, width=64))
        asm.emit(enc.mov_imm("r4", self.nbits - 1))
        asm.emit(enc.mov_imm("r13", asm.resolve("victim_iters"), width=64))
        asm.label("v_loop")
        asm.emit(enc.rdtsc("r14"))
        asm.emit(enc.store("r14", "r13"))
        asm.emit(enc.alu_imm("add", "r13", 8))
        asm.emit(enc.call("fn_square"))
        asm.emit(enc.mov("r8", "r7"))
        asm.emit(enc.alu("shr", "r8", "r4"))
        asm.emit(enc.alu_imm("and", "r8", 1))
        asm.emit(enc.test_reg("r8", "r8"))
        asm.emit(enc.jcc("z", "v_skip"))
        asm.emit(enc.call("fn_multiply"))
        asm.label("v_skip")
        # inter-iteration work (message formatting, loop bookkeeping of
        # a real bignum library): paces iterations so they span several
        # spy sampling periods
        asm.emit(enc.mov_imm("r0", 150))
        asm.label("v_pace")
        asm.emit(enc.dec("r0"))
        asm.emit(enc.jcc("nz", "v_pace"))
        asm.emit(enc.test_reg("r4", "r4"))
        asm.emit(enc.jcc("z", "v_done"))
        asm.emit(enc.dec("r4"))
        asm.emit(enc.jmp("v_loop"))
        asm.label("v_done")
        asm.emit(enc.mov_imm("r10", asm.resolve("victim_done"), width=64))
        asm.emit(enc.rdtsc("r11"))
        asm.emit(enc.store("r11", "r10"))
        asm.emit(enc.halt())

        # Spy: timestamped probe loop over multiply's sets.
        # cheap-to-fetch probe: the spy needs a short sampling period,
        # so no LCP padding and a single NOP per region
        # all eight ways: the victim's routine only brings one line
        # per set, so the spy must leave it no spare way to land in
        spy_spec = FootprintSpec(
            _PROBE_SETS, 8, _SPY_ARENA,
            nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
        )
        prolog = _SPY_ARENA + 9 * spy_spec.way_stride + neutral_set(spy_spec) * 32
        asm.org(prolog)
        asm.label("spy")
        asm.emit(enc.mov_imm("r12", self.spy_samples))
        asm.emit(enc.mov_imm("r11", asm.resolve("spy_log"), width=64))
        asm.label("spy_loop")
        asm.emit(enc.rdtsc("r14"))
        asm.emit(enc.jmp("spyp_r0"))
        _emit_regions(asm, "spyp", spy_spec, "spy_end")
        asm.org(prolog + spy_spec.way_stride)
        asm.label("spy_end")
        asm.emit(enc.rdtsc("r15"))
        asm.emit(enc.alu("sub", "r15", "r14"))
        asm.emit(enc.store("r14", "r11"))
        asm.emit(enc.store("r15", "r11", disp=8))
        asm.emit(enc.alu_imm("add", "r11", 16))
        asm.emit(enc.dec("r12"))
        asm.emit(enc.jcc("nz", "spy_loop"))
        asm.emit(enc.halt())

        from repro.lint.taint import SecretClaim

        # The exponent arrives in r7 at the victim's entry; every bit
        # conditionally calls fn_multiply -- the canonical secret-bit
        # jump.  The stores (iteration timestamps, done flag) pace a
        # tainted loop, so the store-buffer drain pattern leaks too.
        self._claims = [
            SecretClaim(
                name="exponent", entry="victim", register="r7",
                leaks_to=("dsb", "itlb", "sb"),
            )
        ]
        return asm.assemble(entry="victim")

    # ------------------------------------------------------------------
    # running

    def run_pair(self, key: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Run victim (key) and spy concurrently; returns the victim's
        modexp result and the spy's (timestamp, elapsed) samples."""
        base = 0x12345
        self._run_smt(
            ("victim", "spy"),
            regs=({"r2": base, "r7": key}, None),
        )
        result = self.core.read_reg("r1", thread_id=0)
        log = self.core.addr_of("spy_log")
        samples = []
        for i in range(self.spy_samples):
            stamp = self.core.read_mem(log + 16 * i)
            elapsed = self._elapsed(log + 16 * i + 8)
            samples.append((stamp, elapsed))
        return result, samples

    @property
    def secret_values(self) -> Tuple[int, int]:
        """The all-zeros key never takes the multiply arm and the
        all-ones key always does, so the divergence between the two
        runs is exactly the square-and-multiply fetch difference.
        (Adjacent keys such as 0x8000/0x8001 both fetch every path at
        least once and are indistinguishable at the event-*set*
        level.)"""
        return (0, (1 << self.nbits) - 1)

    def secret_episode(self, key: int) -> None:
        """One victim/spy run on ``key`` (lint's XC004 differential)."""
        self.setup()
        self.run_pair(key)


class KeyExtractor:
    """Calibrates on chosen keys, then recovers an unknown key."""

    def __init__(self, nbits: int = 16, config: Optional[CPUConfig] = None,
                 noise: Optional[NoiseModel] = None):
        self.nbits = nbits
        self.config = config or CPUConfig.zen()
        self.noise = noise
        self.d_one: Optional[float] = None
        self.d_zero: Optional[float] = None
        self._victim: Optional[ModexpVictim] = None

    def reset(self) -> None:
        """Return to the just-constructed state: drop the fitted
        thresholds and reset the victim session (kept assembled for
        reuse).  Makes the extractor poolable via
        :class:`repro.session.SessionPool`."""
        self.d_one = None
        self.d_zero = None
        if self._victim is not None:
            self._victim.reset()

    @property
    def core(self):
        """The victim's core; the victim is built on first use."""
        if self._victim is None:
            self._victim_session()
        return self._victim.core

    def _victim_session(self) -> ModexpVictim:
        """The victim + spy pair, built once and reused via reset().

        A reset victim is byte-identical to a fresh one (the session
        layer's parity guarantee), so every run still starts from the
        same cold-cache state the extraction offsets were tuned for --
        without paying program assembly per run.
        """
        if self._victim is None:
            self._victim = ModexpVictim(nbits=self.nbits, config=self.config,
                                        noise=self.noise)
        else:
            self._victim.reset()
        return self._victim

    @staticmethod
    def _spikes(samples: List[Tuple[int, int]]) -> List[int]:
        """Timestamps of probe passes that observed a multiply's
        eviction burst.

        The baseline (all probes hitting) is the sample median; a
        multiply's wear-down evicts several spy lines at once, pushing
        the probe well above it.  Single leftover-eviction samples at
        the start of a zero iteration stay below the margin.
        """
        samples = samples[1:]  # drop the spy's cold warm-up pass
        active = sorted(e for _, e in samples if e > 0)
        if not active:
            return []
        baseline = active[len(active) // 2]
        threshold = baseline + 26
        if active[-1] <= threshold:
            return []
        return [t for t, e in samples if e > threshold]

    @staticmethod
    def _burst_leaders(spikes: List[int], min_gap: float) -> List[int]:
        leaders = []
        for t in spikes:
            if not leaders or t - leaders[-1] > min_gap:
                leaders.append(t)
        return leaders

    def _pattern_key(self, period: int) -> int:
        """A key whose one bits repeat every ``period`` positions,
        MSB-first (e.g. period 2 -> 1010..., period 3 -> 100100...)."""
        key = 0
        for i in range(self.nbits):
            if i % period == 0:
                key |= 1 << (self.nbits - 1 - i)
        return key

    def _leader_gap(self, key: int, min_gap: float) -> float:
        _, samples = self._victim_session().run_pair(key)
        spikes = self._spikes(samples)
        leaders = self._burst_leaders(spikes, min_gap=min_gap)
        gaps = [b - a for a, b in zip(leaders, leaders[1:])]
        if not gaps:
            raise RuntimeError(
                f"calibration key {key:#x} produced too few bursts"
            )
        return float(statistics.median(gaps))

    def calibrate(self) -> Tuple[float, float]:
        """Learn 1-iteration and 0-iteration durations from chosen-key
        runs on the attacker's own copy of the binary.

        Uses sparse patterns (1010..., 100100...) whose multiply bursts
        stay isolated: the leader gaps measure D1 + D0 and D1 + 2*D0
        respectively, which solve for both durations.
        """
        gap_a = self._leader_gap(self._pattern_key(2), min_gap=250)
        gap_b = self._leader_gap(self._pattern_key(3), min_gap=250)
        d_zero = max(gap_b - gap_a, 1.0)
        d_one = max(gap_a - d_zero, 1.0)
        self.d_one, self.d_zero = d_one, d_zero
        return self.d_one, self.d_zero

    def extract(self, key: int) -> ExtractionResult:
        """Run the victim with ``key`` and recover it from the spy's
        timeline.  The key's MSB must be set (standard for exponents)."""
        if key >> (self.nbits - 1) != 1:
            raise ConfigError("key MSB must be set")
        if self.d_one is None:
            self.calibrate()
        victim = self._victim_session()
        result, samples = victim.run_pair(key)
        spikes = self._spikes(samples)
        leaders = self._burst_leaders(spikes, min_gap=self.d_one * 0.6)

        bits: List[int] = []
        if leaders:
            bits.append(1)  # MSB: the first multiply
            # 1-iteration durations drift upward over a run as the
            # set contention heats up; track them adaptively so the
            # zero-count quantisation stays centred.
            d_one = self.d_one
            for a, b in zip(leaders, leaders[1:]):
                gap = b - a
                zeros = max(0, round((gap - d_one) / self.d_zero))
                bits.extend([0] * zeros)
                bits.append(1)
                implied = gap - zeros * self.d_zero
                if abs(implied - d_one) < self.d_zero / 2:
                    d_one = 0.6 * d_one + 0.4 * implied
        # bits after the last multiply are zeros; the key width is public
        if len(bits) > self.nbits:
            bits = bits[: self.nbits]
        bits.extend([0] * (self.nbits - len(bits)))

        recovered = 0
        for bit in bits:
            recovered = (recovered << 1) | bit
        return ExtractionResult(
            true_key=key,
            recovered_key=recovered,
            nbits=self.nbits,
            modexp_result=result,
            spikes=leaders,
        )
