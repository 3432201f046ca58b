"""User/kernel cross-domain channel (Section V-A, "Leaking Information
across Privilege Boundaries").

The spy makes periodic system calls; the kernel routine makes a
*secret-dependent* call to one of two internal routines whose code
occupies either the tiger sets (secret bit 1) or the zebra sets
(secret bit 0) of the micro-op cache.  Because the micro-op cache is
not flushed at the privilege boundary, the spy infers the bit by
timing its own user-space tiger afterwards.

The "secret" lives in kernel memory; the harness writes it per bit to
model whatever kernel state steers the secret-dependent call.  The
Section VIII mitigations (flush at domain crossings, privilege-level
partitioning) are exercised against exactly this channel by the
``mitigations`` entry of :data:`repro.harness.experiments.ARTIFACTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.covert import check_channel_params
from repro.core.exploitgen import (
    FootprintSpec, emit_chain, emit_probe, tiger_zebra_sets,
)
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint.gadgets import ChainClaim, PairClaim
from repro.lint.taint import SecretClaim
from repro.session import ChannelSession

SPY_ARENA = 0x44_0000
KERNEL_BASE = 0xC0_0000
KTIGER_ARENA = 0xC4_0000
KZEBRA_ARENA = 0xC8_0000
KERNEL_END = 0xD0_0000


@dataclass
class CrossDomainParams:
    """Channel knobs; ``syscalls_per_sample`` is how many times the spy
    triggers the kernel routine before each probe."""

    nsets: int = 8
    nways: int = 6
    samples: int = 5
    syscalls_per_sample: int = 3
    prime_reps: int = 1
    calibration_rounds: int = 8

    def __post_init__(self) -> None:
        # the spy's tiger and the kernel routines use the covert
        # channel's striped-set layout
        check_channel_params(self)


class CrossDomainChannel(ChannelSession):
    """Covert channel across the user/kernel privilege boundary."""

    def __init__(
        self,
        params: Optional[CrossDomainParams] = None,
        config: Optional[CPUConfig] = None,
        noise: Optional[NoiseModel] = None,
    ):
        self.params = params or CrossDomainParams()
        super().__init__(config or CPUConfig.skylake(), noise)

    # ------------------------------------------------------------------

    def build_program(self):
        p = self.params
        tiger_sets, zebra_sets = tiger_zebra_sets(p.nsets)
        asm = Assembler()
        asm.reserve("probe_result", 8)
        asm.reserve("kernel_secret", 8)

        # Spy: user-space probe over the tiger sets, plus a syscall stub.
        probe_spec = FootprintSpec(tiger_sets, p.nways, SPY_ARENA)
        emit_probe(asm, "probe", probe_spec, "probe_result")
        asm.org(SPY_ARENA + 12 * 1024)
        asm.label("invoke")
        asm.emit(enc.syscall())
        asm.emit(enc.halt())

        # Kernel: dispatch on the secret, then run one of two internal
        # routines with disjoint micro-op cache footprints.
        asm.org(KERNEL_BASE + 31 * 32)
        asm.label("kernel_entry")
        asm.emit(enc.mov_imm("r12", asm.resolve("kernel_secret"), width=64))
        asm.emit(enc.load("r11", "r12"))
        asm.emit(enc.test_reg("r11", "r11"))
        asm.emit(enc.jcc("nz", "k_routine_one"))
        asm.emit(enc.jmp("k_routine_zero"))
        ktiger_spec = FootprintSpec(tiger_sets, p.nways, KTIGER_ARENA)
        kzebra_spec = FootprintSpec(zebra_sets, p.nways, KZEBRA_ARENA)
        emit_chain(asm, "k_routine_one", ktiger_spec, exit_kind="sysret")
        emit_chain(asm, "k_routine_zero", kzebra_spec, exit_kind="sysret")
        self._claims = [
            ChainClaim("probe", probe_spec, "probe"),
            ChainClaim("k_routine_one", ktiger_spec, "tiger"),
            ChainClaim("k_routine_zero", kzebra_spec, "zebra"),
        ]
        # Privilege-level partitioning maps kernel and user code into
        # disjoint cache halves -- the mitigation working as designed --
        # so the cross-domain conflict only holds without it.  The
        # disjointness of the zebra survives either way.
        self._claims += [PairClaim("k_routine_zero", "probe", "disjoint")]
        if not self.config.privilege_partition_uop_cache:
            self._claims.append(
                PairClaim("k_routine_one", "probe", "conflict")
            )
        # The kernel's dispatch loads kernel_secret and steers fetch
        # into the tiger or zebra routine; both sides of the dispatch
        # are the secret-dependent fetch surface the spy times.
        self._claims += [
            SecretClaim(
                name="kernel_secret", entry="kernel_entry",
                label="kernel_secret", leaks_to=("dsb", "itlb"),
            )
        ]
        prog = asm.assemble(entry="probe")
        prog.mark_kernel(KERNEL_BASE, KERNEL_END)
        return prog

    def _send(self, bit: int) -> None:
        """The kernel transmits by executing its secret-dependent path."""
        self.core.write_mem(self.core.addr_of("kernel_secret"), bit)
        for _ in range(self.params.syscalls_per_sample):
            self._call("invoke")

    def secret_episode(self, bit: int) -> None:
        """The kernel sends ``bit`` into an unprimed cache, then the spy
        probes (lint's XC004 differential)."""
        self.setup()
        self._send(bit)
        self._call("probe")

    def _episode(self, bit: int) -> int:
        """Prime the spy's tiger, let the kernel send ``bit``, and time
        the probe."""
        for _ in range(self.params.prime_reps):
            self._call("probe")
        self._send(bit)
        return self._probe_time()

    @property
    def _votes(self) -> int:
        return self.params.samples
