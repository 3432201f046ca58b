"""Integration tests for the Section VI transient-execution attacks."""

import pytest

from repro.core.transient import (
    ClassicSpectreV1,
    LfenceBypass,
    UopCacheSpectreV1,
)
from repro.cpu.config import CPUConfig


class TestUopCacheSpectreV1:
    def test_leaks_single_byte(self):
        attack = UopCacheSpectreV1(secret=b"\xa5", samples=3)
        stats = attack.leak()
        assert stats.leaked == b"\xa5"
        assert stats.byte_accuracy == 1.0

    def test_leaks_multi_byte_secret(self):
        attack = UopCacheSpectreV1(secret=b"\x3c\xc3", samples=3)
        stats = attack.leak()
        assert stats.leaked == b"\x3c\xc3"
        assert stats.bit_errors == 0

    def test_calibration_is_separable(self):
        attack = UopCacheSpectreV1(secret=b"\x00")
        timing = attack.calibrate(rounds=4)
        assert timing.delta > 100

    def test_no_llc_signal(self):
        """Stealthiness: the attack makes far fewer LLC references than
        the classic variant (Table II's point)."""
        secret = b"\x5a"
        uop_stats = UopCacheSpectreV1(secret=secret, samples=3).leak()
        classic_stats = ClassicSpectreV1(secret=secret).leak()
        assert uop_stats.counters.llc_refs < classic_stats.counters.llc_refs / 3

    def test_faster_than_classic(self):
        secret = b"\x5a\xa5"
        uop = UopCacheSpectreV1(secret=secret, samples=3).leak()
        classic = ClassicSpectreV1(secret=secret).leak()
        assert uop.total_cycles < classic.total_cycles

    def test_survives_privilege_partitioning(self):
        """Section VIII: privilege partitioning does not stop variant-1."""
        attack = UopCacheSpectreV1(
            secret=b"\x99",
            config=CPUConfig.skylake(privilege_partition_uop_cache=True),
            samples=3,
        )
        assert attack.leak().byte_accuracy == 1.0

    def test_victim_returns_error_architecturally(self):
        """The out-of-bounds call must not leak architecturally."""
        attack = UopCacheSpectreV1(secret=b"\x7e")
        attack.calibrate(rounds=2)
        attack._call("invoke_victim", regs={"r1": 2000, "r2": 0})
        # r4 (the transient secret register) must hold no secret data
        assert attack.core.read_reg("r4") != 0x7E


class TestClassicSpectreV1:
    def test_leaks_byte_for_byte(self):
        attack = ClassicSpectreV1(secret=b"\xa5\x3c")
        stats = attack.leak()
        assert stats.leaked == b"\xa5\x3c"

    def test_lfence_mitigates(self):
        """Intel's recommended fence defeats the data-cache variant."""
        attack = ClassicSpectreV1(secret=b"\xa5\x3c", lfence=True)
        stats = attack.leak()
        assert stats.byte_accuracy < 1.0

    def test_uses_llc_disclosure(self):
        stats = ClassicSpectreV1(secret=b"\x42").leak()
        assert stats.counters.llc_refs > 200  # flush+reload traffic


class TestLfenceBypass:
    @pytest.fixture(scope="class")
    def fig10(self):
        attack = LfenceBypass()
        return {name: attack.measure(fence, rounds=5) for name, fence in
                (("none", "nf"), ("lfence", "lf"), ("cpuid", "cp"))}

    def test_no_fence_leaks(self, fig10):
        assert fig10["none"].signal > 100

    def test_lfence_still_leaks(self, fig10):
        """The paper's headline: LFENCE does not stop the front-end
        disclosure."""
        assert fig10["lfence"].signal > 100

    def test_cpuid_kills_signal(self, fig10):
        assert abs(fig10["cpuid"].signal) < 50

    def test_lfence_comparable_to_no_fence(self, fig10):
        assert fig10["lfence"].signal > 0.5 * fig10["none"].signal

    def test_single_episode_reads_trained_secret(self):
        attack = LfenceBypass()
        one = attack.attack_once("lf", secret_bit=1)
        zero = attack.attack_once("lf", secret_bit=0)
        assert one > zero
