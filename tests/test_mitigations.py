"""Mitigation evaluation tests (Section VIII)."""

import pytest

from repro.core.crossdomain import CrossDomainChannel, CrossDomainParams
from repro.core.mitigations import UopCacheMonitor
from repro.cpu.config import CPUConfig


SMALL = CrossDomainParams(samples=2, calibration_rounds=4)


class TestFlushOnCrossing:
    def test_channel_closed(self):
        chan = CrossDomainChannel(
            SMALL,
            config=CPUConfig.skylake(flush_uop_cache_on_domain_crossing=True),
        )
        timing = chan.calibrate()
        assert abs(timing.delta) < 50  # no separable signal

    def test_costs_performance(self):
        base = CrossDomainChannel(SMALL)
        mitigated = CrossDomainChannel(
            SMALL,
            config=CPUConfig.skylake(flush_uop_cache_on_domain_crossing=True),
        )
        r_base = base.transmit(b"\xaa")
        r_mit = mitigated.transmit(b"\xaa")
        # same work, many more cycles: the paper's predicted cost
        assert r_mit.total_cycles > 1.5 * r_base.total_cycles


class TestPrivilegePartitioning:
    def test_kernel_channel_closed(self):
        chan = CrossDomainChannel(
            SMALL,
            config=CPUConfig.skylake(privilege_partition_uop_cache=True),
        )
        report = chan.transmit(b"\xaa\x55")
        assert report.error_rate > 0.25  # guessing


class TestMonitor:
    def test_detects_anomalous_windows(self):
        monitor = UopCacheMonitor(sigma=3.0)
        benign = [10, 12, 11, 9, 13, 10, 12, 11]
        attack = [300, 250, 400, 280]
        report = monitor.evaluate(benign, attack)
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0

    def test_mimicry_evades(self):
        """An attacker throttled to benign-looking miss rates slips
        through -- the liability the paper points out."""
        monitor = UopCacheMonitor(sigma=3.0)
        benign = [10, 12, 11, 9, 13, 10, 12, 11]
        stealthy_attack = [12, 13, 12, 14]
        report = monitor.evaluate(benign, stealthy_attack)
        assert report.detection_rate == 0.0

    def test_noisy_benign_costs_false_positives(self):
        monitor = UopCacheMonitor(sigma=1.0)
        benign = [10, 12, 11, 9, 300, 10, 11, 320]
        report = monitor.evaluate(benign, [500])
        assert report.false_positive_rate > 0.0

    def test_requires_training(self):
        with pytest.raises(RuntimeError):
            UopCacheMonitor().flag(100)
