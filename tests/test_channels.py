"""Integration tests for the covert channels (Section V and the
contention suite's two non-DSB channels)."""

import random

import pytest

from repro.contention.channels import ITLBChannel, StoreBufferChannel
from repro.core.covert import ChannelParams, CovertChannel
from repro.core.crossdomain import CrossDomainChannel, CrossDomainParams
from repro.core.smtchannel import SMTChannel, SMTChannelParams
from repro.cpu.config import CPUConfig
from repro.cpu.noise import NoiseModel
from repro.errors import ConfigError
from repro.session.channel import _bits_to_bytes, _bytes_to_bits


class TestBitPacking:
    def test_roundtrip(self):
        data = bytes(range(0, 256, 7))
        assert _bits_to_bytes(_bytes_to_bits(data)) == data

    def test_lsb_first(self):
        assert _bytes_to_bits(b"\x01")[:2] == [1, 0]


class TestCovertChannel:
    def test_params_validation(self):
        with pytest.raises(ConfigError):
            ChannelParams(nsets=32)
        with pytest.raises(ConfigError):
            ChannelParams(nways=9)
        with pytest.raises(ConfigError):
            ChannelParams(samples=0)

    def test_calibration_separates(self):
        chan = CovertChannel(ChannelParams(samples=1, calibration_rounds=4))
        timing = chan.calibrate()
        assert timing.delta > 100
        assert timing.miss_mean > timing.hit_mean

    def test_noiseless_transmission_is_exact(self):
        chan = CovertChannel(ChannelParams(samples=1, calibration_rounds=4))
        report = chan.transmit(b"\xc3\x5a")
        assert report.bit_errors == 0
        assert report.bits_sent == 16
        assert report.bandwidth_kbps > 100

    def test_random_payload(self):
        rng = random.Random(7)
        payload = bytes(rng.randrange(256) for _ in range(4))
        chan = CovertChannel(ChannelParams(samples=1, calibration_rounds=4))
        report = chan.transmit(payload)
        assert report.error_rate < 0.05

    def test_more_sets_cost_bandwidth(self):
        fast = CovertChannel(ChannelParams(nsets=2, samples=1,
                                           calibration_rounds=2))
        slow = CovertChannel(ChannelParams(nsets=16, samples=1,
                                           calibration_rounds=2))
        rf = fast.transmit(b"\xaa")
        rs = slow.transmit(b"\xaa")
        assert rf.bandwidth_kbps > rs.bandwidth_kbps


#: One noisy instance of every channel, all through the session
#: layer's one ``transmit`` (and so its one Reed-Solomon path).
_NOISY_CHANNELS = {
    "covert": lambda noise: CovertChannel(
        ChannelParams(samples=3, calibration_rounds=6), noise=noise),
    "crossdomain": lambda noise: CrossDomainChannel(
        CrossDomainParams(samples=3, calibration_rounds=6), noise=noise),
    "smt": lambda noise: SMTChannel(
        SMTChannelParams(calibration_rounds=3), noise=noise),
    "itlb": lambda noise: ITLBChannel(noise=noise),
    "store_buffer": lambda noise: StoreBufferChannel(noise=noise),
}


@pytest.mark.parametrize("channel", sorted(_NOISY_CHANNELS))
def test_ecc_corrects_noisy_channel(channel):
    noise = NoiseModel(evict_prob=0.01, jitter_sd=20.0, seed=3)
    chan = _NOISY_CHANNELS[channel](noise)
    report = chan.transmit(b"secret!", ecc=True, ecc_nsym=16)
    assert report.corrected_ok
    assert report.bits_sent == 8 * (7 + 16)
    assert report.ecc_overhead > 1.0
    assert report.corrected_bandwidth_kbps < report.bandwidth_kbps


class TestCrossDomainChannel:
    def test_params_validate(self):
        # refused at construction, before any program is built
        with pytest.raises(ConfigError):
            CrossDomainParams(nsets=32)
        with pytest.raises(ConfigError):
            CrossDomainParams(nways=9)
        with pytest.raises(ConfigError):
            CrossDomainParams(samples=0)

    def test_leaks_across_privilege(self):
        chan = CrossDomainChannel(CrossDomainParams(samples=2,
                                                    calibration_rounds=4))
        report = chan.transmit(b"\x96")
        assert report.bit_errors == 0

    def test_kernel_code_unreachable_from_user(self):
        """The channel works without the spy ever fetching kernel code."""
        chan = CrossDomainChannel(CrossDomainParams(samples=1,
                                                    calibration_rounds=2))
        chan.transmit(b"\x0f")
        # spy runs at user privilege throughout
        assert chan.core.thread(0).privilege == 3

    def test_slower_than_same_address_space(self):
        same = CovertChannel(ChannelParams(samples=2, calibration_rounds=2))
        cross = CrossDomainChannel(CrossDomainParams(samples=2,
                                                     calibration_rounds=2))
        r_same = same.transmit(b"\x3c")
        r_cross = cross.transmit(b"\x3c")
        assert r_cross.bandwidth_kbps < r_same.bandwidth_kbps


class TestSMTChannel:
    def test_zen_channel_works(self):
        chan = SMTChannel(SMTChannelParams(calibration_rounds=3))
        report = chan.transmit(b"\x5a")
        assert report.error_rate <= 0.125

    def test_signal_exists_on_zen(self):
        chan = SMTChannel(SMTChannelParams(calibration_rounds=3))
        timing = chan.calibrate()
        assert timing.delta > 200

    def test_intel_partitioning_closes_channel(self):
        """Negative control: no cross-thread signal under static
        partitioning (the paper's reason for attacking AMD here)."""
        chan = SMTChannel(
            SMTChannelParams(calibration_rounds=3),
            config=CPUConfig.skylake(),
        )
        timing = chan.calibrate()
        assert abs(timing.delta) < 50


class TestFig9Grid:
    def test_operating_point_is_one_job(self):
        """Each axis's sweep holds the other knobs at the operating
        point, so its three appearances share one job key."""
        from repro.harness.experiments import artifact_sweeps

        for fast, points, keys in ((False, 15, 13), (True, 7, 5)):
            jobs = [job for sweep in artifact_sweeps(
                ["fig9_tuning"], fast=fast).values() for job in sweep.jobs()]
            assert len(jobs) == points
            assert len({job.key() for job in jobs}) == keys
