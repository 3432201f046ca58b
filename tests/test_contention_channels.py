"""The two non-DSB covert channels: calibration separation, error-free
transmission on the quiet simulator, noise tolerance, and their wiring
into the Table I reporting/jobs surface.
"""

import pytest

from repro.contention.channels import (
    ITLBChannel,
    ITLBChannelParams,
    StoreBufferChannel,
    StoreBufferChannelParams,
)
from repro.core.report import CONTENTION_MODES, TABLE1_MODES, table1_row
from repro.cpu.noise import NoiseModel


class TestITLBChannel:
    def test_calibration_separates_hit_and_miss(self):
        chan = ITLBChannel()
        timing = chan.calibrate()
        # measured: ~20 vs ~88 cycles; assert a wide margin
        assert timing.miss_mean - timing.hit_mean > 20
        assert chan.classifier is not None

    def test_quiet_transmission_is_error_free(self):
        report = ITLBChannel().transmit(b"uop")
        assert report.bits_sent == 24
        assert report.bit_errors == 0
        assert report.bandwidth_kbps > 100

    def test_survives_default_noise(self):
        noise = NoiseModel(evict_prob=0.01, jitter_sd=25.0, seed=17)
        report = ITLBChannel(noise=noise).transmit(b"uop!")
        assert report.error_rate < 0.15

    def test_lint_claims_cover_all_entry_points(self):
        names = {c.name for c in ITLBChannel().claims()
                 if hasattr(c, "pages")}
        assert names == {"rx", "tx_one", "tx_zero"}


class TestStoreBufferChannel:
    def test_calibration_separates_hit_and_miss(self):
        timing = StoreBufferChannel().calibrate()
        # measured: ~75 vs ~160 cycles
        assert timing.miss_mean - timing.hit_mean > 20

    def test_quiet_transmission_is_error_free(self):
        report = StoreBufferChannel().transmit(b"uop")
        assert report.bit_errors == 0
        assert report.bandwidth_kbps > 100

    def test_survives_default_noise(self):
        noise = NoiseModel(evict_prob=0.01, jitter_sd=25.0, seed=17)
        report = StoreBufferChannel(noise=noise).transmit(b"uop!")
        assert report.error_rate < 0.15

    def test_params_scale_the_flood(self):
        small = StoreBufferChannelParams(tx_stores=32, sender_loops=4)
        chan = StoreBufferChannel(params=small)
        assert chan.transmit(b"u").bit_errors == 0


class TestTable1Wiring:
    def test_contention_modes_extend_but_do_not_touch_table1(self):
        assert len(CONTENTION_MODES) == 2
        assert not set(CONTENTION_MODES) & set(TABLE1_MODES)

    @pytest.mark.parametrize("mode", CONTENTION_MODES)
    def test_table1_row_dispatches_contention_modes(self, mode):
        row = table1_row(mode, payload=b"u")
        assert row.mode == mode
        assert row.error_rate < 0.2
        assert 0 < row.corrected_bandwidth_kbps < row.bandwidth_kbps

    def test_unknown_mode_error_lists_contention_modes(self):
        with pytest.raises(ValueError, match="iTLB"):
            table1_row("Cross-thread frobnicator")

    def test_attack_artifacts_carry_the_contention_rows(self):
        from repro.harness.experiments import artifact_sweeps

        jobs = artifact_sweeps(["table1_contention"])[
            "table1_contention"].jobs()
        modes = [j.params["mode"] for j in jobs]
        assert modes == list(CONTENTION_MODES)
        assert all(j.fn == "covert.table1_row" for j in jobs)

    def test_submit_shorthands_expand_to_contention_rows(self):
        import argparse

        from repro.__main__ import _submit_spec

        def spec_for(name):
            args = argparse.Namespace(
                experiment=name, payload=None, seed=17, priority=0,
                timeout=None, refresh=False, targets=None,
                target=None, job_fn=None, params=None,
            )
            return _submit_spec(args)

        itlb = spec_for("itlb")
        assert itlb["kind"] == "job"
        assert itlb["params"]["params"]["mode"] == "Cross-thread iTLB (SMT)"
        sb = spec_for("storebuffer")
        assert sb["params"]["params"]["mode"] == \
            "Cross-thread store buffer (SMT)"

    def test_contention_artifact_assembles_table1_rows(self):
        from repro.core.report import Table1Row
        from repro.harness.experiments import artifact_sweeps, run_sweeps

        artifacts, _, _ = run_sweeps(
            artifact_sweeps(["table1_contention"], fast=True), cache=None)
        rows = artifacts["table1_contention"]
        assert [r.mode for r in rows] == list(CONTENTION_MODES)
        assert all(isinstance(r, Table1Row) for r in rows)
        assert all(r.error_rate < 0.2 for r in rows)
