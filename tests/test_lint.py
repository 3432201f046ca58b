"""Static analyzer tests: diagnostic catalog, footprint predictions,
rule engine, gadget-claim verifier, simulator cross-check and the lint
runner / CLI surface."""

import dataclasses
import json

import pytest

from repro.core.exploitgen import FootprintSpec, striped_sets
from repro.cpu.config import CPUConfig
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint import (
    CATALOG,
    ChainClaim,
    Diagnostic,
    LintError,
    PairClaim,
    Severity,
    analyze,
    check_program,
    check_sources,
    errors_of,
    live_check,
    predicted_set,
    verify_claims,
    worst_severity,
)


SKYLAKE = CPUConfig.skylake()


# ----------------------------------------------------------------------
# diagnostics


class TestCatalog:
    def test_codes_are_namespaced_and_unique(self):
        for code, entry in CATALOG.items():
            assert code == entry.code
            assert code[:2] in ("UC", "DT", "XC", "RC", "TA", "LT")

    def test_documented_rule_set_is_stable(self):
        """The codes are public API: removing one is a breaking change."""
        expected = {
            "UC001", "UC002", "UC003", "UC004", "UC005", "UC006",
            "UC007", "UC008", "UC009", "UC010", "DT001", "DT002",
            "XC001", "XC002", "XC003", "XC004", "RC001", "RC002",
            "RC003", "TA001", "TA002", "TA003", "TA004", "TA005",
            "TA006", "LT001",
        }
        assert expected <= set(CATALOG)

    def test_every_entry_has_a_fix_hint(self):
        for entry in CATALOG.values():
            assert entry.hint
            assert entry.title

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("ZZ999", "nope")

    def test_severity_defaults_from_catalog_and_overrides(self):
        d = Diagnostic("UC004", "broken")
        assert d.severity is Severity.ERROR
        d = Diagnostic("UC004", "softer", severity=Severity.WARNING)
        assert d.severity is Severity.WARNING

    def test_format_carries_code_location_and_message(self):
        d = Diagnostic("UC005", "collision", addr=0x441000, label="zebra_r3")
        line = d.format()
        assert "UC005" in line
        assert "error" in line
        assert "zebra_r3@0x441000" in line
        assert "collision" in line

    def test_as_dict_is_json_ready(self):
        d = Diagnostic("DT001", "unseeded", context="core/x.py:7")
        json.dumps(d.as_dict())  # must not raise
        assert d.as_dict()["severity"] == "warning"

    def test_worst_severity_and_errors_of(self):
        diags = [
            Diagnostic("UC008", "info"),
            Diagnostic("UC001", "warn"),
            Diagnostic("UC004", "err"),
        ]
        assert worst_severity(diags) is Severity.ERROR
        assert worst_severity([]) is None
        assert [d.code for d in errors_of(diags)] == ["UC004"]

    def test_lint_error_lists_findings(self):
        err = LintError([Diagnostic("UC003", "off by one")])
        assert "UC003" in str(err)
        assert len(err.diagnostics) == 1


# ----------------------------------------------------------------------
# footprint predictions


class TestPredictedSet:
    def test_base_mapping_is_region_modulo_sets(self):
        assert predicted_set(0x1000, SKYLAKE) == (0x1000 // 32) % 32
        assert predicted_set(0x1020, SKYLAKE) == (0x1000 // 32 + 1) % 32

    def test_smt_static_sharing_halves_the_index_space(self):
        t0 = predicted_set(0x1000, SKYLAKE, thread=0, smt_active=True)
        t1 = predicted_set(0x1000, SKYLAKE, thread=1, smt_active=True)
        assert t0 < 16 <= t1
        assert t1 - t0 == 16

    def test_privilege_partition_separates_rings(self):
        part = dataclasses.replace(
            SKYLAKE, privilege_partition_uop_cache=True
        )
        kern = predicted_set(0x1000, part, privilege=0)
        user = predicted_set(0x1000, part, privilege=3)
        assert kern < 16 <= user


class TestAnalyze:
    def test_reports_set_and_lines_per_entry(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        for _ in range(8):
            asm.emit(enc.nop(1))
        asm.emit(enc.halt())
        report = analyze(asm.assemble(entry="f"), SKYLAKE)
        fp = report.footprint_at(0x2000)
        assert fp is not None
        assert fp.cacheable
        assert fp.n_lines == 2  # 9 uops over 6-slot lines
        assert report.expected_fill(0x2000) == (fp.set_index, 2)
        assert report.set_occupancy()[fp.set_index] >= 2

    def test_uncacheable_region_has_no_expected_fill(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.pause())
        asm.emit(enc.halt())
        report = analyze(asm.assemble(entry="f"), SKYLAKE)
        assert not report.footprint_at(0x2000).cacheable
        assert report.expected_fill(0x2000) is None

    def test_labels_seed_the_walk(self):
        """Drivers enter gadget chains by label, never by fall-through."""
        asm = Assembler(base=0x2000)
        asm.label("a")
        asm.emit(enc.halt())
        asm.org(0x3000)
        asm.label("island")  # unreachable from the entry
        asm.emit(enc.halt())
        report = analyze(asm.assemble(entry="a"), SKYLAKE)
        assert 0x3000 in report.regions


# ----------------------------------------------------------------------
# program rules


def _diag_codes(program, config=SKYLAKE):
    return [d.code for d in check_program(analyze(program, config))]


class TestProgramRules:
    def test_uc001_pause_region_not_cacheable(self):
        asm = Assembler(base=0x2000)
        asm.emit(enc.pause())
        asm.emit(enc.halt())
        assert "UC001" in _diag_codes(asm.assemble())

    def test_uc002_macro_op_wider_than_line(self):
        # shrink the line so a 2-slot RDTSC can never fit one
        tiny = dataclasses.replace(SKYLAKE, uops_per_line=1)
        asm = Assembler(base=0x2000)
        asm.emit(enc.rdtsc("r1"))
        asm.emit(enc.halt())
        codes = _diag_codes(asm.assemble(), tiny)
        assert "UC002" in codes

    def test_uc006_lcp_in_hot_loop(self):
        asm = Assembler(base=0x2000)
        asm.emit(enc.mov_imm("r1", 10))
        asm.label("loop")
        asm.emit(enc.nop(5, lcp=2))
        asm.emit(enc.dec("r1"))
        asm.emit(enc.jcc("nz", "loop"))
        asm.emit(enc.halt())
        assert "UC006" in _diag_codes(asm.assemble())

    def test_uc006_silent_on_clean_loop(self):
        asm = Assembler(base=0x2000)
        asm.emit(enc.mov_imm("r1", 10))
        asm.label("loop")
        asm.emit(enc.nop(5))
        asm.emit(enc.dec("r1"))
        asm.emit(enc.jcc("nz", "loop"))
        asm.emit(enc.halt())
        assert "UC006" not in _diag_codes(asm.assemble())

    def test_uc007_msrom_inside_timing_window(self):
        asm = Assembler(base=0x1000)
        asm.label("open")
        asm.emit(enc.rdtsc("r1"))
        asm.emit(enc.jmp("mid"))
        asm.org(0x1040)
        asm.label("mid")
        asm.emit(enc.cpuid())  # MSROM line between the timer pair
        asm.emit(enc.jmp("close"))
        asm.org(0x1080)
        asm.label("close")
        asm.emit(enc.rdtsc("r2"))
        asm.emit(enc.halt())
        diags = check_program(analyze(asm.assemble(entry="open"), SKYLAKE))
        hits = [d for d in diags if d.code == "UC007"]
        assert hits and hits[0].addr == 0x1040

    def test_uc008_imm64_inflates_region(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        for _ in range(3):
            asm.emit(enc.mov_imm("r1", 1, width=64))  # 3 x 10 bytes
        asm.emit(enc.nop(2))  # fills the region to exactly 32 bytes
        asm.emit(enc.halt())
        diags = check_program(analyze(asm.assemble(entry="f"), SKYLAKE))
        hits = [d for d in diags if d.code == "UC008"]
        assert hits and hits[0].severity is Severity.INFO

    def test_uc009_indirect_exit_noted(self):
        asm = Assembler(base=0x2000)
        asm.emit(enc.mov_imm("r1", 0x2000, width=64))
        asm.emit(enc.jmp_ind("r1"))
        codes = _diag_codes(asm.assemble())
        assert "UC009" in codes

    def test_uc010_wild_branch_target(self):
        asm = Assembler(base=0x2000)
        asm.label_at("hole", 0x9990)
        asm.emit(enc.jmp("hole"))
        codes = _diag_codes(asm.assemble())
        assert "UC010" in codes

    def test_clean_program_is_clean(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.alu("add", "r1", "r2"))
        asm.emit(enc.halt())
        assert _diag_codes(asm.assemble(entry="f")) == []


# ----------------------------------------------------------------------
# determinism rules (AST)


class TestSourceRules:
    def test_dt001_flags_unseeded_rng(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "bad.py").write_text(
            "import random\n"
            "gen = random.Random()\n"
            "pick = random.randint(0, 5)\n"
            "good = random.Random(2021)\n"
        )
        diags = check_sources(root=tmp_path)
        dt = [d for d in diags if d.code == "DT001"]
        assert len(dt) == 2  # the seeded constructor is fine
        assert all("core/bad.py" in d.context for d in dt)

    def test_dt002_flags_clock_in_cache_key_paths(self, tmp_path):
        (tmp_path / "harness").mkdir()
        (tmp_path / "harness" / "cache.py").write_text(
            "import time\n"
            "def make_key():\n"
            "    return time.time()\n"
            "def run():\n"
            "    return time.monotonic()\n"  # measurement: exempt
        )
        diags = check_sources(root=tmp_path)
        dt = [d for d in diags if d.code == "DT002"]
        assert len(dt) == 1
        assert "make_key" in dt[0].message

    def test_shipped_sources_have_no_determinism_errors(self):
        assert errors_of(check_sources()) == []


# ----------------------------------------------------------------------
# gadget-claim verifier


def _emit_test_chain(asm, name, spec, moved_index=None, move_by=32):
    """Hand-rolled equivalent of exploitgen's region chain, with an
    optional deliberate layout corruption at ``moved_index``."""
    order = [(s, w) for s in spec.sets for w in range(spec.ways)]
    for i, (s, w) in enumerate(order):
        addr = spec.region_addr(s, w)
        if i == moved_index:
            addr += move_by  # one set over: off the claimed set
        asm.org(addr)
        asm.label(f"{name}_r{i}")
        for _ in range(spec.nops_per_region):
            asm.emit(enc.nop(spec.nop_len, lcp=spec.lcp_per_nop))
        if i + 1 < len(order):
            asm.emit(enc.jmp(f"{name}_r{i + 1}", lcp=spec.jmp_lcp))
        else:
            asm.emit(enc.halt())


class TestGadgetVerifier:
    SPEC = FootprintSpec((0, 4, 8, 12), 2, 0x40_0000)

    def _report(self, moved_index=None):
        asm = Assembler()
        _emit_test_chain(asm, "z", self.SPEC, moved_index=moved_index)
        program = asm.assemble(entry="z_r0")
        return analyze(program, SKYLAKE)

    def test_intact_chain_verifies_clean(self):
        diags = verify_claims(
            self._report(), [ChainClaim("z", self.SPEC, "zebra")]
        )
        assert errors_of(diags) == []

    def test_corrupted_gadget_caught_by_uc004_and_uc005(self):
        """The acceptance scenario: one zebra region moved one set
        over.  The chain still runs -- only the verifier notices that
        the claimed set is under-filled (UC004) and that code landed on
        a set the footprint does not claim (UC005)."""
        diags = verify_claims(
            self._report(moved_index=3),
            [ChainClaim("z", self.SPEC, "zebra")],
        )
        codes = {d.code for d in errors_of(diags)}
        assert "UC004" in codes
        assert "UC005" in codes

    def test_truncated_chain_caught(self):
        longer = dataclasses.replace(self.SPEC, ways=3)  # claim 12 regions
        diags = verify_claims(
            self._report(), [ChainClaim("z", longer, "zebra")]
        )
        codes = {d.code for d in errors_of(diags)}
        assert "UC004" in codes  # missing labels + under-filled sets

    def test_conflict_pair_verifies_on_shared_sets(self):
        spec_rx = FootprintSpec((0, 4), 5, 0x40_0000)
        spec_tx = FootprintSpec((0, 4), 5, 0x48_0000)
        asm = Assembler()
        _emit_test_chain(asm, "rx", spec_rx)
        _emit_test_chain(asm, "tx", spec_tx)
        report = analyze(asm.assemble(entry="rx_r0"), SKYLAKE)
        chains = [ChainClaim("rx", spec_rx), ChainClaim("tx", spec_tx)]
        diags = verify_claims(
            report, chains + [PairClaim("tx", "rx", "conflict")]
        )
        assert errors_of(diags) == []

    def test_disjoint_pair_sharing_a_set_is_uc005(self):
        spec_a = FootprintSpec((0, 4), 2, 0x40_0000)
        spec_b = FootprintSpec((4, 8), 2, 0x48_0000)  # overlaps on 4
        asm = Assembler()
        _emit_test_chain(asm, "a", spec_a)
        _emit_test_chain(asm, "b", spec_b)
        report = analyze(asm.assemble(entry="a_r0"), SKYLAKE)
        chains = [ChainClaim("a", spec_a), ChainClaim("b", spec_b)]
        diags = verify_claims(
            report, chains + [PairClaim("a", "b", "disjoint")]
        )
        assert "UC005" in {d.code for d in errors_of(diags)}

    def test_conflict_pair_missing_sets_is_uc004(self):
        spec_rx = FootprintSpec((0, 4), 5, 0x40_0000)
        spec_tx = FootprintSpec((0,), 5, 0x48_0000)  # never touches 4
        asm = Assembler()
        _emit_test_chain(asm, "rx", spec_rx)
        _emit_test_chain(asm, "tx", spec_tx)
        report = analyze(asm.assemble(entry="rx_r0"), SKYLAKE)
        chains = [ChainClaim("rx", spec_rx), ChainClaim("tx", spec_tx)]
        diags = verify_claims(
            report, chains + [PairClaim("tx", "rx", "conflict")]
        )
        assert "UC004" in {d.code for d in errors_of(diags)}

    def test_underprovisioned_conflict_is_a_warning_only(self):
        """Parameter sweeps legitimately explore demand <= ways; that
        must not fail a preflight."""
        spec_rx = FootprintSpec((0,), 2, 0x40_0000)
        spec_tx = FootprintSpec((0,), 2, 0x48_0000)  # 4 <= 8 ways
        asm = Assembler()
        _emit_test_chain(asm, "rx", spec_rx)
        _emit_test_chain(asm, "tx", spec_tx)
        report = analyze(asm.assemble(entry="rx_r0"), SKYLAKE)
        chains = [ChainClaim("rx", spec_rx), ChainClaim("tx", spec_tx)]
        diags = verify_claims(
            report, chains + [PairClaim("tx", "rx", "conflict")]
        )
        assert errors_of(diags) == []
        assert any(
            d.code == "UC004" and d.severity is Severity.WARNING
            for d in diags
        )

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            PairClaim("a", "b", "overlapping")


# ----------------------------------------------------------------------
# session preflight


class TestPreflight:
    class _BrokenSession:
        pass  # placeholder; real class built lazily below

    @staticmethod
    def _session_class():
        from repro.session import AttackSession

        spec = FootprintSpec((0, 4), 2, 0x40_0000)

        class Broken(AttackSession):
            def build_program(self):
                asm = Assembler()
                _emit_test_chain(asm, "z", spec, moved_index=1)
                self._claims = [ChainClaim("z", spec, "zebra")]
                return asm.assemble(entry="z_r0")

        return Broken

    def test_preflight_refuses_broken_layout(self):
        Broken = self._session_class()
        with pytest.raises(LintError) as exc:
            Broken(SKYLAKE)
        codes = {d.code for d in exc.value.diagnostics}
        assert codes & {"UC004", "UC005"}

    def test_preflight_opt_out_keeps_findings(self):
        from repro.session import no_preflight

        Broken = self._session_class()
        with no_preflight():
            session = Broken(SKYLAKE)
        assert session.lint_findings == []  # opt-out skips the analysis

    def test_shipped_drivers_pass_their_own_preflight(self):
        """CovertChannel constructs with preflight on by default."""
        from repro.core.covert import CovertChannel

        chan = CovertChannel()
        assert errors_of(chan.lint_findings) == []
        claims = chan.claims()
        chains = [c for c in claims if isinstance(c, ChainClaim)]
        pairs = [c for c in claims if isinstance(c, PairClaim)]
        assert chains and pairs

    def test_no_preflight_is_thread_local(self):
        """One thread inside ``no_preflight()`` must not switch the
        preflight off for a session another thread builds."""
        import threading

        from repro.session import no_preflight, preflight_suppressed

        Broken = self._session_class()
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with no_preflight():
                seen["suppressed"] = preflight_suppressed()
                inside.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert inside.wait(timeout=60)
            assert not preflight_suppressed()
            with pytest.raises(LintError):
                Broken(SKYLAKE)
        finally:
            release.set()
            holder.join(timeout=60)
        assert seen["suppressed"] is True
        assert not holder.is_alive()

    def test_no_preflight_is_reentrant(self):
        """Leaving a nested block keeps suppression on until the
        outer block exits."""
        from repro.session import no_preflight, preflight_suppressed

        Broken = self._session_class()
        with no_preflight():
            with no_preflight():
                Broken(SKYLAKE)
            assert preflight_suppressed()
            assert Broken(SKYLAKE).lint_findings == []
        assert not preflight_suppressed()
        with pytest.raises(LintError):
            Broken(SKYLAKE)

    @pytest.mark.parametrize("driver", ["covert", "itlb"])
    def test_preflight_calls_lint_through_the_module(self, monkeypatch,
                                                     driver):
        """Instrumentation times the preflight by wrapping these four
        ``repro.lint`` names; the preflight must call each of them
        through the module."""
        import repro.lint
        from repro.contention.channels import ITLBChannel
        from repro.core.covert import CovertChannel

        calls = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        names = ("analyze", "check_program", "verify_claims",
                 "verify_secret_claims")
        for name in names:
            monkeypatch.setattr(
                repro.lint, name, counting(name, getattr(repro.lint, name))
            )
        {"covert": CovertChannel, "itlb": ITLBChannel}[driver]()
        assert calls == {name: 1 for name in names}


# ----------------------------------------------------------------------
# cross-check (acceptance: 100% agreement, mismatch = failure)


class TestCrossCheck:
    def test_tigerzebra_agrees_exactly(self):
        from repro.lint.runner import TARGETS

        target = TARGETS["tigerzebra"]()
        report = analyze(target.program, target.config)
        result = live_check(
            target.core, target.drive, report.fill_prediction()
        )
        assert result.events > 0
        assert result.escapes == {}  # any mismatch fails the test
        assert result.agreement == 1.0
        assert result.diagnostics() == []

    def test_covert_channel_agrees_exactly(self):
        from repro.lint.runner import TARGETS

        target = TARGETS["covert"]()
        report = analyze(target.program, target.config)
        result = live_check(
            target.core, target.drive, report.fill_prediction()
        )
        assert result.events > 0
        assert result.escapes == {}
        assert result.agreement == 1.0

    def test_divergence_becomes_xc001_error(self):
        """Force a stale report: predictions for a *different* mapping
        context must be flagged against the live simulator."""
        from repro.lint.runner import TARGETS

        target = TARGETS["tigerzebra"]()
        stale = analyze(
            target.program, target.config, thread=1, smt_active=True
        )
        result = live_check(
            target.core, target.drive, stale.fill_prediction()
        )
        assert result.escapes
        diags = result.diagnostics()
        assert diags and all(d.code == "XC001" for d in diags)
        assert worst_severity(diags) is Severity.ERROR

    def test_coverage_counts_distinct_entries(self):
        """An entry filled with two layouts counts once in the summary."""
        from repro.lint.crosscheck import LiveCheck

        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.halt())
        report = analyze(asm.assemble(entry="f"), SKYLAKE)
        result = LiveCheck(report.fill_prediction(), events=2,
                           seen={(0x2000, 0, 1), (0x2000, 1, 1)})
        assert result.as_dict()["entries_seen"] == 1
        assert result.summary().endswith("over 1 distinct entries")


# ----------------------------------------------------------------------
# runner + CLI


class TestRunner:
    def test_full_corpus_lints_clean_and_fast(self):
        from repro.lint.runner import run_lint

        run = run_lint(cross=True)
        assert run.ok, run.render(show_info=True)
        assert run.exit_code == 0
        assert len(run.results) >= 10
        assert run.elapsed < 5.0  # acceptance budget for --all
        # the two driven targets carry cross-check results
        crossed = {r.name for r in run.results if r.crosscheck}
        assert crossed == {"tigerzebra", "covert"}
        for r in run.results:
            if r.crosscheck:
                assert r.crosscheck.agreement == 1.0

    def test_unknown_target_raises_with_known_list(self):
        from repro.lint.runner import run_lint

        with pytest.raises(KeyError, match="tigerzebra"):
            run_lint(["frobnicate"])

    def test_json_shape_is_stable(self):
        from repro.lint.runner import run_lint

        run = run_lint(["corpus"])
        data = json.loads(json.dumps(run.as_dict()))
        assert data["ok"] is True
        (target,) = data["targets"]
        assert target["target"] == "corpus"
        assert set(target["counts"]) == {"error", "warning", "info"}

    def test_build_crash_becomes_result_not_exception(self):
        from repro.lint.runner import lint_target

        def exploding():
            raise RuntimeError("boom")

        result = lint_target("bad", exploding)
        assert not result.ok
        assert "boom" in result.build_error

    def test_build_crash_carries_lt001_and_nonzero_exit(self):
        """A target that fails to build must surface a structured
        LT001 error and fail the run deterministically."""
        from repro.lint.runner import LintRun, lint_target

        def exploding():
            raise RuntimeError("boom")

        result = lint_target("bad", exploding)
        lt = [d for d in result.diagnostics if d.code == "LT001"]
        assert len(lt) == 1
        assert "bad" in lt[0].message and "boom" in lt[0].message
        assert lt[0].severity is Severity.ERROR
        run = LintRun(results=[result])
        assert not run.ok
        assert run.exit_code != 0


class TestCli:
    def test_lint_single_target(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "tigerzebra"]) == 0
        out = capsys.readouterr().out
        assert "tigerzebra" in out
        assert "clean" in out

    def test_lint_json_to_stdout(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "corpus", "sources", "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert [t["target"] for t in data["targets"]] == [
            "corpus", "sources",
        ]

    def test_lint_unknown_target_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "frobnicate"]) == 2
        assert "unknown" in capsys.readouterr().out
