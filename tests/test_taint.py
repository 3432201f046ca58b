"""Secret-flow taint analysis tests: lattice propagation, implicit
flows, the claim shapes, the TA diagnostic catalog, capacity bounds
and the XC004 two-secret differential over the full target corpus."""

import json

import pytest

from repro.cpu.config import CPUConfig
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.lint import (
    SecretClaim,
    analyze,
    analyze_claim,
    errors_of,
    verify_secret_claims,
)

SKYLAKE = CPUConfig.skylake()


def _analyze(asm, entry="f"):
    return analyze(asm.assemble(entry=entry), SKYLAKE)


def _branchy_program():
    """``if (r7) one(); done()`` -- the minimal implicit flow."""
    asm = Assembler(base=0x2000)
    asm.label("f")
    asm.emit(enc.test_reg("r7", "r7"))
    asm.emit(enc.jcc("nz", "one"))
    asm.emit(enc.nop(2))
    asm.emit(enc.jmp("done"))
    asm.org(0x2040)
    asm.label("one")
    asm.emit(enc.nop(2))
    asm.emit(enc.jmp("done"))
    asm.org(0x2080)
    asm.label("done")
    asm.emit(enc.halt())
    return asm


class TestExplicitFlow:
    def test_register_claim_taints_dependent_branch(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="bit", entry="f", register="r7")
        leak, _ = analyze_claim(report, claim)
        assert len(leak.tainted_branches) == 1
        # the taken arm diverges; the join point is fetched either way
        assert 0x2040 in leak.regions
        assert 0x2080 not in leak.regions
        assert leak.capacity_bits == 1.0

    def test_untainted_register_is_silent(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="bit", entry="f", register="r9",
                            leaks_to=())
        leak, diags = analyze_claim(report, claim)
        assert leak.regions == frozenset()
        assert leak.capacity_bits == 0.0
        assert [d for d in diags if d.code == "TA002"] == []

    def test_flags_carry_taint_through_compare(self):
        """TEST r, r writes flags; JCC reads them -- two hops."""
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.mov("r3", "r7"))  # copy propagates taint
        asm.emit(enc.test_reg("r3", "r3"))
        asm.emit(enc.jcc("nz", "one"))
        asm.emit(enc.halt())
        asm.org(0x2040)
        asm.label("one")
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="bit", entry="f", register="r7")
        leak, _ = analyze_claim(report, claim)
        assert leak.tainted_branches

    def test_secret_label_load_seeds_taint(self):
        asm = Assembler(base=0x2000)
        secret_addr = asm.reserve("secret", 8)
        asm.label("f")
        asm.emit(enc.mov_imm("r1", secret_addr, width=64))
        asm.emit(enc.load("r2", "r1", size=1))
        asm.emit(enc.test_reg("r2", "r2"))
        asm.emit(enc.jcc("nz", "one"))
        asm.emit(enc.halt())
        asm.org(0x2080)
        asm.label("one")
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="s", entry="f", label="secret", size=8)
        leak, _ = analyze_claim(report, claim)
        assert leak.tainted_branches
        assert 0x2080 in leak.regions

    def test_unresolvable_load_overapproximates_when_secret_in_memory(self):
        """A load through an unknown pointer may reach the secret
        bytes (the Spectre bounds-bypass shape); its value must be
        assumed tainted."""
        asm = Assembler(base=0x2000)
        asm.reserve("secret", 8)
        asm.label("f")
        asm.emit(enc.load("r2", "r3"))  # r3 never defined: unresolvable
        asm.emit(enc.test_reg("r2", "r2"))
        asm.emit(enc.jcc("nz", "one"))
        asm.emit(enc.halt())
        asm.org(0x2040)
        asm.label("one")
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="s", entry="f", label="secret", size=8)
        leak, _ = analyze_claim(report, claim)
        assert leak.tainted_branches


class TestEntriesShape:
    def test_alternative_entries_diverge_on_symmetric_difference(self):
        asm = Assembler(base=0x2000)
        asm.label("send_one")
        asm.emit(enc.nop(2))
        asm.emit(enc.jmp("fini"))
        asm.org(0x2040)
        asm.label("send_zero")
        asm.emit(enc.nop(2))
        asm.emit(enc.jmp("fini"))
        asm.org(0x2080)
        asm.label("fini")
        asm.emit(enc.halt())
        report = _analyze(asm, entry="send_one")
        claim = SecretClaim(
            name="bit", entries=("send_one", "send_zero")
        )
        leak, _ = analyze_claim(report, claim)
        assert leak.regions == frozenset({0x2000, 0x2040})
        assert leak.capacity_bits == 1.0  # log2 of 2 alternatives

    def test_aliased_entries_have_zero_dependence(self):
        """Two entry labels naming the same code cannot leak."""
        asm = Assembler(base=0x2000)
        asm.label("a")
        asm.label_at("b", 0x2000)
        asm.emit(enc.halt())
        report = _analyze(asm, entry="a")
        claim = SecretClaim(name="bit", entries=("a", "b"), leaks_to=())
        leak, diags = analyze_claim(report, claim)
        assert leak.regions == frozenset()
        assert leak.capacity_bits == 0.0
        assert errors_of(diags) == []


class TestIndirectCapacity:
    def test_jump_table_counts_log2_fanout(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.jmp_ind("r7"))
        for i in range(4):
            asm.org(0x2040 + i * 0x40)
            asm.label(f"t{i}")
            asm.emit(enc.nop(2))
            asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(
            name="sym", entry="f", register="r7",
            indirect_targets=("t0", "t1", "t2", "t3"),
        )
        leak, _ = analyze_claim(report, claim)
        assert len(leak.tainted_indirect) == 1
        assert leak.control_bits == 2.0  # log2(4 landing sites)
        assert leak.capacity_bits == 2.0


class TestDiagnostics:
    def test_ta001_undefined_secret_label(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="s", entry="f", label="nonesuch")
        leak, diags = analyze_claim(report, claim)
        assert [d.code for d in diags] == ["TA001"]
        assert leak.regions == frozenset()

    def test_ta001_undefined_entry_alternative(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="s", entries=("f", "nonesuch"))
        _, diags = analyze_claim(report, claim)
        assert [d.code for d in diags] == ["TA001"]

    def test_ta001_sourceless_claim(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="s", entry="f")
        _, diags = analyze_claim(report, claim)
        assert [d.code for d in diags] == ["TA001"]

    def test_ta002_reports_footprint_and_capacity(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="bit", entry="f", register="r7")
        _, diags = analyze_claim(report, claim)
        ta2 = [d for d in diags if d.code == "TA002"]
        assert len(ta2) == 1
        assert "capacity" in ta2[0].message

    def test_ta003_secret_derived_address(self):
        asm = Assembler(base=0x2000)
        asm.reserve("table", 64)
        asm.label("f")
        asm.emit(enc.load("r2", "r7"))  # secret pointer
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="s", entry="f", register="r7",
                            leaks_to=())
        _, diags = analyze_claim(report, claim)
        assert any(d.code == "TA003" for d in diags)

    def test_ta004_constant_time_violation(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="bit", entry="f", register="r7",
                            constant_time=True)
        _, diags = analyze_claim(report, claim)
        assert any(d.code == "TA004" for d in diags)

    def test_constant_time_clean_program_passes(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.alu("add", "r1", "r7"))
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="bit", entry="f", register="r7",
                            constant_time=True)
        _, diags = analyze_claim(report, claim)
        assert not any(d.code == "TA004" for d in diags)

    def test_ta005_leaks_to_mismatch(self):
        report = _analyze(_branchy_program())
        claim = SecretClaim(name="bit", entry="f", register="r7",
                            leaks_to=("dsb", "itlb", "sb"))
        _, diags = analyze_claim(report, claim)
        assert any(d.code == "TA005" for d in diags)

    def test_ta006_uncacheable_dependent_region(self):
        asm = Assembler(base=0x2000)
        asm.label("f")
        asm.emit(enc.test_reg("r7", "r7"))
        asm.emit(enc.jcc("nz", "slow"))
        asm.emit(enc.halt())
        asm.org(0x2040)
        asm.label("slow")
        asm.emit(enc.pause())  # uncacheable: never fills the DSB
        asm.emit(enc.halt())
        report = _analyze(asm)
        claim = SecretClaim(name="bit", entry="f", register="r7",
                            leaks_to=("itlb",))
        leak, diags = analyze_claim(report, claim)
        assert 0x2040 in leak.dead_regions
        assert any(d.code == "TA006" for d in diags)

    def test_unknown_resource_rejected_at_declaration(self):
        with pytest.raises(ValueError):
            SecretClaim(name="s", entry="f", leaks_to=("l1d",))

    def test_claim_without_any_entry_rejected(self):
        with pytest.raises(ValueError):
            SecretClaim(name="s", register="r7")


class TestTaintReport:
    def test_verify_secret_claims_aggregates(self):
        report = _analyze(_branchy_program())
        claims = [
            SecretClaim(name="a", entry="f", register="r7"),
            SecretClaim(name="b", entry="f", register="r9",
                        leaks_to=()),
        ]
        out = verify_secret_claims(report, claims)
        assert len(out.leaks) == 2
        assert out.capacity_bits == 1.0
        assert 0x2040 in out.regions
        json.dumps(out.as_dict())  # must not raise


# ----------------------------------------------------------------------
# XC004: the two-secret differential over the shipped corpus


#: Targets carrying SecretClaim declarations and a secret_drive.
TAINT_TARGETS = (
    "tigerzebra", "covert", "smt", "crossdomain", "spectre",
    "classic", "lfence", "bti", "jumptable", "keyextract",
    "contention-itlb", "contention-sb",
)


class TestSecretCrossCheck:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.lint.runner import run_lint

        return run_lint(list(TAINT_TARGETS), taint=True)

    def test_every_target_is_sound(self, run):
        """Acceptance: no live divergence escapes the static
        prediction on any of the twelve targets."""
        assert run.ok, run.render(show_info=True)
        assert run.exit_code == 0
        for result in run.results:
            assert result.taint is not None, result.name
            assert result.secretcheck is not None, result.name
            assert result.secretcheck.clean, (
                f"{result.name}: {result.secretcheck.summary()}"
            )

    def test_keyextract_has_nonzero_static_capacity(self, run):
        by_name = {r.name: r for r in run.results}
        assert by_name["keyextract"].taint.capacity_bits > 0

    def test_classic_spectre_is_the_negative_control(self, run):
        """ClassicSpectreV1 is a pure data channel: no
        secret-dependent fetch, zero static capacity, zero live
        divergence."""
        classic = {r.name: r for r in run.results}["classic"]
        assert classic.taint.capacity_bits == 0.0
        assert classic.taint.regions == frozenset()
        assert len(classic.secretcheck.seen) == 0

    def test_transmitting_targets_diverge_within_prediction(self, run):
        """The positive controls really do modulate the front end."""
        by_name = {r.name: r for r in run.results}
        for name in ("tigerzebra", "covert", "keyextract"):
            check = by_name[name].secretcheck
            assert len(check.seen) > 0, name
            assert check.clean, name

    def test_json_round_trip_carries_taint_and_secretcheck(self, run):
        data = json.loads(json.dumps(run.as_dict()))
        target = next(
            t for t in data["targets"] if t["target"] == "keyextract"
        )
        assert target["taint"]["capacity_bits"] > 0
        assert target["secretcheck"]["clean"] is True
