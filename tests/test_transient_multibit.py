"""Jump-table multi-bit variant-1 tests (the paper's suggested
bandwidth optimisation, implemented)."""

import pytest

from repro.core.transient_multibit import JumpTableSpectre, SymbolCalibration
from repro.errors import ConfigError


class TestConfig:
    def test_bits_validation(self):
        with pytest.raises(ConfigError):
            JumpTableSpectre(secret=b"x", bits_per_symbol=0)
        with pytest.raises(ConfigError):
            JumpTableSpectre(secret=b"x", bits_per_symbol=4)
        with pytest.raises(ConfigError):
            JumpTableSpectre(secret=b"x", bits_per_symbol=3,
                             sets_per_group=8)  # 64 sets > 32

    def test_groups_have_disjoint_sets(self):
        attack = JumpTableSpectre(secret=b"x", bits_per_symbol=2)
        seen = set()
        for g in range(attack.groups):
            sets = set(attack._group_sets(g))
            assert not sets & seen
            seen |= sets


class TestLeak:
    def test_two_bits_per_symbol(self):
        attack = JumpTableSpectre(secret=b"\xa5", bits_per_symbol=2,
                                  samples=3)
        stats = attack.leak()
        assert stats.leaked == b"\xa5"

    def test_one_bit_degenerate_case(self):
        attack = JumpTableSpectre(secret=b"\x3c", bits_per_symbol=1,
                                  samples=3)
        stats = attack.leak()
        assert stats.leaked == b"\x3c"

    def test_calibration_separates_groups(self):
        attack = JumpTableSpectre(secret=b"\x00", bits_per_symbol=2)
        cal = attack.calibrate(rounds=3)
        for g in range(attack.groups):
            assert cal.loud[g] > cal.quiet[g]

    def test_vote_is_a_majority_and_a_tie_goes_to_the_smallest_symbol(self):
        cal = SymbolCalibration(quiet=[0.0] * 4, loud=[10.0] * 4)
        three, one = [0, 0, 0, 9], [0, 9, 0, 0]
        assert cal.vote([three, one, three]) == 3
        assert cal.vote([three, one, three, one]) == 1

    def test_fewer_victim_invocations_than_single_bit(self):
        """2 bits/symbol means half the victim invocations per byte:
        each symbol is one warm-up episode plus ``samples`` votes."""
        episodes = {}
        for bits in (1, 2):
            attack = JumpTableSpectre(secret=b"\x5a", bits_per_symbol=bits,
                                      samples=2)
            attack.calibrate(rounds=2)
            episode, calls = attack._episode, []

            def counted(*args, episode=episode, calls=calls):
                calls.append(args)
                return episode(*args)

            attack._episode = counted
            assert attack.leak().leaked == b"\x5a"
            assert len(calls) == (8 // bits) * (attack.samples + 1)
            episodes[bits] = len(calls)
        assert 2 * episodes[2] == episodes[1]
