import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from satgp.cnf import random_3sat, reorder
from satgp.harness import bundled_cnf
from satgp.rng import MASK64, SplitMix64, check_real, spawn_seeds

# Published reference outputs for this mixer.
KNOWN_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
KNOWN_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


class TestKnownAnswers:
    def test_seed_zero(self):
        gen = SplitMix64(0)
        assert [gen.next_u64() for _ in range(3)] == KNOWN_SEED0

    def test_seed_1234567(self):
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(3)] == KNOWN_SEED_1234567

    def test_negative_seed_wraps(self):
        assert SplitMix64(-1).state == MASK64
        a = SplitMix64(-1)
        b = SplitMix64(MASK64)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


class TestDistributions:
    def test_random_unit_interval(self):
        gen = SplitMix64(5)
        values = [gen.random() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_uniform_bounds(self):
        gen = SplitMix64(6)
        assert all(-2.0 <= gen.uniform(-2.0, 3.0) < 3.0 for _ in range(500))

    def test_randrange_covers_all_values(self):
        gen = SplitMix64(7)
        seen = {gen.randrange(5) for _ in range(300)}
        assert seen == {0, 1, 2, 3, 4}

    def test_randrange_rejects_nonpositive(self):
        gen = SplitMix64(8)
        try:
            gen.randrange(0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_shuffle_is_permutation_and_deterministic(self):
        a = list(range(30))
        b = list(range(30))
        SplitMix64(9).shuffle(a)
        SplitMix64(9).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(30))
        assert a != list(range(30))

    def test_flip_produces_both(self):
        gen = SplitMix64(10)
        flips = {gen.flip() for _ in range(64)}
        assert flips == {True, False}


class TestSpawnSeeds:
    def test_matches_stream(self):
        gen = SplitMix64(11)
        expected = [gen.next_u64() for _ in range(6)]
        assert spawn_seeds(11, 6) == expected

    def test_child_isolation(self):
        seeds = spawn_seeds(12, 4)
        child_values = [SplitMix64(s).random() for s in seeds]
        again = [SplitMix64(s).random() for s in seeds]
        assert child_values == again

    def test_zero_count(self):
        assert spawn_seeds(13, 0) == []

    @pytest.mark.parametrize("count,message", [
        (-2, "count must be >= 0, got -2"),
        (1.5, "count must be an int, got 1.5"),
        (True, "count must be an int, got True"),
    ])
    def test_bad_count_refused(self, count, message):
        with pytest.raises(ValueError) as info:
            spawn_seeds(1, count)
        assert str(info.value) == message


class TestSeedRule:
    """A seed is an int; a bool or float is refused where the stream is made."""

    @pytest.mark.parametrize("make,message", [
        pytest.param(lambda: SplitMix64(1.5), r"1\.5", id="SplitMix64-float"),
        pytest.param(lambda: SplitMix64(True), "True", id="SplitMix64-bool"),
        pytest.param(lambda: random_3sat(5, 5, 1.5), r"1\.5", id="random_3sat-float"),
        pytest.param(lambda: random_3sat(5, 5, True), "True", id="random_3sat-bool"),
        pytest.param(lambda: reorder(bundled_cnf(), 2.5), r"2\.5", id="reorder-float"),
        pytest.param(lambda: spawn_seeds(1.5, 2), r"1\.5", id="spawn_seeds-float"),
    ])
    def test_non_int_seed_refused(self, make, message):
        with pytest.raises(ValueError, match=f"seed must be an int, got {message}$"):
            make()


class TestCheckReal:
    """A real number is an int or a float within float range: no bool, no
    other number type, no NaN or infinity."""

    @pytest.mark.parametrize("value", [0, -3, 0.5, -0.0, sys.float_info.max, 2**1023],
                             ids=["0", "-3", "0.5", "-0.0", "float-max", "2**1023"])
    def test_accepted(self, value):
        check_real("x", value)

    @pytest.mark.parametrize("value", [
        True, Decimal(1), Fraction(1, 3), np.True_, np.int64(2), np.float64(0.5), "0.5",
        None, 1j, float("nan"), float("inf"), -float("inf"), 10**400, -10**400,
    ], ids=["bool", "Decimal", "Fraction", "numpy-bool", "numpy-int64", "numpy-float64", "str",
            "None", "complex", "nan", "inf", "-inf", "10**400", "-10**400"])
    def test_refused(self, value):
        with pytest.raises(ValueError) as info:
            check_real("x", value)
        assert str(info.value) == f"x must be a real number within float range, got {value!r:.40}"
