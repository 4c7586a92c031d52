"""Tests for the BoDS-style workload generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sortedness.generator import generate_kl_keys, scrambled_keys, sorted_keys
from repro.sortedness.metrics import measure_sortedness


class TestSortedBase:
    def test_basic(self):
        assert sorted_keys(5) == [0, 1, 2, 3, 4]

    def test_start_and_gap(self):
        assert sorted_keys(3, start=10, gap=5) == [10, 15, 20]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sorted_keys(-1)
        with pytest.raises(ValueError):
            sorted_keys(5, gap=0)


class TestKLGeneration:
    def test_zero_k_is_sorted(self):
        assert generate_kl_keys(100, 0.0, 0.5) == list(range(100))

    def test_zero_l_is_sorted(self):
        assert generate_kl_keys(100, 0.5, 0.0) == list(range(100))

    def test_permutation_of_base(self):
        keys = generate_kl_keys(500, 0.2, 0.1, seed=3)
        assert sorted(keys) == list(range(500))

    def test_deterministic_by_seed(self):
        assert generate_kl_keys(300, 0.3, 0.2, seed=9) == generate_kl_keys(
            300, 0.3, 0.2, seed=9
        )

    def test_different_seeds_differ(self):
        assert generate_kl_keys(300, 0.3, 0.2, seed=1) != generate_kl_keys(
            300, 0.3, 0.2, seed=2
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            generate_kl_keys(10, 1.5, 0.1)
        with pytest.raises(ValueError):
            generate_kl_keys(10, 0.1, -0.1)

    @pytest.mark.parametrize(
        "k_target,l_target",
        [(0.02, 0.01), (0.10, 0.05), (0.20, 0.10), (0.50, 0.25)],
    )
    def test_achieved_sortedness_near_target(self, k_target, l_target):
        n = 4000
        report = measure_sortedness(generate_kl_keys(n, k_target, l_target, seed=11))
        assert abs(report.k_fraction - k_target) < max(0.05, 0.3 * k_target)
        # L: the anchor swap pins the max displacement at the target.
        assert abs(report.l_fraction - l_target) < 0.02

    def test_l_never_exceeds_target(self):
        n = 3000
        for l_target in (0.01, 0.10, 0.30):
            report = measure_sortedness(generate_kl_keys(n, 0.2, l_target, seed=5))
            assert report.l_fraction <= l_target + 1.5 / n

    @given(
        st.integers(min_value=2, max_value=400),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_a_permutation(self, n, k, l, seed):
        keys = generate_kl_keys(n, k, l, seed=seed)
        assert sorted(keys) == list(range(n))


class TestScrambled:
    def test_is_permutation(self):
        assert sorted(scrambled_keys(200, seed=4)) == list(range(200))

    def test_is_actually_scrambled(self):
        report = measure_sortedness(scrambled_keys(2000, seed=4))
        assert report.k_fraction > 0.7
        assert report.l_fraction > 0.5
