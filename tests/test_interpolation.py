"""Tests for repro.search.interpolation."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.search.interpolation import binary_search_rightmost, interpolation_search

SEARCHERS = [binary_search_rightmost, interpolation_search]


def rightmost_index(keys, target):
    """Reference: index of the rightmost occurrence, or -1."""
    idx = bisect_right(keys, target) - 1
    return idx if idx >= 0 and keys[idx] == target else -1


@pytest.mark.parametrize("search", SEARCHERS)
class TestAgainstReference:
    def test_empty(self, search):
        assert search([], 5) == -1

    def test_single_hit(self, search):
        assert search([5], 5) == 0

    def test_single_miss(self, search):
        assert search([5], 4) == -1
        assert search([5], 6) == -1

    def test_duplicates_rightmost(self, search):
        keys = [1, 2, 2, 2, 3]
        assert search(keys, 2) == 3

    def test_all_equal(self, search):
        assert search([7] * 10, 7) == 9
        assert search([7] * 10, 6) == -1

    def test_sub_range(self, search):
        keys = [0, 10, 20, 30, 40, 50]
        assert search(keys, 10, lo=2, hi=5) == -1
        assert search(keys, 30, lo=2, hi=5) == 3

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200),
        st.integers(min_value=-1100, max_value=1100),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bisect(self, search, keys, target):
        keys = sorted(keys)
        assert search(keys, target) == rightmost_index(keys, target)


class TestInterpolationSpecifics:
    def test_uniform_keys_converge_fast(self):
        keys = list(range(0, 100_000, 7))
        steps = []
        interpolation_search(keys, keys[5000], steps=steps)
        assert steps[0] <= 8  # log log n territory

    def test_skewed_distribution_still_correct(self):
        # Exponential skew defeats interpolation's assumption; the binary
        # fallback must still find the rightmost occurrence.
        keys = sorted([2**i for i in range(60)] * 2)
        for target in (1, 2**30, 2**59):
            assert keys[interpolation_search(keys, target)] == target

    def test_out_of_range_early_exit(self):
        keys = [10, 20, 30]
        steps = []
        assert interpolation_search(keys, 5, steps=steps) == -1
        assert steps[0] == 0

    def test_steps_reported(self):
        steps = []
        interpolation_search(list(range(100)), 42, steps=steps)
        assert len(steps) == 1
        assert steps[0] >= 1


class TestDuplicateHeavyAgreement:
    """Both searchers must agree on the *rightmost* occurrence even
    when the list is dominated by long duplicate runs (the regime where a
    probe can land anywhere inside a run and must still walk to its end).
    """

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=120),
        st.integers(min_value=-1, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_rightmost_agreement(self, keys, target):
        keys = sorted(keys)
        expected = rightmost_index(keys, target)
        for search in SEARCHERS:
            assert search(keys, target) == expected, search.__name__

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_single_value_run(self, run_length):
        keys = [7] * run_length
        for search in SEARCHERS:
            assert search(keys, 7) == run_length - 1, search.__name__
            assert search(keys, 6) == -1, search.__name__
            assert search(keys, 8) == -1, search.__name__


class TestConstantSliceGuard:
    """Regression pin for the ``lo_key == hi_key`` constant-run guard.

    When the search window degenerates to an all-equal slice *mid-search*
    (not just at the top-level call), the interpolation denominator
    ``hi_key - lo_key`` is zero; the guard must return the window's right
    edge instead of dividing. These tests construct windows that only
    become constant after a probe shrinks them, so a guard that fires only
    on the initial bounds would still divide by zero.
    """

    @given(
        st.integers(min_value=2, max_value=100),  # run length
        st.integers(min_value=0, max_value=30),  # distinct keys on each side
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_plateau_reached_mid_search(self, run, n_left, n_right):
        # A long plateau of ``target`` flanked by distinct keys: probes
        # discard the flanks until the window is the constant run alone.
        target = 1000
        keys = (
            list(range(target - n_left, target))
            + [target] * run
            + list(range(target + 1, target + 1 + n_right))
        )
        expected = rightmost_index(keys, target)
        assert interpolation_search(keys, target) == expected

    @given(
        st.lists(
            st.sampled_from([0, 1, 2**40, 2**40 + 1]), min_size=1, max_size=150
        ),
        st.sampled_from([0, 1, 2, 2**40, 2**40 + 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_extreme_skew_with_duplicate_runs(self, keys, target):
        # Clustered values separated by a huge gap: interpolation probes
        # collapse onto one cluster (an all-equal sub-slice) immediately.
        keys = sorted(keys)
        assert interpolation_search(keys, target) == rightmost_index(keys, target)

    def test_constant_sub_range_within_mixed_list(self):
        # Explicit lo/hi restriction onto an all-equal slice of a list
        # whose full extent is not constant.
        keys = [1, 5, 5, 5, 5, 9]
        assert interpolation_search(keys, 5, lo=1, hi=5) == 4
        assert interpolation_search(keys, 4, lo=1, hi=5) == -1
        assert interpolation_search(keys, 6, lo=1, hi=5) == -1
