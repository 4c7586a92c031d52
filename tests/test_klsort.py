"""Tests for the (K,L)-adaptive sorting algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sortedness.generator import generate_kl_keys
from repro import kernels
from repro.sortedness.klsort import KLSortStats, kl_sort, kl_split_fits


class TestCorrectness:
    def test_empty(self):
        assert kl_sort([]) == []

    def test_already_sorted(self):
        data = list(range(100))
        stats = KLSortStats()
        assert kl_sort(data, stats=stats) == data
        assert stats.outliers == 0

    def test_reverse_sorted(self):
        data = list(range(100, 0, -1))
        assert kl_sort(data) == sorted(data)

    def test_single_spike_backtrack(self):
        # One huge early element must not poison the spine.
        data = [1000] + list(range(50))
        stats = KLSortStats()
        assert kl_sort(data, stats=stats) == sorted(data)
        assert stats.outliers == 1
        assert stats.backtracks == 1

    def test_near_sorted_has_few_outliers(self):
        data = generate_kl_keys(5000, 0.05, 0.02, seed=3)
        stats = KLSortStats()
        assert kl_sort(data, stats=stats) == sorted(data)
        # O(K)-ish outliers for a (K,L)-near sorted input.
        assert stats.outliers <= int(0.15 * len(data))

    @given(st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_matches_sorted(self, data):
        assert kl_sort(data) == sorted(data)

    @given(st.lists(st.integers(min_value=0, max_value=30).flatmap(
        lambda value: st.sampled_from([value, float(value)])), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_stability_for_duplicates(self, data):
        # 3 == 3.0 compare equal, so only a stable sort keeps their order;
        # sorted() is stable, so matching it type for type proves ours is.
        result = kl_sort(data)
        assert [(value, type(value)) for value in result] == [
            (value, type(value)) for value in sorted(data)]


class TestComplexityCharacter:
    def test_work_scales_with_disorder_not_n(self):
        """For fixed disorder, outliers stay O(K) as N grows."""
        small = KLSortStats()
        large = KLSortStats()
        kl_sort(generate_kl_keys(2000, 0.05, 0.02, seed=5), stats=small)
        kl_sort(generate_kl_keys(8000, 0.05, 0.02, seed=5), stats=large)
        # Outlier *fraction* should not blow up with N.
        assert large.outliers / 8000 < (small.outliers / 2000) * 2 + 0.05


def _column_cases():
    yield "kl", generate_kl_keys(400, 0.10, 0.05, seed=3)
    yield "kl-dups", [key // 3 for key in generate_kl_keys(300, 0.2, 0.1, seed=4)]
    yield "reversed", list(range(200, 0, -1))
    yield "all-equal", [7] * 120
    yield "single-spike", [10**6] + list(range(150))
    yield "late-spike", list(range(150)) + [-5]
    yield "empty", []
    yield "one", [3]


class TestKeyColumnSplitPass:
    """What the SWARE buffer runs instead of ``kl_sort`` over entry tuples:
    the split pass on the bare key column decides whether the side buffer
    fits a capacity (``kl_sort``'s outlier count), and one stable kernel
    sort produces ``kl_sort``'s order."""

    @pytest.mark.parametrize("label,keys", list(_column_cases()))
    def test_same_capacity_decision_and_same_order(self, label, keys):
        tagged = [(key, arrival) for arrival, key in enumerate(keys)]  # the buffer's (key, seq)
        stats = KLSortStats()
        expected = kl_sort(tagged, stats=stats)
        for capacity in {0, 1, 16, stats.outliers - 1, stats.outliers, stats.outliers + 1}:
            if capacity < 0:
                continue
            fits = stats.outliers <= capacity
            assert kl_split_fits(keys, capacity) is fits, (label, capacity)
        for shift in (0, 2**70):  # an int64 column, and a list one
            order = kernels.stable_argsort(kernels.key_array([key + shift for key in keys]))
            assert [int(i) for i in order] == [arrival for _key, arrival in expected]

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        capacity=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_pass_matches_kl_sort_on_random_columns(self, keys, capacity):
        stats = KLSortStats()
        kl_sort([(key, arrival) for arrival, key in enumerate(keys)], stats=stats)
        assert kl_split_fits(keys, capacity) is (stats.outliers <= capacity)
