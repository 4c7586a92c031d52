"""Tests for the (K,L)-sortedness metrics."""

from hypothesis import given, settings, strategies as st

from repro.sortedness import (
    RunningSortednessEstimate,
    count_inversions,
    count_out_of_order,
    longest_nondecreasing_subsequence_length,
    max_displacement,
    measure_sortedness,
)


class TestLNDS:
    def test_empty(self):
        assert longest_nondecreasing_subsequence_length([]) == 0

    def test_sorted(self):
        assert longest_nondecreasing_subsequence_length([1, 2, 3]) == 3

    def test_with_duplicates(self):
        # Non-decreasing: duplicates extend the subsequence.
        assert longest_nondecreasing_subsequence_length([1, 1, 1]) == 3

    def test_reverse(self):
        assert longest_nondecreasing_subsequence_length([3, 2, 1]) == 1

    def test_classic(self):
        assert longest_nondecreasing_subsequence_length([3, 1, 2, 5, 4]) == 3


class TestK:
    def test_sorted_is_zero(self):
        assert count_out_of_order(list(range(50))) == 0

    def test_one_swap_displaces_two(self):
        keys = list(range(10))
        keys[2], keys[7] = keys[7], keys[2]
        assert count_out_of_order(keys) == 2

    def test_reverse(self):
        assert count_out_of_order([5, 4, 3, 2, 1]) == 4

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_k_bounds(self, keys):
        k = count_out_of_order(keys)
        assert 0 <= k <= max(0, len(keys) - 1)

    @given(st.lists(st.integers(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_k_zero_iff_sorted(self, keys):
        is_sorted = all(a <= b for a, b in zip(keys, keys[1:]))
        assert (count_out_of_order(keys) == 0) == is_sorted


class TestL:
    def test_sorted_is_zero(self):
        assert max_displacement(list(range(20))) == 0

    def test_adjacent_swap(self):
        assert max_displacement([2, 1, 3]) == 1

    def test_long_throw(self):
        keys = list(range(10))
        keys[0], keys[9] = keys[9], keys[0]
        assert max_displacement(keys) == 9

    def test_duplicates_stable(self):
        # Stable ordering means equal keys are not "displaced".
        assert max_displacement([5, 5, 5, 5]) == 0


class TestInversions:
    def test_sorted(self):
        assert count_inversions([1, 2, 3]) == 0

    def test_reverse(self):
        assert count_inversions([3, 2, 1]) == 3

    def test_duplicates_not_inverted(self):
        assert count_inversions([2, 2, 2]) == 0

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_reference(self, keys):
        reference = sum(
            1
            for i in range(len(keys))
            for j in range(i + 1, len(keys))
            if keys[i] > keys[j]
        )
        assert count_inversions(keys) == reference


class TestReport:
    def test_sorted_report(self):
        report = measure_sortedness(list(range(100)))
        assert report.k == report.l == report.inversions == 0
        assert report.degree() == "sorted"

    def test_fractions(self):
        keys = list(range(10))
        keys[0], keys[5] = keys[5], keys[0]
        report = measure_sortedness(keys)
        assert report.k_fraction == 0.2
        assert report.l_fraction == 0.5

    def test_empty_collection(self):
        report = measure_sortedness([])
        assert report.k_fraction == 0.0
        assert report.l_fraction == 0.0

    def test_degrees(self):
        from repro.sortedness.generator import generate_kl_keys, scrambled_keys

        near = measure_sortedness(generate_kl_keys(2000, 0.10, 0.05, seed=1))
        assert near.degree() == "near-sorted"
        scrambled = measure_sortedness(scrambled_keys(2000, seed=1))
        assert scrambled.degree() == "scrambled"


class TestRunningEstimate:
    def test_sorted_stream_estimates_zero(self):
        estimate = RunningSortednessEstimate()
        for key in range(100):
            estimate.observe(key)
        assert estimate.k_estimate == 0
        assert estimate.l_estimate == 0

    def test_out_of_order_detected(self):
        estimate = RunningSortednessEstimate()
        for key in (1, 2, 3, 0):
            estimate.observe(key)
        assert estimate.k_estimate == 1
        assert estimate.l_estimate >= 1

    def test_reset(self):
        estimate = RunningSortednessEstimate()
        estimate.observe(5)
        estimate.observe(1)
        estimate.reset()
        assert estimate.n == 0
        assert estimate.k_estimate == 0

    def test_k_fraction_tracks_stream(self):
        from repro.sortedness.generator import generate_kl_keys

        estimate = RunningSortednessEstimate()
        for key in generate_kl_keys(4000, 0.10, 0.05, seed=2):
            estimate.observe(key)
        # The online estimate should be within a loose band of the truth.
        assert 0.02 < estimate.k_fraction < 0.40


    @given(
        keys=st.lists(st.integers(min_value=-20, max_value=60), max_size=80),
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_observe_many_matches_definition_for_any_chunking(self, keys, cuts):
        """K = descents; L = the most earlier keys above a descended key.
        Per key, in arbitrary chunks (empty ones too) or at once: the same
        ``n`` / ``k_estimate`` / ``l_estimate``, hence the same fractions."""
        descents = [i for i in range(1, len(keys)) if keys[i] < keys[i - 1]]
        expected = (
            len(keys),
            len(descents),
            max((sum(1 for k in keys[:i] if k > keys[i]) for i in descents), default=0),
        )
        bounds = sorted({0, len(keys), *(min(c, len(keys)) for c in cuts)})
        chunked, per_key, whole = (RunningSortednessEstimate() for _ in range(3))
        chunked.observe_many([])
        for start, stop in zip(bounds, bounds[1:]):
            chunked.observe_many(keys[start:stop])
        for key in keys:
            per_key.observe(key)
        whole.observe_many(tuple(keys))
        for estimate in (chunked, per_key, whole):
            assert (estimate.n, estimate.k_estimate, estimate.l_estimate) == expected
            assert estimate.k_fraction == (expected[1] / len(keys) if keys else 0.0)
