"""Tests for repro.filters.bloom."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.filters.bloom import BloomFilter, optimal_num_probes
from repro.filters.hashing import shared_base


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            BloomFilter(100, bits_per_entry=-1)

    def test_optimal_probes_for_paper_default(self):
        # 10 bits/entry -> k = round(10 ln 2) = 7.
        assert optimal_num_probes(10.0) == 7

    def test_optimal_probes_minimum_one(self):
        assert optimal_num_probes(0.5) == 1

    def test_sizes(self):
        bf = BloomFilter(1000, bits_per_entry=10)
        assert bf.n_bits == 10_000
        assert bf.n_probes == 7


class TestNoFalseNegatives:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_added_keys_always_positive(self, keys):
        bf = BloomFilter(max(len(keys), 1), bits_per_entry=10)
        for key in keys:
            bf.add(key)
        for key in keys:
            assert bf.may_contain(key)

    def test_shared_hash_paths_agree(self):
        bf = BloomFilter(64, rotation=17)
        bf.add_bases((shared_base(42),))
        assert bf.may_contain_base(shared_base(42))
        assert bf.may_contain(42)


class TestFalsePositiveRate:
    def test_fpr_near_theoretical(self):
        bf = BloomFilter(2000, bits_per_entry=10)
        for key in range(2000):
            bf.add(key)
        false_positives = sum(
            1 for key in range(1_000_000, 1_010_000) if bf.may_contain(key)
        )
        rate = false_positives / 10_000
        # ~0.8% expected at 10 bits/entry; allow generous slack.
        assert rate < 0.03

    def test_expected_fpr_formula(self):
        bf = BloomFilter(1000, bits_per_entry=10)
        assert bf.expected_fpr() == 0.0
        for key in range(1000):
            bf.add(key)
        assert 0.001 < bf.expected_fpr() < 0.02

    def test_empty_filter_all_negative(self):
        bf = BloomFilter(100)
        assert not any(bf.may_contain(key) for key in range(50))


class TestClearAndState:
    def test_clear_resets(self):
        bf = BloomFilter(100)
        for key in range(100):
            bf.add(key)
        assert bf.saturation > 0
        bf.clear()
        assert bf.saturation == 0
        assert bf.n_added == 0
        assert not bf.may_contain(5)

    def test_saturation_grows(self):
        bf = BloomFilter(100)
        before = bf.saturation
        bf.add(1)
        assert bf.saturation > before

    def test_contains_dunder(self):
        bf = BloomFilter(16)
        bf.add(3)
        assert 3 in bf

    def test_probe_counter(self):
        bf = BloomFilter(16)
        bf.may_contain(1)
        bf.may_contain(2)
        assert bf.probe_count == 2


class TestRotationIndependence:
    def test_rotated_filters_disagree_on_aliases(self):
        """Per-page filters with rotation should not mirror the global
        filter's false positives (that is the point of bit rotation)."""
        plain = BloomFilter(64, bits_per_entry=6, rotation=0)
        rotated = BloomFilter(64, bits_per_entry=6, rotation=17)
        for key in range(64):
            plain.add(key)
            rotated.add(key)
        probe_range = range(10_000, 40_000)
        fp_plain = {key for key in probe_range if plain.may_contain(key)}
        fp_rotated = {key for key in probe_range if rotated.may_contain(key)}
        if fp_plain or fp_rotated:
            overlap = len(fp_plain & fp_rotated)
            assert overlap < max(len(fp_plain), len(fp_rotated))
