"""Tests for the configuration advisor."""

import pytest

from repro.core.advisor import recommend
from repro.core.sware import SortednessAwareIndex
from repro.btree.btree import BPlusTree
from repro.sortedness.metrics import measure_sortedness


class TestRules:
    def test_near_sorted_uses_sware(self):
        rec = recommend(0.10, 0.05, read_fraction=0.5)
        assert rec.use_sware
        assert rec.split_factor == 0.8
        assert rec.flush_fraction == 0.5

    def test_scrambled_in_memory_uses_baseline(self):
        rec = recommend(1.0, 1.0, read_fraction=0.5)
        assert not rec.use_sware
        assert rec.split_factor == 0.5

    def test_scrambled_on_disk_uses_sware(self):
        rec = recommend(1.0, 1.0, read_fraction=0.5, on_disk=True)
        assert rec.use_sware

    def test_read_dominated_uses_baseline(self):
        rec = recommend(0.0, 0.0, read_fraction=0.995)
        assert not rec.use_sware

    def test_write_only_disables_query_sorting(self):
        rec = recommend(0.10, 0.05, read_fraction=0.0)
        assert rec.query_sorting_threshold == 1.0

    def test_buffer_scales_with_l(self):
        small = recommend(0.10, 0.02).buffer_fraction
        large = recommend(0.10, 0.50).buffer_fraction
        assert large > small
        assert large <= 0.05

    def test_rationale_always_given(self):
        for args in ((0.1, 0.05, 0.5), (1.0, 1.0, 0.5), (0.0, 0.0, 1.0)):
            assert recommend(*args).rationale

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            recommend(1.5, 0.1)
        with pytest.raises(ValueError):
            recommend(0.1, 0.1, read_fraction=2.0)


class TestMaterialization:
    def test_sware_config_valid(self):
        config = recommend(0.10, 0.05).sware_config(50_000)
        assert config.buffer_capacity >= 16
        assert config.buffer_capacity % config.page_size == 0

    def test_tiny_dataset_config_still_valid(self):
        config = recommend(0.10, 0.05).sware_config(100)
        assert config.buffer_capacity >= 2 * config.page_size

    def test_build_sware_index(self):
        index = recommend(0.10, 0.05).build(10_000)
        assert isinstance(index, SortednessAwareIndex)
        index.insert(1, "x")
        assert index.get(1) == "x"

    def test_build_baseline(self):
        index = recommend(1.0, 1.0).build(10_000)
        assert isinstance(index, BPlusTree)


class TestSampleBased:
    def test_recommended_index_beats_baseline_on_its_workload(self):
        """End-to-end: following the advice for a measured sample pays off."""
        from repro.bench.experiments import common
        from repro.bench.runner import run_phases, speedup

        n = 6000
        keys = common.keys_for(n, 0.10, 0.05, seed=7)
        report = measure_sortedness(list(keys))
        rec = recommend(report.k_fraction, report.l_fraction, 0.25)
        ops = common.mixed_ops(keys, 0.25, seed=7)
        base = run_phases(common.baseline_btree_factory(), [("mixed", ops)])
        advised = run_phases(lambda meter: rec.build(n, meter=meter), [("mixed", ops)])
        assert speedup(base, advised) > 1.3
