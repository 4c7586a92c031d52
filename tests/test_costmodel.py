"""Tests for the cost model and meter."""

import pytest

from repro.storage.costmodel import (
    DEFAULT_WEIGHTS,
    NULL_METER,
    CostModel,
    Meter,
)


class TestCostModel:
    def test_default_weights_present(self):
        model = CostModel()
        assert model.nanos({"node_access": 1}) == DEFAULT_WEIGHTS["node_access"]

    def test_unknown_kind_is_free(self):
        assert CostModel().nanos({"frobnicate": 100}) == 0.0

    def test_overrides(self):
        model = CostModel({"node_access": 1.0})
        assert model.nanos({"node_access": 5}) == 5.0
        # Non-overridden weights keep defaults.
        assert model.nanos({"disk_read": 1}) == DEFAULT_WEIGHTS["disk_read"]

    def test_nanos_sums_counts(self):
        model = CostModel({"a": 2.0, "b": 3.0})
        assert model.nanos({"a": 10, "b": 1}) == 23.0

    def test_disk_dwarfs_memory(self):
        model = CostModel()
        assert model.nanos({"disk_read": 1}) > 100 * model.nanos({"node_access": 1})


class TestMeter:
    def test_charge_accumulates(self):
        meter = Meter()
        meter.charge("x")
        meter.charge("x", 4)
        assert meter["x"] == 5

    def test_missing_kind_zero(self):
        assert Meter()["nothing"] == 0.0

    def test_nanos(self):
        meter = Meter()
        meter.charge("node_access", 10)
        assert meter.nanos(CostModel()) == 10 * DEFAULT_WEIGHTS["node_access"]

    def test_buckets_attribute_charges(self):
        meter = Meter()
        with meter.bucket("sort"):
            meter.charge("sort_comparison", 100)
        meter.charge("sort_comparison", 50)  # unbucketed
        buckets = meter.bucket_nanos(CostModel())
        assert buckets["sort"] == 100 * DEFAULT_WEIGHTS["sort_comparison"]
        assert meter["sort_comparison"] == 150

    def test_nested_buckets_innermost_wins(self):
        meter = Meter()
        with meter.bucket("outer"):
            meter.charge("a", 1)
            with meter.bucket("inner"):
                meter.charge("a", 2)
        assert meter.bucket_counts["outer"]["a"] == 1
        assert meter.bucket_counts["inner"]["a"] == 2

    def test_bucket_is_a_stack_push_and_pop(self):
        meter = Meter()
        with meter.bucket("phase"):
            assert meter._bucket_stack == ["phase"]
        with pytest.raises(KeyError):
            with meter.bucket("boom"):
                raise KeyError("boom")
        assert meter._bucket_stack == []

    def test_reset(self):
        meter = Meter()
        with meter.bucket("b"):
            meter.charge("x")
        meter.reset()
        assert meter["x"] == 0
        assert not meter.bucket_counts

    def test_snapshot_is_copy(self):
        meter = Meter()
        meter.charge("x")
        snap = meter.snapshot()
        meter.charge("x")
        assert snap["x"] == 1

    def test_merge_adds_counts_and_buckets(self):
        a = Meter()
        with a.bucket("sort"):
            a.charge("sort_comparison", 10)
        a.charge("node_access", 3)
        b = Meter()
        with b.bucket("sort"):
            b.charge("sort_comparison", 5)
        with b.bucket("bulk_load"):
            b.charge("bulk_entry", 7)
        assert a.merge(b) is a
        assert a["sort_comparison"] == 15
        assert a["node_access"] == 3
        assert a["bulk_entry"] == 7
        assert a.bucket_counts["sort"]["sort_comparison"] == 15
        assert a.bucket_counts["bulk_load"]["bulk_entry"] == 7
        # The merged-from meter is untouched.
        assert b["sort_comparison"] == 5

    def test_merge_then_reset_supports_multi_phase_aggregation(self):
        total = Meter()
        phase = Meter()
        for _ in range(3):
            phase.charge("node_access", 2)
            total.merge(phase)
            phase.reset()
        assert total["node_access"] == 6
        assert phase["node_access"] == 0


class TestNullMeter:
    def test_discards_everything(self):
        NULL_METER.charge("x", 100)
        assert NULL_METER["x"] == 0

    def test_bucket_is_noop(self):
        with NULL_METER.bucket("anything"):
            NULL_METER.charge("y")
        assert not NULL_METER.bucket_counts

    def test_bucket_is_shared_reentrant_and_transparent_to_exceptions(self):
        # One reusable context object (no generator per ``with``), safe to
        # nest, and it must not swallow what is raised inside it.
        assert NULL_METER.bucket("a") is NULL_METER.bucket("b")
        with NULL_METER.bucket("outer"):
            with NULL_METER.bucket("inner"):
                pass
        with pytest.raises(KeyError):
            with NULL_METER.bucket("boom"):
                raise KeyError("boom")
        assert not NULL_METER.bucket_counts and not NULL_METER._bucket_stack
