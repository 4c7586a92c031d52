"""Tests for workload specs and the synthetic TPC-H generator."""

import pytest

from repro.sortedness.metrics import measure_sortedness
from repro.workloads.spec import (
    INSERT,
    LOOKUP,
    MixedWorkloadSpec,
    RawWorkloadSpec,
    value_for,
)
from repro.workloads.tpch import (
    generate_lineitem_dates,
    receiptdate_keys,
    sorted_by_shipdate,
)


class TestMixedWorkload:
    def test_preload_then_interleave(self):
        spec = MixedWorkloadSpec(keys=tuple(range(100)), read_fraction=0.5)
        ops = spec.materialize()
        # First 80 ops are the preload inserts, in arrival order.
        assert all(op[0] == INSERT for op in ops[:80])
        assert [op[1] for op in ops[:80]] == list(range(80))
        tail = ops[80:]
        inserts = [op for op in tail if op[0] == INSERT]
        lookups = [op for op in tail if op[0] == LOOKUP]
        assert len(inserts) == 20
        assert len(lookups) == 20  # 50:50 over the interleaved phase

    def test_read_ratio_respected(self):
        spec = MixedWorkloadSpec(keys=tuple(range(1000)), read_fraction=0.75)
        tail = spec.materialize()[800:]
        lookups = sum(1 for op in tail if op[0] == LOOKUP)
        inserts = sum(1 for op in tail if op[0] == INSERT)
        assert inserts == 200
        assert lookups == pytest.approx(600, abs=2)

    def test_every_insert_appears_once(self):
        spec = MixedWorkloadSpec(keys=tuple(range(200)), read_fraction=0.3)
        inserted = [op[1] for op in spec.operations() if op[0] == INSERT]
        assert sorted(inserted) == list(range(200))

    def test_lookups_are_non_empty(self):
        """Lookups only target keys that have already been ingested."""
        spec = MixedWorkloadSpec(keys=tuple(range(100)), read_fraction=0.6, seed=3)
        ingested = set()
        for op, key, _ in spec.materialize():
            if op == INSERT:
                ingested.add(key)
            else:
                assert key in ingested

    def test_max_reads_cap(self):
        spec = MixedWorkloadSpec(
            keys=tuple(range(100)), read_fraction=0.9, max_reads=10
        )
        lookups = sum(1 for op in spec.operations() if op[0] == LOOKUP)
        assert lookups == 10

    def test_deterministic_by_seed(self):
        a = MixedWorkloadSpec(keys=tuple(range(50)), read_fraction=0.5, seed=1)
        b = MixedWorkloadSpec(keys=tuple(range(50)), read_fraction=0.5, seed=1)
        assert a.materialize() == b.materialize()

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            MixedWorkloadSpec(keys=(1,), read_fraction=1.0)
        with pytest.raises(ValueError):
            MixedWorkloadSpec(keys=(1,), read_fraction=0.5, preload_fraction=2.0)

    def test_value_payload_deterministic(self):
        assert value_for(21) == 43


class TestRawWorkload:
    def test_ingest_covers_all_keys(self):
        spec = RawWorkloadSpec(keys=tuple(range(50)))
        ops = list(spec.ingest_operations())
        assert [op[1] for op in ops] == list(range(50))

    def test_lookup_count(self):
        spec = RawWorkloadSpec(keys=tuple(range(50)), n_lookups=17)
        assert len(list(spec.lookup_operations())) == 17

    def test_range_width_from_selectivity(self):
        spec = RawWorkloadSpec(
            keys=tuple(range(1000)), n_ranges=5, range_selectivity=0.1
        )
        for _, lo, hi in spec.range_operations():
            assert hi - lo == 99  # 10% of the 999-wide domain

    def test_no_ranges_when_zero(self):
        spec = RawWorkloadSpec(keys=tuple(range(10)))
        assert list(spec.range_operations()) == []


class TestTPCH:
    def test_date_derivation_rules(self):
        dates = generate_lineitem_dates(500, seed=1)
        for i in range(500):
            assert 1 <= dates.shipdate[i] - dates.orderdate[i] <= 121
            assert 30 <= dates.commitdate[i] - dates.orderdate[i] <= 90
            assert 1 <= dates.receiptdate[i] - dates.shipdate[i] <= 30

    def test_sort_by_shipdate_keeps_rows_together(self):
        dates = sorted_by_shipdate(generate_lineitem_dates(300, seed=2))
        assert dates.shipdate == sorted(dates.shipdate)
        for i in range(300):
            assert 1 <= dates.receiptdate[i] - dates.shipdate[i] <= 30

    def test_receiptdate_near_sorted_phenomenon(self):
        """The paper's §V-H observation: shipdate-sorted data leaves
        receiptdate with very high K but small L."""
        keys = receiptdate_keys(4000, seed=3)
        report = measure_sortedness(keys)
        assert report.k_fraction > 0.5  # paper: 96.67%
        assert report.l_fraction < 0.10  # paper: 0.1% (density-dependent)
        assert report.l_fraction < report.k_fraction / 5

    def test_receiptdate_keys_unique(self):
        keys = receiptdate_keys(2000, seed=4)
        assert len(set(keys)) == len(keys)
