"""Tests for the benchmark runner and report formatting."""

import pytest

from repro.bench.report import (
    ascii_scatter,
    format_matrix,
    format_table,
)
from repro.bench.runner import execute_operations, phase_speedup, run_phases, speedup
from repro.core.config import SWAREConfig
from repro.core.factory import make_baseline_btree, make_sa_btree
from repro.workloads.spec import DELETE, INSERT, LOOKUP, RANGE


def baseline_factory(meter):
    return make_baseline_btree(meter=meter)


def sa_factory(meter):
    return make_sa_btree(
        SWAREConfig(buffer_capacity=64, page_size=8), meter=meter
    )


class TestExecute:
    def test_dispatches_all_ops(self):
        index = make_baseline_btree()
        ops = [
            (INSERT, 1, 10),
            (INSERT, 2, 20),
            (LOOKUP, 1, 0),
            (RANGE, 0, 5),
            (DELETE, 1, 0),
        ]
        assert execute_operations(index, ops) == 5
        assert index.get(1) is None
        assert index.get(2) == 20

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            execute_operations(make_baseline_btree(), [(99, 0, 0)])


class TestRunPhases:
    def test_phases_measured_separately(self):
        ingest = [(INSERT, k, k) for k in range(200)]
        lookups = [(LOOKUP, k, 0) for k in range(100)]
        result = run_phases(
            baseline_factory, [("ingest", ingest), ("lookups", lookups)], label="x"
        )
        assert result.phase("ingest").n_ops == 200
        assert result.phase("lookups").n_ops == 100
        assert result.phase("ingest").sim_ns > 0
        assert result.n_ops == 300
        assert result.sim_ns == pytest.approx(
            result.phase("ingest").sim_ns + result.phase("lookups").sim_ns
        )

    def test_missing_phase_raises(self):
        result = run_phases(baseline_factory, [("only", [])])
        with pytest.raises(KeyError):
            result.phase("nope")

    def test_sware_stats_collected(self):
        ingest = [(INSERT, k, k) for k in range(200)]
        result = run_phases(sa_factory, [("ingest", ingest)])
        assert result.sware_stats["inserts"] == 200
        assert "leaf_splits" in result.index_stats

    def test_flush_after(self):
        ingest = [(INSERT, k, k) for k in range(100)]
        result = run_phases(sa_factory, [("ingest", ingest)], flush_after="ingest")
        total = (
            result.sware_stats["bulk_loaded_entries"]
            + result.sware_stats["top_inserted_entries"]
        )
        assert total == 100

    def test_speedup_helpers(self):
        ingest = [(INSERT, k, k) for k in range(500)]
        base = run_phases(baseline_factory, [("ingest", ingest)])
        sa = run_phases(sa_factory, [("ingest", ingest)])
        assert speedup(base, sa) > 1.0  # sorted ingest: SA wins
        assert phase_speedup(base, sa, "ingest") == pytest.approx(speedup(base, sa))

    def test_per_op_latency(self):
        ingest = [(INSERT, k, k) for k in range(100)]
        result = run_phases(baseline_factory, [("ingest", ingest)])
        assert result.sim_ns_per_op == pytest.approx(result.sim_ns / 100)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in text  # floats formatted to 2dp

    def test_format_matrix(self):
        text = format_matrix(
            ["r1", "r2"], ["c1", "c2"], lambda r, c: 1.5, row_header="rows"
        )
        assert "r1" in text and "c2" in text and "1.50" in text

    def test_ascii_scatter_bounds(self):
        text = ascii_scatter([0, 1, 2], [0, 1, 4], width=10, height=4)
        lines = text.splitlines()
        assert len(lines) == 6  # 4 rows + 2 borders
        assert all(len(line) == 12 for line in lines)

    def test_ascii_scatter_empty(self):
        assert "empty" in ascii_scatter([], [])

