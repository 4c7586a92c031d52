"""Tests for the streaming monitors and threshold health rules (obs v2)."""

import pytest

from repro.btree.btree import BPlusTree
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.filters.bloom import BloomFilter
from repro.obs import Observability
from repro.obs.monitors import (
    BF_FPR_FLOOR,
    BULK_FRACTION_FLOOR,
    DEFAULT_WINDOW,
    FSYNC_P99_NS,
    MIN_BF_DECISIONS,
    MIN_FLUSHES,
    MAX_WINDOWS,
    MIN_WINDOWS,
    SORTEDNESS_COLLAPSE_DELTA,
    BloomMonitor,
    HealthFinding,
    MonitorHub,
    SaturationMonitor,
    SortednessDriftMonitor,
    build_signals,
    evaluate_signals,
)


class FakeBuffer:
    def __init__(self, size, capacity):
        self._size = size
        self.capacity = capacity

    def __len__(self):
        return self._size


class TestSortednessDriftMonitor:
    def test_windows_close_at_window_size(self):
        monitor = SortednessDriftMonitor(window=8)
        monitor.observe_keys(range(20))
        assert len(monitor.windows) == 2
        assert monitor.keys_observed == 20
        # Fully sorted input: no out-of-order keys in any window.
        for window in monitor.windows:
            assert window["n"] == 8.0
            assert window["k_fraction"] == 0.0

    def test_drift_visible_between_windows(self):
        monitor = SortednessDriftMonitor(window=16)
        monitor.observe_keys(range(16))  # sorted window
        monitor.observe_keys([100, 5, 90, 3, 80, 1, 70, 2,
                              60, 4, 50, 6, 40, 7, 30, 8])  # scrambled window
        assert len(monitor.windows) == 2
        assert monitor.windows[1]["k_fraction"] > monitor.windows[0]["k_fraction"]

    def test_windows_are_bounded(self):
        monitor = SortednessDriftMonitor(window=2)
        monitor.observe_keys(range(2 * (MAX_WINDOWS + 76)))
        assert MAX_WINDOWS == 1_024
        assert monitor.keys_observed == 2 * (MAX_WINDOWS + 76)
        assert len(monitor.windows) == MAX_WINDOWS
        assert len(monitor.snapshot()["windows"]) == MAX_WINDOWS

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            SortednessDriftMonitor(window=1)

    def test_snapshot_shape(self):
        monitor = SortednessDriftMonitor(window=4)
        monitor.observe_keys(range(9))
        snap = monitor.snapshot()
        assert snap["window"] == 4
        assert snap["keys_observed"] == 9
        assert len(snap["windows"]) == 2
        assert {"n", "k_fraction", "l_fraction"} <= set(snap["windows"][0])


class TestSaturationMonitor:
    def test_flush_accounting(self):
        monitor = SaturationMonitor()
        monitor.observe_flush(entries=100, retained=10, effortless=True)
        monitor.observe_flush(entries=50, retained=0, effortless=False)
        snap = monitor.snapshot()
        assert snap["flushes"] == 2
        assert snap["sorted_flushes"] == 1
        assert snap["flush_entries"] == 150
        assert snap["retained_entries"] == 10

    def test_fill_trajectory_and_mean(self):
        monitor = SaturationMonitor()
        for fill in (0.25, 0.5, 0.75):
            monitor.observe_fill(fill)
        snap = monitor.snapshot()
        assert snap["fill_trajectory"] == [0.25, 0.5, 0.75]
        assert snap["mean_fill"] == pytest.approx(0.5)

    def test_trajectory_is_bounded(self):
        monitor = SaturationMonitor(trajectory_capacity=4)
        for i in range(10):
            monitor.observe_fill(i / 10)
        assert len(monitor.snapshot()["fill_trajectory"]) == 4


class TestBloomMonitor:
    def test_mean_expected_fpr(self):
        monitor = BloomMonitor()
        assert monitor.mean_expected_fpr == 0.0
        monitor.observe_expected_fpr(0.01)
        monitor.observe_expected_fpr(0.03)
        assert monitor.mean_expected_fpr == pytest.approx(0.02)
        assert monitor.snapshot()["expected_fpr_samples"] == [0.01, 0.03]


class TestMonitorHub:
    def test_observe_insert_feeds_drift_and_fill(self):
        hub = MonitorHub(window=64)
        buffer = FakeBuffer(size=32, capacity=64)
        for key in range(128):
            hub.observe_insert(key, buffer)
        snap = hub.snapshot()
        assert len(snap["sortedness"]["windows"]) == 2
        assert snap["saturation"]["fill_trajectory"]  # sampled periodically
        assert snap["saturation"]["mean_fill"] == pytest.approx(0.5)

    def test_observe_inserts_batch(self):
        hub = MonitorHub(window=32)
        hub.observe_inserts(list(range(64)), FakeBuffer(16, 64))
        snap = hub.snapshot()
        assert snap["sortedness"]["keys_observed"] == 64
        assert snap["saturation"]["fill_trajectory"] == [0.25]

    def test_observe_flush_and_fsync(self):
        hub = MonitorHub()
        hub.observe_flush(entries=10, retained=2, effortless=False, expected_fpr=0.01)
        hub.observe_fsync(5_000.0)
        snap = hub.snapshot()
        assert snap["saturation"]["flushes"] == 1
        assert snap["bloom"]["mean_expected_fpr"] == pytest.approx(0.01)
        assert snap["fsync"] == {"count": 1, "total_ns": 5_000.0}

    def test_observability_opt_in(self):
        assert Observability().monitors is None
        assert isinstance(Observability(monitors=True).monitors, MonitorHub)

    def test_flush_samples_expected_fpr_of_an_unprobed_tail(self):
        """The tail's filters are built at the first probe; a tail flushed
        with no lookup in between must still report the FPR of a filter
        holding every tail key, as the eager design did."""
        config = SWAREConfig(buffer_capacity=64, page_size=8)
        index = SortednessAwareIndex(
            BPlusTree(), config=config, obs=Observability(monitors=True)
        )
        index.insert(1000, 1)
        for key in range(63, 1, -1):  # descending: everything after lands in the tail
            index.insert(key, key)
        assert index.buffer.tail_size == 62 and index.stats.flushes == 0
        index.insert(1, 1)  # fills the buffer: the flush cycle samples
        assert index.stats.flushes == 1

        eager = BloomFilter(config.buffer_capacity, config.bits_per_entry)
        for key in range(63):
            eager.add(key)
        assert eager.expected_fpr() > 0.0
        samples = index.obs.monitors.bloom.expected_fpr_samples
        assert list(samples) == [eager.expected_fpr()]


def _windows(k_fractions, n=DEFAULT_WINDOW):
    return [
        {"n": float(n), "k_fraction": k, "l_fraction": k / 2}
        for k in k_fractions
    ]


class TestBuildSignals:
    def test_from_artifact_shaped_sections(self):
        metrics = {
            "gauges": {
                "sware_flushes": 12.0,
                "sware_flushes_with_sort": 10.0,
                "sware_bulk_loaded_entries": 300.0,
                "sware_top_inserted_entries": 100.0,
                "sware_inserts": 400.0,
                "sware_global_bf_false_positives": 5.0,
                "sware_global_bf_negatives": 95.0,
            },
            "histograms": {
                "wal_fsync_ns": {"count": 30, "p99": 2_000_000.0},
            },
        }
        monitors = {
            "sortedness": {"windows": _windows([0.1, 0.1, 0.5, 0.5])},
            "saturation": {"mean_fill": 0.8},
            "bloom": {"mean_expected_fpr": 0.004},
        }
        trace = {"recorded": 100, "dropped": 7, "truncated": True}
        signals = build_signals(metrics, monitors, trace)
        assert len(signals["windows"]) == 4
        assert signals["flushes"] == 12.0
        assert signals["bulk_loaded_entries"] == 300.0
        assert signals["bf_false_positives"] == 5.0
        assert signals["expected_fpr_mean"] == pytest.approx(0.004)
        assert signals["fsync_count"] == 30.0
        assert signals["fsync_p99_ns"] == 2_000_000.0
        assert signals["trace_dropped"] == 7.0
        assert signals["mean_fill"] == 0.8

    def test_all_sections_optional(self):
        signals = build_signals(None, None, None)
        assert signals["windows"] == []
        assert signals["flushes"] == 0.0
        assert evaluate_signals(signals) == []


class TestRules:
    def test_sortedness_collapse_fires(self):
        signals = build_signals(
            None, {"sortedness": {"windows": _windows([0.1, 0.1, 0.6, 0.6])}}
        )
        (finding,) = evaluate_signals(signals)
        assert finding.code == "sortedness_collapse"
        assert finding.severity == "critical"
        assert finding.value == pytest.approx(0.5)
        assert finding.threshold == SORTEDNESS_COLLAPSE_DELTA
        assert "advisor" in finding.remediation

    def test_sortedness_stable_does_not_fire(self):
        signals = build_signals(
            None, {"sortedness": {"windows": _windows([0.1, 0.12, 0.11, 0.1])}}
        )
        assert evaluate_signals(signals) == []

    def test_sortedness_needs_min_windows(self):
        signals = build_signals(
            None,
            {"sortedness": {"windows": _windows([0.0] + [0.9] * (MIN_WINDOWS - 2))}},
        )
        assert evaluate_signals(signals) == []

    def _flush_signals(self, bulk, top, flushes=MIN_FLUSHES):
        return build_signals(
            {
                "gauges": {
                    "sware_flushes": float(flushes),
                    "sware_bulk_loaded_entries": float(bulk),
                    "sware_top_inserted_entries": float(top),
                }
            }
        )

    def test_buffer_undersized_fires(self):
        (finding,) = evaluate_signals(self._flush_signals(bulk=30, top=70))
        assert finding.code == "buffer_undersized"
        assert finding.severity == "warning"
        assert finding.value == pytest.approx(0.3)
        assert finding.threshold == BULK_FRACTION_FLOOR

    def test_buffer_healthy_does_not_fire(self):
        assert evaluate_signals(self._flush_signals(bulk=90, top=10)) == []

    def test_buffer_rule_needs_min_flushes(self):
        signals = self._flush_signals(bulk=0, top=100, flushes=MIN_FLUSHES - 1)
        assert evaluate_signals(signals) == []

    def _bloom_signals(self, fps, negatives, expected):
        return build_signals(
            {
                "gauges": {
                    "sware_global_bf_false_positives": float(fps),
                    "sware_global_bf_negatives": float(negatives),
                }
            },
            {"bloom": {"mean_expected_fpr": expected}},
        )

    def test_bloom_fpr_degraded_fires(self):
        signals = self._bloom_signals(fps=30, negatives=270, expected=0.001)
        (finding,) = evaluate_signals(signals)
        assert finding.code == "bloom_fpr_degraded"
        assert finding.value == pytest.approx(0.1)
        # Observed must exceed max(floor, factor * theoretical).
        assert finding.threshold == BF_FPR_FLOOR

    def test_bloom_rule_needs_min_decisions(self):
        signals = self._bloom_signals(
            fps=MIN_BF_DECISIONS // 2, negatives=MIN_BF_DECISIONS // 2 - 1,
            expected=0.0,
        )
        assert evaluate_signals(signals) == []

    def test_bloom_within_theoretical_does_not_fire(self):
        signals = self._bloom_signals(fps=10, negatives=990, expected=0.01)
        assert evaluate_signals(signals) == []

    def test_wal_fsync_slow_fires(self):
        signals = build_signals(
            {"histograms": {"wal_fsync_ns": {"count": 30, "p99": 2 * FSYNC_P99_NS}}}
        )
        (finding,) = evaluate_signals(signals)
        assert finding.code == "wal_fsync_slow"
        assert finding.severity == "warning"

    def test_trace_truncated_is_informational(self):
        signals = build_signals(None, None, {"recorded": 10, "dropped": 3})
        (finding,) = evaluate_signals(signals)
        assert finding.code == "trace_truncated"
        assert finding.severity == "info"

    def test_findings_sorted_most_severe_first(self):
        signals = build_signals(
            {
                "gauges": {
                    "sware_flushes": 10.0,
                    "sware_bulk_loaded_entries": 10.0,
                    "sware_top_inserted_entries": 90.0,
                }
            },
            {"sortedness": {"windows": _windows([0.1, 0.1, 0.6, 0.6])}},
            {"recorded": 10, "dropped": 5},
        )
        findings = evaluate_signals(signals)
        assert [f.severity for f in findings] == ["critical", "warning", "info"]


class TestHealthFinding:
    def test_to_dict_round_trips(self):
        finding = HealthFinding(
            severity="warning",
            code="x",
            message="m",
            remediation="r",
            value=0.5,
            threshold=0.25,
            attrs={"a": 1.0},
        )
        doc = finding.to_dict()
        assert doc["severity"] == "warning"
        assert doc["attrs"] == {"a": 1.0}
        assert "attrs" not in HealthFinding("info", "y", "m", "r").to_dict()
