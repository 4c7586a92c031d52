"""Tests for the sampling profiler (repro.obs.profiler)."""

import threading
import time

import pytest

from repro.obs.profiler import (
    OTHER_LAYER,
    SamplingProfiler,
    layer_for_module,
    measure_overhead,
)


def _spin_in_module(module_name):
    """A busy-loop function whose frame claims to live in ``module_name``."""
    source = (
        "def spin(started, stop):\n"
        "    started.set()\n"
        "    while not stop.is_set():\n"
        "        pass\n"
    )
    namespace = {"__name__": module_name}
    exec(compile(source, "<fake>", "exec"), namespace)
    return namespace["spin"]


class TestLayerAttribution:
    def test_layer_for_module_mapping(self):
        assert layer_for_module("repro.core.buffer") == "buffer"
        assert layer_for_module("repro.core.sware") == "sware"
        assert layer_for_module("repro.btree.btree") == "btree"
        assert layer_for_module("repro.storage.wal") == "wal"
        assert layer_for_module("repro.kernels.numpy_backend") == "kernels"
        assert layer_for_module("repro.filters.bloom") == "bloom"
        # First match wins: specific entries beat the package fallback.
        assert layer_for_module("repro.core.unknown") == "repro-other"
        assert layer_for_module("os.path") is None

    def test_sample_attributes_foreign_thread_to_layer(self):
        profiler = SamplingProfiler()
        started, stop = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin_in_module("repro.core.buffer"), args=(started, stop)
        )
        worker.start()
        try:
            assert started.wait(5.0)
            seen = profiler.sample_once()
            assert seen >= 1
        finally:
            stop.set()
            worker.join()
        assert profiler.layer_samples["buffer"] >= 1

    def test_non_repro_stack_lands_in_other(self):
        profiler = SamplingProfiler()
        started, stop = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin_in_module("somelib.inner"), args=(started, stop)
        )
        worker.start()
        try:
            assert started.wait(5.0)
            profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        assert profiler.layer_samples[OTHER_LAYER] >= 1


class TestLifecycle:
    def test_background_sampling_sees_the_calling_thread(self):
        # The profiler must sample the workload thread (the one that called
        # start()), excluding only its own sampling thread.
        profiler = SamplingProfiler()
        with profiler:
            deadline = time.perf_counter() + 5.0
            while profiler.samples == 0 and time.perf_counter() < deadline:
                sum(range(1000))
        assert profiler.samples > 0
        assert not profiler.running
        assert profiler.duration_s > 0

    def test_start_is_idempotent_and_stop_without_start_is_safe(self):
        profiler = SamplingProfiler()
        assert profiler.stop() is profiler
        profiler.start()
        assert profiler.start() is profiler
        profiler.stop()


class TestOutputs:
    def _sampled(self):
        profiler = SamplingProfiler()
        started, stop = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=_spin_in_module("repro.core.buffer"), args=(started, stop)
        )
        worker.start()
        try:
            started.wait(5.0)
            for _ in range(3):
                profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        return profiler

    def test_layer_table_fractions_sum_to_one(self):
        table = self._sampled().layer_table()
        assert table
        assert sum(row["fraction"] for row in table.values()) == pytest.approx(1.0)
        for row in table.values():
            assert row["est_wall_ns"] > 0

    def test_format_table(self):
        text = self._sampled().format_table()
        assert "layer" in text and "share" in text
        assert SamplingProfiler().format_table() == "(no profile samples collected)\n"


class TestCostDiscipline:
    def test_measure_overhead_reports_ratio(self):
        report = measure_overhead(lambda: sum(range(20_000)), repeats=2)
        assert set(report) == {"bare_s", "profiled_s", "ratio"}
        assert report["bare_s"] > 0
        assert report["ratio"] > 0
