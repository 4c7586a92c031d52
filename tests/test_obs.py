"""Tests for the repro.obs observability layer and its one snapshot shape."""

import json
from contextlib import nullcontext

import pytest

from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    NULL_OBS,
    MetricsRegistry,
    Observability,
    Tracer,
    current_obs,
    observe,
)
from repro.obs.export import render_trace, snapshot_to_prometheus
from repro.obs.registry import Histogram, sanitize_name
from repro.obs.tracer import NULL_SPAN


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        for _ in range(5):
            counter.inc()
        assert counter.value == 5

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_name_sanitization(self):
        assert sanitize_name("a.b c-d") == "a_b_c_d"
        assert sanitize_name("9lives").startswith("_")


class TestHistogram:
    def test_bucket_boundaries_inclusive_upper(self):
        # Prometheus `le` semantics: a value equal to a bound lands in that
        # bound's bucket, one above it lands in the next.
        hist = Histogram("h", buckets=[10.0, 20.0, 30.0])
        hist.observe(10.0)
        hist.observe(10.1)
        hist.observe(20.0)
        hist.observe(30.1)  # overflow -> +Inf bucket
        assert hist.counts == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(70.2)

    def test_below_first_bound(self):
        hist = Histogram("h", buckets=[10.0, 20.0])
        hist.observe(0.0)
        assert hist.counts == [1, 0, 0]

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[10.0, 10.0])

    def test_percentiles_interpolate(self):
        hist = Histogram("h", buckets=[100.0, 200.0])
        for _ in range(100):
            hist.observe(150.0)  # all in the (100, 200] bucket
        p50 = hist.percentile(50.0)
        assert 100.0 < p50 <= 200.0
        assert hist.percentile(0.0) <= p50 <= hist.percentile(99.0)

    def test_percentile_empty_and_bounds(self):
        hist = Histogram("h", buckets=[1.0])
        assert hist.percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_percentile_overflow_clamps_to_last_bound(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        hist.observe(100.0)
        assert hist.percentile(99.0) == 2.0

    def test_mean(self):
        hist = Histogram("h", buckets=[10.0])
        hist.observe(4.0)
        hist.observe(6.0)
        assert hist.mean == 5.0


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.event("x", a=1)
        with tracer.span("y"):
            pass
        assert len(tracer) == 0
        assert tracer.recorded == 0

    def test_disabled_span_is_shared_null(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b") is tracer.span("c")

    def test_enabled_event(self):
        tracer = Tracer(enabled=True)
        tracer.event("flush", entries=10)
        (event,) = tracer.events()
        assert event.name == "flush"
        assert event.attrs == {"entries": 10}
        assert event.dur_ns is None

    def test_span_duration_and_nesting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            tracer.event("inner_event")
            with tracer.span("inner"):
                pass
            outer.set(entries=3)
        events = tracer.events()
        names = [e.name for e in events]
        # Spans record at exit: inner completes before outer.
        assert names == ["inner_event", "inner", "outer"]
        by_name = {e.name: e for e in events}
        assert by_name["inner_event"].depth == 1
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        assert by_name["outer"].dur_ns >= by_name["inner"].dur_ns >= 0
        assert by_name["outer"].attrs == {"entries": 3}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3, enabled=True)
        for i in range(5):
            tracer.event(f"e{i}")
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2
        assert tracer.recorded == 5

    def test_enable_disable_toggle(self):
        tracer = Tracer()
        tracer.enabled = True
        tracer.event("a")
        tracer.enabled = False
        tracer.event("b")
        assert [e.name for e in tracer.events()] == ["a"]

    def test_enabled_is_an_instance_attribute(self):
        # Every verb tests ``obs.enabled``: an instance attribute's load
        # specialises, a property's or a shadowing class attribute's does not.
        assert NULL_OBS.enabled is False
        assert Observability(trace=True).enabled is True
        assert Observability().enabled is False
        assert "enabled" not in vars(type(NULL_OBS))
        assert "enabled" not in vars(Observability)

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.event("a")
        tracer.clear()
        assert len(tracer) == 0 and tracer.recorded == 0


class TestObservabilityFacade:
    def test_null_obs_is_inert(self):
        assert NULL_OBS.enabled is False
        NULL_OBS.event("x")
        NULL_OBS.count("c")
        NULL_OBS.gauge("g", 1.0)
        NULL_OBS.observe_hist("h", 1.0)
        assert NULL_OBS.snapshot() == {"metrics": {}, "monitors": {}, "trace": {}}
        with NULL_OBS.span("s") as span:
            span.set(a=1)
        assert NULL_OBS.register_collector("n", dict) == "n"

    def test_current_obs_defaults_to_null(self):
        assert current_obs() is NULL_OBS

    def test_observe_installs_and_restores(self):
        obs = Observability()
        with observe(obs) as installed:
            assert installed is obs
            assert current_obs() is obs
            inner = Observability()
            with observe(inner):
                assert current_obs() is inner
            assert current_obs() is obs
        assert current_obs() is NULL_OBS

    def test_collector_names_deduplicate(self):
        obs = Observability()
        assert obs.register_collector("sware", dict) == "sware"
        assert obs.register_collector("sware", dict) == "sware_2"
        assert obs.register_collector("sware", dict) == "sware_3"

    def test_helpers_hit_registry(self):
        obs = Observability()
        obs.count("ops")
        obs.count("ops")
        obs.gauge("fill", 0.5)
        obs.observe_hist("sizes", 3.0, buckets=DEFAULT_SIZE_BUCKETS)
        snap = obs.registry.snapshot()
        assert snap["counters"]["ops"] == 2
        assert snap["gauges"]["fill"] == 0.5
        assert snap["histograms"]["sizes"]["count"] == 1


class TestRegistrySnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        for _ in range(7):
            registry.counter("ops").inc()
        registry.gauge("fill").set(0.25)
        hist = registry.histogram("lat", buckets=[10.0, 100.0])
        for v in (5.0, 50.0, 500.0):
            hist.observe(v)
        registry.register_collector("pool", lambda: {"hits": 3, "skip": None})
        return registry

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["counters"] == {"ops": 7.0}
        assert snap["gauges"] == {"fill": 0.25, "pool_hits": 3.0}
        hist = snap["histograms"]["lat"]
        assert hist["buckets"] == [10.0, 100.0]
        assert hist["counts"] == [1, 1, 1]
        assert hist["count"] == 3
        assert {"p50", "p95", "p99"} <= set(hist)

    def test_snapshot_is_json_serializable(self):
        snap = self._populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestSnapshot:
    """``Observability.snapshot()``: the one shape every view reads."""

    def test_one_collector_poll_per_snapshot(self):
        obs = Observability()
        polls = {"n": 0}

        def collect():
            polls["n"] += 1
            return {"value": float(polls["n"])}

        obs.register_collector("src", collect)
        first = obs.snapshot()
        assert polls["n"] == 1
        assert first["metrics"]["gauges"]["src_value"] == 1.0
        assert obs.snapshot()["metrics"]["gauges"]["src_value"] == 2.0

    def test_sections_are_builtin_and_json_round_trip(self):
        from repro.storage.pages import decode_value, encode_value

        obs = Observability(trace=True, monitors=True)
        obs.monitors.observe_inserts(range(600))
        obs.count("ops")
        obs.observe_hist("lat", 10.0)
        obs.event("e")
        snap = obs.snapshot()
        assert set(snap) == {"metrics", "monitors", "trace"}
        assert json.loads(json.dumps(snap)) == snap
        # The socket's no-globals decoder accepts it (the STATS reply).
        assert decode_value(encode_value(snap), trusted=False) == snap
        assert snap["trace"]["recorded"] == 1
        assert len(snap["monitors"]["sortedness"]["windows"]) == 1

    def test_monitors_section_empty_when_hub_off(self):
        assert Observability().snapshot()["monitors"] == {}


class TestExporters:
    def test_prometheus_format(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.counter("ops").inc()
        registry.gauge("fill").set(0.5)
        hist = registry.histogram("lat", buckets=[10.0, 100.0])
        hist.observe(5.0)
        hist.observe(50.0)
        text = snapshot_to_prometheus(registry.snapshot())
        assert "# TYPE repro_ops counter" in text
        assert "repro_ops 3" in text
        assert "# TYPE repro_fill gauge" in text
        assert 'repro_lat_bucket{le="10"} 1' in text
        assert 'repro_lat_bucket{le="100"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_count 2" in text
        assert "repro_lat_sum 55" in text

    def test_prometheus_from_saved_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snapshot_to_prometheus(snap) == snapshot_to_prometheus(registry.snapshot())

    def test_empty_registry_renders_empty_exposition(self):
        assert snapshot_to_prometheus(MetricsRegistry().snapshot()) == "\n"
        assert snapshot_to_prometheus({}) == "\n"

    def test_help_lines_for_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("ops")
        registry.gauge("fill")
        registry.histogram("lat", buckets=[10.0])
        text = snapshot_to_prometheus(registry.snapshot())
        # A description generated from each metric's name and kind.
        assert "# HELP repro_ops ops (counter)" in text
        assert "# HELP repro_fill fill (gauge)" in text
        assert "# HELP repro_lat lat (histogram)" in text

    def test_nan_and_infinite_gauges_spelled_per_exposition_format(self):
        snap = {
            "gauges": {
                "broken": float("nan"),
                "ceiling": float("inf"),
                "floor": float("-inf"),
            }
        }
        text = snapshot_to_prometheus(snap)
        assert "repro_broken NaN" in text
        assert "repro_ceiling +Inf" in text
        assert "repro_floor -Inf" in text
        assert "nan" not in text  # repr() spelling would break scrapers

    def test_snapshot_names_sanitized_on_the_way_out(self):
        # A hand-built snapshot may carry names a live registry would have rejected.
        text = snapshot_to_prometheus({"counters": {"op.latency-total": 2}})
        assert "repro_op_latency_total 2" in text

    def test_inf_bucket_bound_in_snapshot_histogram(self):
        snap = {
            "histograms": {
                "h": {
                    "buckets": [1.0, float("inf")],
                    "counts": [1, 2, 0],
                    "sum": 5.0,
                    "count": 3,
                }
            }
        }
        text = snapshot_to_prometheus(snap)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert text.count('le="+Inf"') == 2  # the inf bound + the closing bucket
        assert "repro_h_count 3" in text

    def test_render_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("flush", entries=4):
            tracer.event("sort", algorithm="kl")
        text = render_trace(tracer)
        assert "flush" in text and "sort" in text
        assert "algorithm=kl" in text
        assert "ms" in text

    def test_render_trace_empty(self):
        assert "no trace events" in render_trace(Tracer(enabled=True))

    def test_render_trace_limit(self):
        tracer = Tracer(enabled=True)
        for i in range(10):
            tracer.event(f"e{i}")
        text = render_trace(tracer, limit=2)
        assert "e9" in text and "e0" not in text


class TestComponentIntegration:
    """The obs layer threads through index construction via the context."""

    def _run_workload(self, obs):
        from repro.bench.experiments import common
        from repro.bench.runner import run_phases

        keys = common.keys_for(2000, 0.10, 0.05, seed=3)
        ops = common.mixed_ops(keys, 0.3, seed=3)
        with observe(obs) if obs is not None else nullcontext():
            return run_phases(
                common.sa_btree_factory(common.buffer_config(2000, 0.01)),
                [("mixed", ops)],
                label="SA",
            )

    def test_run_phases_populates_registry_and_trace(self):
        obs = Observability(trace=True)
        result = self._run_workload(obs)
        snap = obs.registry.snapshot()
        # Per-op latency distributions were recorded.
        assert snap["histograms"]["op_insert_latency_ns"]["count"] == 2000
        assert snap["histograms"]["op_lookup_latency_ns"]["count"] > 0
        # Flush-size histograms from the SWARE hot path.
        assert snap["histograms"]["sware_flush_entries"]["count"] > 0
        # SWAREStats and the Meter surface through collectors.
        assert snap["gauges"]["sware_inserts"] == 2000
        assert any(name.startswith("meter_SA") for name in snap["gauges"])
        assert any(name.startswith("btree_") for name in snap["gauges"])
        # Structured events were traced.
        names = {event.name for event in obs.tracer.events()}
        assert "sware.flush_cycle" in names
        assert "run.phase" in names
        assert result.n_ops == 2000 + snap["histograms"]["op_lookup_latency_ns"]["count"]

    def test_run_without_obs_stays_dark(self):
        result = self._run_workload(None)
        assert current_obs() is NULL_OBS
        assert result.n_ops > 0

    def test_index_constructed_under_observe_registers(self):
        from repro.btree.btree import BPlusTree
        from repro.core.sware import SortednessAwareIndex
        from repro.storage.costmodel import Meter

        obs = Observability()
        with observe(obs):
            index = SortednessAwareIndex(BPlusTree(), meter=Meter())
        assert index.obs is obs
        for key in range(100):
            index.insert(key, key)
        assert obs.registry.snapshot()["gauges"]["sware_inserts"] == 100

    def test_bufferpool_eviction_traced(self):
        from repro.storage.bufferpool import BufferPool

        obs = Observability(trace=True)
        with observe(obs):
            pool = BufferPool(capacity=2)
        for page in range(4):
            pool.access(page)
        names = [e.name for e in obs.tracer.events()]
        assert names.count("pool.evict") == 2
        assert obs.registry.snapshot()["gauges"]["bufferpool_evictions"] == 2


class TestCLI:
    def test_stats_prometheus_output(self, capsys):
        from repro.cli import main

        assert main(["observe", "--n", "1500", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_op_insert_latency_ns histogram" in out
        assert "repro_sware_inserts" in out

    def test_trace_output(self, capsys):
        from repro.cli import main

        assert main(["observe", "--n", "1500", "--timeline", "50"]) == 0
        out = capsys.readouterr().out
        assert "sware.flush_cycle" in out
