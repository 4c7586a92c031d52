"""Tests for the doctor (scenarios, findings, reports) and dashboard views
of ``repro observe``, in process and against a live server."""

import asyncio
import json
import threading

import pytest

from repro.net.client import IndexClient
from repro.net.server import IndexServer
from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex
from repro.obs import Observability
from repro.obs.doctor import (
    SCENARIOS,
    evaluate,
    format_report,
    run_scenario,
    scenario_workload,
    split_findings,
)
from repro.obs.top import format_dashboard, live_loop, spark
from repro.workloads.spec import INSERT


def _traced(scenario, n):
    return run_scenario(scenario, n=n, obs=Observability(trace=True, monitors=True))


@pytest.fixture(scope="module")
def healthy_obs():
    return _traced("healthy", 4000)


@pytest.fixture(scope="module")
def drift_obs():
    return _traced("drift", 6000)


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("nope", n=100)

    def test_healthy_scenario_evaluates_clean(self, healthy_obs):
        actionable, _notes = split_findings(evaluate(healthy_obs.snapshot()))
        assert actionable == []

    def test_drift_scenario_reports_collapse_and_undersizing(self, drift_obs):
        actionable, _notes = split_findings(evaluate(drift_obs.snapshot()))
        codes = [f.code for f in actionable]
        assert "sortedness_collapse" in codes
        assert "buffer_undersized" in codes
        # Most severe first: the collapse (critical) leads the report.
        assert actionable[0].code == "sortedness_collapse"

    def test_scenario_runs_populate_monitors_and_trace(self, drift_obs):
        snap = drift_obs.snapshot()
        monitors = snap["monitors"]
        assert len(monitors["sortedness"]["windows"]) >= 4
        assert monitors["saturation"]["flushes"] > 0
        assert monitors["bloom"]["expected_fpr_samples"]
        assert snap["trace"]["recorded"] > 0

    def test_external_obs_is_used(self):
        obs = Observability(monitors=True)
        returned = run_scenario("healthy", n=1000, obs=obs)
        assert returned is obs
        assert obs.monitors.sortedness.keys_observed == 1000

    def test_default_obs_monitors_without_tracing(self):
        obs = run_scenario("healthy", n=1000)
        assert obs.monitors is not None
        assert obs.snapshot()["trace"]["recorded"] == 0

    def test_scenario_names_exported(self):
        assert SCENARIOS == ("healthy", "drift")


class TestArtifactParity:
    """The snapshot is the one artifact: serialized, it evaluates the same."""

    def test_live_and_artifact_paths_agree(self, drift_obs):
        snap = drift_obs.snapshot()
        live = evaluate(snap)
        from_json = evaluate(json.loads(json.dumps(snap)))
        assert [f.to_dict() for f in from_json] == [f.to_dict() for f in live]

    def test_artifact_without_obs_sections_evaluates_empty(self):
        assert evaluate({}) == []
        assert evaluate(Observability().snapshot()) == []


def _served_snapshot(tmp_path, config, inserts):
    """STATS ``obs`` of a 1-shard server fed ``inserts`` over a client."""

    async def scenario():
        obs = Observability(monitors=True)
        index = ShardedSortednessAwareIndex(
            str(tmp_path / "db"),
            ShardedConfig(
                n_shards=1, split_threshold=0, fsync_policy="never",
                index_config=config,
            ),
            obs=obs,
        )
        server = IndexServer(index, obs=obs)
        await server.start()
        client = await IndexClient.connect(server.host, server.port)
        try:
            for i in range(0, len(inserts), 500):
                await client.put_many(inserts[i : i + 500])
            stats = await client.stats()
        finally:
            await client.close()
            await server.stop()
            index.close()
        return stats

    return asyncio.run(scenario())


class TestServedParity:
    """A live server fed a scenario's inserts diagnoses like the scenario."""

    def test_drift_findings_match_the_in_process_run(self, tmp_path):
        config, ops = scenario_workload("drift", n=20_000)
        inserts = [(key, value) for op, key, value in ops if op == INSERT]
        stats = _served_snapshot(tmp_path, config, inserts)
        served = [f.code for f in evaluate(stats["obs"])]
        in_process = [f.code for f in evaluate(run_scenario("drift", n=20_000).snapshot())]
        assert served == in_process
        assert "sortedness_collapse" in served
        # The pre-existing STATS keys stay beside the snapshot.
        assert stats["n_shards"] == 1
        assert {"server", "shard_map"} <= set(stats)
        gauges = stats["obs"]["metrics"]["gauges"]
        assert gauges["sware_inserts"] == gauges["shard_0_inserts"] == len(inserts)


class TestReports:
    def test_format_report_clean(self, healthy_obs):
        text = format_report(evaluate(healthy_obs.snapshot()), source="unit")
        assert "repro doctor — unit" in text
        assert "health: OK — no findings" in text

    def test_format_report_findings(self, drift_obs):
        text = format_report(evaluate(drift_obs.snapshot()), source="unit")
        assert "health: CRITICAL" in text
        assert "sortedness_collapse" in text
        assert "fix:" in text  # remediation hints are rendered


class TestSpark:
    def test_levels_and_clipping(self):
        assert spark([]) == "(no samples)"
        strip = spark([0.0, 0.5, 1.0, 2.0])
        assert len(strip) == 4
        assert strip[0] == " " and strip[2] == "█" == strip[3]

    def test_width_keeps_tail(self):
        assert len(spark([0.5] * 100, width=10)) == 10


class TestDashboard:
    def test_dashboard_renders_all_sections(self, drift_obs):
        text = format_dashboard(drift_obs.snapshot(), title="unit top")
        assert text.startswith("unit top\n========")
        for label in ("sortedness", "buffer", "flushes", "bloom",
                      "wal fsync", "trace", "health"):
            assert label in text
        assert "CRITICAL" in text and "sortedness_collapse" in text

    def test_dashboard_on_empty_obs(self):
        text = format_dashboard(Observability(trace=True, monitors=True).snapshot())
        assert "(warming up)" in text
        assert "health       OK" in text
        assert "bloom        no metered probes" in text

    def test_dropped_events_surface(self, drift_obs):
        assert drift_obs.tracer.dropped > 0
        assert "dropped (ring truncated)" in format_dashboard(drift_obs.snapshot())


class TestLiveLoop:
    def test_renders_final_frame_after_done(self):
        import io

        obs = Observability(trace=True, monitors=True)
        done = threading.Event()
        done.set()
        out = io.StringIO()
        rendered = live_loop(obs.snapshot, done, interval=0.01, clear=False, out=out)
        assert rendered == 1
        assert "health" in out.getvalue()

    def test_frames_limit(self):
        import io

        obs = Observability(monitors=True)
        done = threading.Event()  # never set: the frame cap must stop us
        out = io.StringIO()
        rendered = live_loop(obs.snapshot, done, interval=0.01, frames=3,
                             clear=False, out=out)
        assert rendered == 3
        assert out.getvalue().count("health") == 3

    def test_clear_emits_ansi(self):
        import io

        done = threading.Event()
        done.set()
        out = io.StringIO()
        live_loop(Observability(monitors=True).snapshot, done, clear=True, out=out)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")
