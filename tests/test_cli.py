"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--n", "50", "--k", "0.1", "--l", "0.1"]) == 0
        lines = capsys.readouterr().out.split()
        assert len(lines) == 50
        assert sorted(int(x) for x in lines) == list(range(50))

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "keys.txt"
        assert main(["generate", "--n", "20", "--out", str(out)]) == 0
        assert len(out.read_text().split()) == 20

    def test_generate_scrambled(self, capsys):
        assert main(["generate", "--n", "100", "--scrambled", "--seed", "3"]) == 0
        keys = [int(x) for x in capsys.readouterr().out.split()]
        assert keys != sorted(keys)

    def test_generate_deterministic(self, capsys):
        main(["generate", "--n", "30", "--seed", "5"])
        first = capsys.readouterr().out
        main(["generate", "--n", "30", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestMeasure:
    def test_measure_file(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("1\n3\n2\n4\n")
        assert main(["measure", str(path)]) == 0
        out = capsys.readouterr().out
        assert "K " in out or "K" in out
        assert "degree" in out

    def test_measure_sorted(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("\n".join(str(i) for i in range(100)))
        main(["measure", str(path)])
        assert "sorted" in capsys.readouterr().out

    def test_measure_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("5 1 4 2 3"))
        assert main(["measure"]) == 0
        assert "degree" in capsys.readouterr().out

    def test_measure_empty_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["measure", str(path)]) == 1

    def test_measure_refuses_a_key_outside_int64(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text(f"1\n{2**63}\n3\n")
        assert main(["measure", str(path)]) == 1
        assert "outside int64" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "bulk-loaded" in out

    def test_demo_sorted_wins(self, capsys):
        main(["demo", "--n", "3000", "--k", "0.0", "--l", "0.0", "--read-fraction", "0.1"])
        out = capsys.readouterr().out
        speedup_line = next(line for line in out.splitlines() if "speedup" in line)
        value = float(speedup_line.split(":")[1].strip().rstrip("x"))
        assert value > 1.5


class TestExperiment:
    def test_experiment_fig09(self, capsys):
        assert main(["experiment", "fig09", "--n", "300"]) == 0
        assert "Fig. 9" in capsys.readouterr().out

    def test_experiment_space(self, capsys):
        assert main(["experiment", "space", "--n", "2000"]) == 0
        assert "Space" in capsys.readouterr().out

    def test_experiment_fig19_takes_n(self, capsys):
        # --n is fig19's largest size; the sweep keeps its proportions.
        assert main(["experiment", "fig19", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 19a" in out
        assert "\n   3000 |" in out and "\n   1500 |" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestRecover:
    def _populate(self, tmp_path, n=60):
        from repro.core.config import SWAREConfig
        from repro.core.factory import make_sa_btree
        from repro.storage.pagefile import CheckpointStore
        from repro.storage.wal import WriteAheadLog

        ckpt = str(tmp_path / "index.db")
        wal_path = str(tmp_path / "index.wal")
        config = SWAREConfig(buffer_capacity=16, page_size=4)
        index = make_sa_btree(config)
        index.wal = WriteAheadLog(wal_path)
        for key in range(n):
            index.insert(key, key * 2)
        CheckpointStore(ckpt, slot_size=256).save_index(index)
        # Post-checkpoint tail that recovery must replay.
        index.insert(10_000, "tail")
        index.wal.close()
        return ckpt, wal_path

    def test_recover_reports_checkpoint_and_wal(self, tmp_path, capsys):
        ckpt, wal_path = self._populate(tmp_path)
        assert main(["recover", ckpt, "--wal", wal_path, "--slot-size", "256"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint : epoch 1" in out
        assert "wal replay" in out
        assert "entries    : 61\n" in out  # 60 checkpointed + the tail's one

    def test_recover_without_wal(self, tmp_path, capsys):
        ckpt, _ = self._populate(tmp_path)
        assert main(["recover", ckpt, "--slot-size", "256"]) == 0
        assert "wal replay : 0 records" in capsys.readouterr().out

    def test_sharded_total_counts_each_live_key_once(self, tmp_path, capsys):
        """A WAL tail that overwrites and deletes checkpointed keys leaves
        them in the buffer beside the tree's copies; the total is the live
        keys, not the tree's entries plus the buffer's."""
        from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex

        root = str(tmp_path / "db")
        config = ShardedConfig(n_shards=2, split_threshold=0, initial_key_range=(0, 100))
        with ShardedSortednessAwareIndex(root, config) as index:
            index.put_many([(key, key) for key in range(100)])
            index.checkpoint_all()
            index.put_many([(key, -key) for key in range(0, 100, 10)])  # overwrites
            for key in range(5, 100, 10):
                index.delete(key)
        assert main(["recover", root, "--sharded"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("recovered 2 shards, 90 live entries\n")
        per_shard = [int(line.split(":")[1]) for line in out.splitlines()
                     if line.startswith("entries    :")]
        assert per_shard == [45, 45]

    def test_recover_corrupt_checkpoint_fails(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.db"
        ckpt.write_bytes(b"\xff" * 4096)
        assert main(["recover", str(ckpt)]) == 1
        assert "recovery failed" in capsys.readouterr().err


class TestTracePerfetto:
    def test_writes_schema_valid_trace_event_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_perfetto

        out = tmp_path / "trace.json"
        assert main(["observe", "--n", "1500", "--perfetto", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Chrome trace-event JSON" in captured.err
        doc = json.loads(out.read_text())
        assert validate_perfetto(doc) == []
        names = {row["name"] for row in doc["traceEvents"]}
        assert "sware.flush_cycle" in names
        assert "process_name" in names


class TestExperimentProfile:
    def test_profile_prints_layer_table(self, capsys):
        assert main(["experiment", "fig09", "--n", "400", "--profile"]) == 0
        assert "profile (sampled at" in capsys.readouterr().out


class TestDoctor:
    """``observe``'s doctor view (the default) over a seeded scenario."""

    def test_healthy_scenario_is_clean(self, capsys):
        args = ["observe", "--scenario", "healthy", "--n", "3000", "--doctor", "--check"]
        assert main(args) == 0
        assert "health: OK — no findings" in capsys.readouterr().out

    def test_drift_scenario_fails_check(self, capsys):
        args = ["observe", "--scenario", "drift", "--n", "6000", "--check"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "health: CRITICAL" in out
        assert "sortedness_collapse" in out
        assert "buffer_undersized" in out
        assert "fix:" in out

    def test_drift_without_check_still_exits_zero(self, capsys):
        assert main(["observe", "--scenario", "drift", "--n", "6000"]) == 0
        out = capsys.readouterr().out
        assert "sortedness_collapse" in out
        # Untraced: no ring, so no trace_truncated note.
        assert "trace_truncated" not in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["observe", "--scenario", "chaos"])

    def test_check_belongs_to_the_doctor_view(self, capsys):
        assert main(["observe", "--n", "500", "--prom", "--check"]) == 2
        assert "--check" in capsys.readouterr().err


class TestTop:
    def test_renders_frames_without_clearing(self, capsys):
        args = ["observe", "--top", "--scenario", "healthy", "--n", "2000",
                "--interval", "0.05", "--no-clear"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "repro observe — scenario:healthy (n=2000)" in out
        for label in ("sortedness", "buffer", "bloom", "health"):
            assert label in out
        assert "\x1b[2J" not in out

    def test_frame_cap_and_clear(self, capsys):
        args = ["observe", "--top", "--scenario", "healthy", "--n", "2000",
                "--interval", "0.05", "--frames", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("health") >= 1
        assert "\x1b[2J" in out

    def test_frame_cap_returns_before_the_workload_ends(self, capsys):
        import threading

        args = ["observe", "--top", "--scenario", "drift", "--n", "60000",
                "--frames", "1", "--no-clear"]
        assert main(args) == 0
        (worker,) = [t for t in threading.enumerate()
                     if t.name == "repro-observe-workload"]
        # One frame out and the command is back; the run is still going.
        assert worker.is_alive()
        worker.join(120)
        assert not worker.is_alive()
        assert capsys.readouterr().out.count("health") == 1


@pytest.fixture
def live_server(tmp_path):
    """A 1-shard server carrying a monitored obs, on a background loop."""
    import asyncio
    import threading

    from repro.net.server import IndexServer
    from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex
    from repro.obs import Observability

    obs = Observability(monitors=True)
    index = ShardedSortednessAwareIndex(
        str(tmp_path / "db"),
        ShardedConfig(n_shards=1, split_threshold=0, fsync_policy="never"),
        obs=obs,
    )
    server = IndexServer(index, obs=obs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()
        index.close()


class TestConnect:
    """``observe --connect`` reads a running server's STATS snapshot."""

    def _feed_drift(self, server):
        from repro.net.client import SyncIndexClient
        from repro.sortedness.generator import generate_kl_keys, scrambled_keys

        keys = generate_kl_keys(3000, 0.10, 0.05, seed=7)
        keys += scrambled_keys(3000, seed=8, start=3000)
        with SyncIndexClient(port=server.port) as client:
            for i in range(0, len(keys), 250):
                client.put_many([(key, key) for key in keys[i : i + 250]])

    def test_doctor_reports_the_served_collapse(self, live_server, capsys):
        self._feed_drift(live_server)
        target = f"127.0.0.1:{live_server.port}"
        assert main(["observe", "--connect", target, "--doctor", "--check"]) == 1
        out = capsys.readouterr().out
        assert f"repro doctor — server:{target}" in out
        assert "sortedness_collapse" in out

    def test_prom_and_top_frames_are_polls(self, live_server, capsys):
        self._feed_drift(live_server)
        target = f"127.0.0.1:{live_server.port}"
        assert main(["observe", "--connect", target, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_sware_inserts 6000" in out
        assert "repro_shard_0_inserts 6000" in out
        args = ["observe", "--connect", target, "--top", "--frames", "2",
                "--interval", "0.01", "--no-clear"]
        assert main(args) == 0
        assert capsys.readouterr().out.count("health") == 2

    def test_timeline_needs_a_scenario(self, capsys):
        assert main(["observe", "--connect", "127.0.0.1:1", "--timeline"]) == 2
        assert "need --scenario" in capsys.readouterr().err

    def test_unreachable_server(self, tmp_path, capsys):
        import socket

        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["observe", "--connect", f"127.0.0.1:{port}"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
