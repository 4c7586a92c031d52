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
    def test_experiment_fig09(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
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
        assert "entries" in out

    def test_recover_without_wal(self, tmp_path, capsys):
        ckpt, _ = self._populate(tmp_path)
        assert main(["recover", ckpt, "--slot-size", "256"]) == 0
        assert "wal replay : 0 records" in capsys.readouterr().out

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
        assert main(["trace", "--n", "1500", "--perfetto", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Chrome trace-event JSON" in captured.err
        doc = json.loads(out.read_text())
        assert validate_perfetto(doc) == []
        names = {row["name"] for row in doc["traceEvents"]}
        assert "sware.flush_cycle" in names
        assert "process_name" in names


class TestExperimentProfile:
    def test_profile_prints_layer_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        assert main(["experiment", "fig09", "--n", "400", "--profile"]) == 0
        assert "profile (sampled at" in capsys.readouterr().out

    def test_profile_section_lands_in_artifact(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.bench.telemetry import validate_bench_artifact

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        out = tmp_path / "out.json"
        args = ["experiment", "fig13", "--n", "800", "--profile",
                "--json", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert validate_bench_artifact(doc) == []
        assert doc["profile"]["hz"] > 0


class TestDoctor:
    def test_healthy_scenario_is_clean(self, capsys):
        args = ["doctor", "--scenario", "healthy", "--n", "3000", "--check"]
        assert main(args) == 0
        assert "health: OK — no findings" in capsys.readouterr().out

    def test_drift_scenario_fails_check(self, capsys):
        args = ["doctor", "--scenario", "drift", "--n", "6000", "--check"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "health: CRITICAL" in out
        assert "sortedness_collapse" in out
        assert "buffer_undersized" in out
        assert "fix:" in out

    def test_drift_without_check_still_exits_zero(self, capsys):
        assert main(["doctor", "--scenario", "drift", "--n", "6000"]) == 0
        assert "sortedness_collapse" in capsys.readouterr().out

    def test_json_report_and_bench_artifact(self, tmp_path, capsys):
        import json

        from repro.bench.telemetry import validate_bench_artifact

        report = tmp_path / "report.json"
        bench = tmp_path / "bench.json"
        args = ["doctor", "--scenario", "drift", "--n", "6000",
                "--json", str(report), "--bench", str(bench)]
        assert main(args) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-doctor/v1"
        assert doc["healthy"] is False
        assert {f["code"] for f in doc["findings"]} >= {
            "sortedness_collapse", "buffer_undersized"
        }
        artifact = json.loads(bench.read_text())
        assert validate_bench_artifact(artifact) == []
        assert artifact["experiment"] == "doctor_drift"
        capsys.readouterr()

        # The artifact path reproduces the live diagnosis.
        assert main(["doctor", "--from", str(bench), "--check"]) == 1
        assert "sortedness_collapse" in capsys.readouterr().out

    def test_from_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["doctor", "--from", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_from_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["doctor", "--from", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["doctor", "--scenario", "chaos"])


class TestTop:
    def test_renders_frames_without_clearing(self, capsys):
        args = ["top", "--scenario", "healthy", "--n", "2000",
                "--interval", "0.05", "--no-clear"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "repro top — scenario:healthy (n=2000)" in out
        for label in ("sortedness", "buffer", "bloom", "health"):
            assert label in out
        assert "\x1b[2J" not in out

    def test_frame_cap_and_clear(self, capsys):
        args = ["top", "--scenario", "healthy", "--n", "2000",
                "--interval", "0.05", "--frames", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("health") >= 1
        assert "\x1b[2J" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
