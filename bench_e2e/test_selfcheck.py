"""Self-check of the benchmark (``python -m pytest bench_e2e -q``; not tier-1).

Checks the harness, not the program: that inputs are a function of the
seed, that exact counts repeat, that a wrong result is caught and fails
the run, and that ``BENCHMARK.json`` says what ``spec.py`` says.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts <repo>/src on sys.path)
import plans  # noqa: E402
import spec  # noqa: E402

EXACT_PER_LAYER = [
    "core.sware.flushes", "core.sware.bulk_load_fraction", "core.sware.sorted_entries",
    "core.sware.query_sorts", "core.sware.pages_scanned_per_lookup", "core.sware.buffer_hits",
    "core.sware.bf_false_positives", "core.sware.zonemap_page_skips", "btree.calls",
    "btree.leaf_fissions", "btree.height", "net.protocol.bytes_per_req",
    "storage.wal.bytes_per_record", "storage.checkpoint.bytes_per_record",
]


def quick(capsys, tmp_path, workload: str, seed: int = 1, trace: int = 0):
    """(exit code, result line) of one ``--quick`` run in this process."""
    code = run.main(["--workload", workload, "--quick", "--seed", str(seed),
                     "--trace", str(trace), "--out", str(tmp_path)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_manifest_is_spec_and_within_the_contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fobj:
        manifest = json.load(fobj)
    assert manifest == spec.manifest()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert len(manifest["per_layer"]) <= 128 and 2 <= len(manifest["workloads"]) <= 8


def test_quick_benchmark_finishes_in_20_s_and_is_correct():
    started = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--quick"],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert time.perf_counter() - started < 20
    assert done.returncode == 0
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(spec.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, *_ in spec.END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_plan_is_a_function_of_the_seed(name):
    workload = spec.WORKLOADS[name].sized(True)
    assert plans.build_plan(workload, 7).digest() == plans.build_plan(workload, 7).digest()
    assert plans.build_plan(workload, 7).digest() != plans.build_plan(workload, 8).digest()


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_same_seed_repeats_exact_counts(capsys, tmp_path, name):
    first, second = quick(capsys, tmp_path, name), quick(capsys, tmp_path, name)
    assert first[0] == second[0] == 0
    for key in ("attempted", "failed"):
        assert first[1][key] == second[1][key]
    ratio = "disk_bytes_per_user_byte"
    assert first[1]["metrics"][ratio] == second[1]["metrics"][ratio]


@pytest.mark.parametrize("name", ["embed_scrambled", "serve_batch"])
def test_traced_run_reports_every_layer_metric_and_repeats_counters(capsys, tmp_path, name):
    first = quick(capsys, tmp_path, name, trace=1)
    second = quick(capsys, tmp_path, name, trace=1)
    assert first[0] == second[0] == 0 and first[1]["failed"] == 0
    assert set(first[1]["metrics"]) == {metric for metric, *_ in spec.PER_LAYER}
    for metric in EXACT_PER_LAYER:
        assert first[1]["metrics"][metric] == second[1]["metrics"][metric], metric
    with open(tmp_path / f"trace-{name}.json") as fobj:
        trace = json.load(fobj)
    assert trace["columns"] == ["name", "start_ns", "end_ns", "parent", "request"]
    assert "client.request" in trace["names"] and "btree" in trace["names"]
    for name_id, start, end, parent, _request in trace["spans"]:
        assert end >= start and -1 <= parent < len(trace["spans"])
        if parent >= 0:  # a child lies inside the span that caused it
            assert trace["spans"][parent][1] <= start and end <= trace["spans"][parent][2]


@pytest.mark.parametrize("name", ["embed_nearsorted", "serve_put"])
def test_wrong_expected_value_fails_the_run(capsys, tmp_path, monkeypatch, name):
    build = plans.build_plan

    def corrupted(workload, seed):
        plan = build(workload, seed)
        at = next(i for i, request in enumerate(plan.requests) if request[2] == plans.GET)
        idx, conn, op, a, b, _expected = plan.requests[at]
        plan.requests[at] = (idx, conn, op, a, b, "not what was stored")
        return plan

    monkeypatch.setattr(plans, "build_plan", corrupted)
    code, result = quick(capsys, tmp_path, name)
    assert code != 0 and not result["correct"]
    assert result["failed"] == 2  # the one wrong expectation, in each of the two repetitions
