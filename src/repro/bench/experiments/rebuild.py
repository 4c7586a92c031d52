"""Checkpoint compression + offline rebuild bench (``repro bench-rebuild``).

Two questions, per the "compressed key sort and fast index reconstruction"
direction:

* **Space amplification** — how much smaller is a v2 (delta-compressed
  key columns) checkpoint than a v1 (raw) checkpoint of the same tree,
  per SOSD-like dataset family? Reported at two granularities: the
  on-disk file (slot-rounded, directory + footer included) and the raw
  page payload bytes. Gauges: ``rebuild_space_amp_<family>_file_x`` and
  ``rebuild_space_amp_<family>_payload_x`` (>1 = compression wins).

* **Rebuild throughput** — with a long WAL tail, how does the offline
  rebuild (stream compressed runs, k-way merge on encoded pages,
  ``bulk_load_append`` a fresh tree) compare against incremental
  recovery's per-op replay? Gauges: ``rebuild_bulk_ops_per_s``,
  ``rebuild_replay_ops_per_s``, ``rebuild_speedup_x``. Both paths are
  asserted to recover the *identical* item set before any number is
  reported.

The throughput gauges end in ``_ops_per_s`` so ``repro perf-gate`` tracks
them against the committed baseline ``results/BENCH_rebuild_numpy.json``; the
space-amplification gauges are asserted directly by the CI rebuild-smoke
job.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import PhaseResult, RunResult
from repro.btree.btree import BPlusTree
from repro.core.sware import SortednessAwareIndex
from repro.obs import current_obs
from repro.storage import CheckpointStore, WriteAheadLog, rebuild_index
from repro.storage.pages import serialize_btree
from repro.workloads import sosd
from repro.workloads.spec import value_for

#: Finer slots than the 4 KB default so compression wins are visible at
#: file granularity instead of vanishing into slot rounding.
BENCH_SLOT_SIZE = 256

#: (family label, key generator) — the SOSD-like families of PR 9.
FAMILIES = [
    ("books", sosd.books_like_keys),
    ("fb", sosd.fb_like_keys),
    ("wiki", sosd.wiki_timestamp_keys),
    ("tpch", sosd.tpch_receiptdate_stream),
]


@dataclass
class RebuildResult:
    report: str
    #: family -> {"file_x": ..., "payload_x": ..., raw/compressed bytes}
    space: Dict[str, Dict[str, float]]
    #: gauge name -> value (throughputs and speedup)
    throughputs: Dict[str, float]
    runs: List[RunResult] = field(default_factory=list)
    artifact_extra: Dict[str, object] = field(default_factory=dict)


def _build_index(keys: List[int], wal=None) -> SortednessAwareIndex:
    index = SortednessAwareIndex(BPlusTree(), wal=wal)
    insert = index.insert
    for key in keys:
        insert(key, value_for(key))
    return index


def _payload_bytes(tree, compress: bool) -> int:
    blob = serialize_btree(tree, compress=compress)
    return sum(len(page) for page in blob["pages"].values())


def run(
    n: int = 50_000,
    tail: int = 100_000,
    space_n: int = 30_000,
    seed: int = 7,
) -> RebuildResult:
    n = common.scaled(n)
    tail = common.scaled(tail)
    space_n = common.scaled(space_n)
    obs = current_obs()
    space: Dict[str, Dict[str, float]] = {}
    throughputs: Dict[str, float] = {}
    space_rows: List[list] = []
    clock = time.perf_counter_ns

    with tempfile.TemporaryDirectory(prefix="repro-bench-rebuild-") as tmpdir:
        # -- phase A: checkpoint space amplification per family ------------
        space_run = RunResult(label="space_amp")
        for family, generator in FAMILIES:
            keys = generator(space_n, seed=seed)
            index = _build_index(keys)
            index.flush_all()
            tree = index.backend
            raw_payload = _payload_bytes(tree, compress=False)
            compressed_payload = _payload_bytes(tree, compress=True)
            v1_path = os.path.join(tmpdir, f"{family}-v1.db")
            v2_path = os.path.join(tmpdir, f"{family}-v2.db")
            start = clock()
            CheckpointStore(v1_path, BENCH_SLOT_SIZE, compress=False).save_btree(tree)
            CheckpointStore(v2_path, BENCH_SLOT_SIZE, compress=True).save_btree(tree)
            wall = clock() - start
            raw_file = os.path.getsize(v1_path)
            compressed_file = os.path.getsize(v2_path)
            file_x = raw_file / compressed_file if compressed_file else 0.0
            payload_x = (
                raw_payload / compressed_payload if compressed_payload else 0.0
            )
            space[family] = {
                "raw_file_bytes": raw_file,
                "compressed_file_bytes": compressed_file,
                "raw_payload_bytes": raw_payload,
                "compressed_payload_bytes": compressed_payload,
                "file_x": file_x,
                "payload_x": payload_x,
            }
            obs.gauge(f"rebuild_space_amp_{family}_file_x", file_x)
            obs.gauge(f"rebuild_space_amp_{family}_payload_x", payload_x)
            space_run.phases.append(
                PhaseResult(
                    name=f"space_{family}", n_ops=space_n, sim_ns=0.0,
                    wall_ns=float(wall),
                )
            )
            space_rows.append(
                [
                    family,
                    f"{raw_file:,}",
                    f"{compressed_file:,}",
                    f"{file_x:.2f}x",
                    f"{payload_x:.2f}x",
                ]
            )

        # -- phase B: rebuild vs replay recovery at a long WAL tail --------
        ckpt_path = os.path.join(tmpdir, "base.db")
        wal_path = os.path.join(tmpdir, "base.wal")
        base_keys = sosd.books_like_keys(n, seed=seed)
        wal = WriteAheadLog(wal_path)
        index = _build_index(base_keys, wal=wal)
        store = CheckpointStore(ckpt_path, BENCH_SLOT_SIZE, compress=True)
        store.save_index(index)
        wal.reset()
        # The tail interleaves updates of resident keys with fresh inserts,
        # the post-checkpoint traffic a long-running ingest accumulates.
        tail_keys = sosd.books_like_keys(tail, seed=seed + 1)
        for i, key in enumerate(tail_keys):
            if i % 3 == 0:
                index.insert(base_keys[i % n], value_for(key))
            else:
                index.insert(key, value_for(key))
        wal.sync()
        wal.close()
        expected = dict(index.items())
        total_ops = n + tail

        start = clock()
        replayed, _report = CheckpointStore(
            ckpt_path, BENCH_SLOT_SIZE
        ).recover(wal_path)
        replay_wall = clock() - start

        start = clock()
        rebuilt, rebuild_report = rebuild_index(
            ckpt_path, wal_path, slot_size=BENCH_SLOT_SIZE
        )
        rebuild_wall = clock() - start

        replay_items = dict(replayed.items())
        rebuilt_items = dict(rebuilt.items())
        if replay_items != expected or rebuilt_items != expected:
            raise AssertionError(
                "recovery equivalence violated: "
                f"expected {len(expected)} items, replay {len(replay_items)}, "
                f"rebuild {len(rebuilt_items)}"
            )

        replay_ops_s = total_ops / replay_wall * 1e9 if replay_wall else 0.0
        rebuild_ops_s = total_ops / rebuild_wall * 1e9 if rebuild_wall else 0.0
        speedup = replay_wall / rebuild_wall if rebuild_wall else 0.0
        throughputs["rebuild_bulk_ops_per_s"] = rebuild_ops_s
        throughputs["rebuild_replay_ops_per_s"] = replay_ops_s
        obs.gauge("rebuild_bulk_ops_per_s", rebuild_ops_s)
        obs.gauge("rebuild_replay_ops_per_s", replay_ops_s)
        obs.gauge("rebuild_speedup_x", speedup)

        recovery_run = RunResult(label="recovery")
        recovery_run.phases.append(
            PhaseResult(
                name="replay", n_ops=total_ops, sim_ns=0.0,
                wall_ns=float(replay_wall),
            )
        )
        recovery_run.phases.append(
            PhaseResult(
                name="rebuild", n_ops=total_ops, sim_ns=0.0,
                wall_ns=float(rebuild_wall),
            )
        )

    runs = [space_run, recovery_run]
    for run_result in runs:
        obs.record_run(run_result.to_dict())

    space_table = format_table(
        ["family", "v1 file B", "v2 file B", "file amp", "payload amp"],
        space_rows,
        title=f"Checkpoint space amplification ({space_n:,} keys/family, "
        f"slot {BENCH_SLOT_SIZE} B)",
    )
    recovery_table = format_table(
        ["path", "wall ms", "keys/s"],
        [
            ["WAL replay", f"{replay_wall / 1e6:.1f}", f"{replay_ops_s:,.0f}"],
            ["rebuild", f"{rebuild_wall / 1e6:.1f}", f"{rebuild_ops_s:,.0f}"],
        ],
        title=f"Recovery at a {tail:,}-record WAL tail over {n:,} checkpointed "
        f"keys (speedup {speedup:.1f}x)",
    )
    report = "\n".join(
        [
            "Rebuild bench",
            "",
            space_table,
            "",
            recovery_table,
            "",
            rebuild_report.describe(),
        ]
    )
    extra = {
        "rebuild": {
            "space": space,
            "tail_records": tail,
            "base_keys": n,
            "speedup_x": speedup,
            "slot_size": BENCH_SLOT_SIZE,
            "entries": rebuild_report.entries,
        }
    }
    return RebuildResult(
        report=report,
        space=space,
        throughputs=throughputs,
        runs=runs,
        artifact_extra=extra,
    )
