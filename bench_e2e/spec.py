"""What ``bench_e2e`` measures: workloads, sizes, and the metric catalogue.

``BENCHMARK.json`` at the repository root is this module rendered by
:func:`manifest` (``python bench_e2e/run.py --manifest``); the self-check
test keeps the two in step. The manifest's schema has no room for the
measurement constants, the layer of each per-layer metric, or the
end-to-end metric it should move, so those live here and in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Kernel backend every run is pinned to (``repro.kernels.set_backend``).
KERNEL_BACKEND = "numpy"
#: Cores of the sandbox = client connections of the served workloads.
NPROC = 2
#: ``--seconds`` of a standard run (BENCHMARK.json's ``run_seconds``).
NOMINAL_SECONDS = 20
#: One repetition of every workload — set-up plus requests — is sized to
#: take about two thirds of a second on this sandbox, and a run makes
#: ``--seconds`` x this many of them (:func:`repetitions`; R = 30 at the
#: nominal 20 s). Every timed unit keeps the minimum of its R timings. The
#: inputs depend on the seed alone, never on ``--seconds``.
REPS_PER_SECOND = 1.5
#: Share of R the rungs of a traced run get (there are seven of them).
TRACED_SHARE = 4
#: Records per timed build batch of the embedded set-up.
BUILD_BATCH = 4096
#: Requests per timed round of the served workloads (all connections).
ROUND_REQUESTS = 100
#: Window of most-recently-inserted keys the "recent" half of
#: ``embed_scrambled``'s lookups draws from (twice the SWARE buffer).
RECENT_WINDOW = 8192


@dataclass(frozen=True)
class Workload:
    """One set of inputs (sizes are per repetition)."""

    name: str
    why: str
    served: bool
    scrambled: bool
    preload: int  # records present before measuring (served: checkpointed)
    tail: int  # served only: records in the WAL tail on top of the checkpoint
    ops: int  # requests per repetition
    mix: Tuple[float, float, float]  # put / get / range shares
    batch: int  # records per put/get call (1 = PUT/GET, else PUT_MANY/GET_MANY)
    range_span: int  # key units; dense keys, so also the rows returned
    outstanding: int  # requests in flight per connection
    recent_gets: bool  # half of the lookups among the last RECENT_WINDOW inserts

    def sized(self, quick: bool) -> "Workload":
        """``--quick``: a tenth of the state and a fifth of the requests,
        for the self-check only."""
        if not quick:
            return self
        return replace(self, preload=self.preload // 10, tail=self.tail // 10, ops=self.ops // 5)


def repetitions(seconds: float, quick: bool, traced: bool) -> int:
    if quick:
        return 2
    return max(3, round(seconds * REPS_PER_SECOND) // (TRACED_SHARE if traced else 1))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="embed_nearsorted",
            why="In-process SWARE over a B+-tree on a (K=10%,L=5%) stream: the paper's "
            "headline case; buffer appends and bulk loads do the work, net and storage none.",
            served=False, scrambled=False, preload=40_000, tail=0, ops=20_000,
            mix=(0.50, 0.48, 0.02), batch=1, range_span=500, outstanding=1, recent_gets=False,
        ),
        Workload(
            name="embed_scrambled",
            why="Same harness on a scrambled stream: the fast path is bypassed, so flushes "
            "top-insert, lookups scan the unsorted buffer, and B+-tree descents dominate.",
            served=False, scrambled=True, preload=40_000, tail=0, ops=6_000,
            mix=(0.25, 0.70, 0.05), batch=1, range_span=500, outstanding=1, recent_gets=True,
        ),
        Workload(
            name="serve_put",
            why="Client to server to 2 shards, fsync=batch, 2 connections x 1 outstanding, 80% "
            "PUT: latency-bound; each PUT waits a group-commit cycle; codec, asyncio, fsync dominate.",
            served=True, scrambled=False, preload=20_000, tail=8_000, ops=400,
            mix=(0.80, 0.15, 0.05), batch=1, range_span=500, outstanding=1, recent_gets=False,
        ),
        Workload(
            name="serve_batch",
            why="Same server, 2 connections x 8 outstanding, PUT_MANY/GET_MANY of 64: throughput-"
            "bound; per-value pickling, put_many/get_many and scatter-gather dominate, one fsync "
            "covers many acks.",
            served=True, scrambled=False, preload=20_000, tail=8_000, ops=400,
            mix=(0.40, 0.40, 0.20), batch=64, range_span=1000, outstanding=8, recent_gets=False,
        ),
    )
}


# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings carry the largest bound the contract allows: across ten seeds their
# interquartile range is 2-6% of the median on a calm host and 10-19% on a
# busy one (README, "Measured repeatability").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("put_p50_ms", "ms", "lower", 0.25),
    ("get_p50_ms", "ms", "lower", 0.25),
    ("range_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("disk_bytes_per_user_byte", "ratio", "lower", 0.05),
]

# name, unit, better, end-to-end metric (and workload) it should move.
# The layer is the name up to its last dot. A metric whose layer is not on a
# workload's path reads 0 there (no net or WAL under ``embed_*``).
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("net.protocol.codec_us_per_req", "us", "lower", "ops_per_s, get_p50_ms on serve_batch; flat on serve_put"),
    ("net.protocol.bytes_per_req", "B", "lower", "ops_per_s on serve_batch"),
    ("net.protocol.bytes_per_record", "B", "lower", "ops_per_s on serve_batch"),
    ("net.server.commits", "count", "lower", "ops_per_s on serve_batch"),
    ("net.server.acks_per_commit", "count", "higher", "ops_per_s on serve_batch"),
    ("net.server.commit_wait_ms", "ms", "lower", "put_p50_ms on serve_put"),
    ("net.server.transport_us_per_req", "us", "lower", "put_p50_ms, get_p50_ms on serve_put"),
    ("net.sharded.put_us_per_op", "us", "lower", "put_p50_ms, ops_per_s on serve_*"),
    ("net.sharded.get_us_per_op", "us", "lower", "get_p50_ms on serve_*"),
    ("net.sharded.range_us_per_op", "us", "lower", "range_p50_ms on serve_*"),
    ("net.sharded.route_self_us_per_op", "us", "lower", "get_p50_ms, range_p50_ms on serve_*"),
    ("net.sharded.shards_per_range", "count", "lower", "range_p50_ms on serve_*"),
    ("ledger.service_tax_x", "x", "lower", "ops_per_s on serve_*"),
    ("ledger.unattributed_pct", "%", "lower", "nothing; what the ladder does not explain"),
    ("storage.wal.append_us_per_record", "us", "lower", "ops_per_s on serve_batch"),
    ("storage.wal.bytes_per_record", "B", "lower", "disk_bytes_per_user_byte on serve_*"),
    ("storage.wal.fsyncs", "count", "lower", "put_p50_ms on serve_put"),
    ("storage.wal.fsync_ms_p50", "ms", "lower", "put_p50_ms on serve_put"),
    ("storage.recover.total_s", "s", "lower", "setup_s on serve_*"),
    ("storage.recover.wal_records_replayed", "count", "lower", "setup_s on serve_*"),
    ("storage.checkpoint.save_s", "s", "lower", "nothing end to end; set-up of the prepared root"),
    ("storage.checkpoint.load_s", "s", "lower", "setup_s on serve_*"),
    ("storage.checkpoint.bytes_per_record", "B", "lower", "disk_bytes_per_user_byte on all"),
    ("core.sware.self_us_per_put", "us", "lower", "put_p50_ms, ops_per_s on embed_nearsorted"),
    ("core.sware.self_us_per_get", "us", "lower", "get_p50_ms on embed_scrambled"),
    ("core.sware.flushes", "count", "lower", "ops_per_s on embed_*"),
    ("core.sware.bulk_load_fraction", "ratio", "higher", "ops_per_s on embed_nearsorted (1) vs embed_scrambled (0)"),
    ("core.sware.sorted_entries", "count", "lower", "put_p50_ms on embed_*"),
    ("core.sware.query_sorts", "count", "lower", "get_p50_ms on embed_scrambled"),
    ("core.sware.pages_scanned_per_lookup", "count", "lower", "get_p50_ms on embed_scrambled"),
    ("core.sware.buffer_hits", "count", "higher", "get_p50_ms on embed_scrambled"),
    ("core.sware.bf_false_positives", "count", "lower", "get_p50_ms on embed_scrambled"),
    ("core.sware.zonemap_page_skips", "count", "higher", "get_p50_ms on embed_scrambled"),
    ("core.sware.speedup_x", "x", "higher", "ops_per_s on embed_*; the paper's claim per run"),
    ("btree.busy_us_per_op", "us", "lower", "ops_per_s, get_p50_ms on embed_scrambled"),
    ("btree.calls", "count", "lower", "ops_per_s on embed_scrambled"),
    ("btree.leaf_fissions", "count", "lower", "ops_per_s on embed_scrambled"),
    ("btree.height", "count", "lower", "get_p50_ms on embed_*"),
    ("btree.avg_leaf_fill", "ratio", "higher", "peak_rss_mb, disk_bytes_per_user_byte on embed_*"),
    ("btree.physical_fill", "ratio", "higher", "peak_rss_mb on embed_*"),
    ("btree.baseline_ops_per_s", "1/s", "higher", "nothing; the bare-tree rung speedup_x divides by"),
    ("client.put_p99_ms", "ms", "lower", "informational; does not repeat within a tenth"),
    ("client.get_p99_ms", "ms", "lower", "informational"),
    ("client.range_p99_ms", "ms", "lower", "informational"),
    ("client.samples", "count", "higher", "smallest per-kind sample count behind the p99s"),
    ("obs.trace_overhead_pct", "%", "lower", "nothing; bounds what the ladder may cost"),
]


def manifest() -> dict:
    """``BENCHMARK.json`` (exactly the keys its contract allows)."""
    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": NOMINAL_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _moves in PER_LAYER],
    }
