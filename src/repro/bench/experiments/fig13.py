"""Fig. 13 — latency breakdown of SA B+-tree operations.

(a) ingestion time split into bulk-load / sort / top-insert (+ buffer
    upkeep) for sorted, near-sorted and less-sorted workloads: top-insert
    time escalates as sortedness decreases;
(b) query time split into buffer search / SWARE ops / tree search: tree
    search dominates (~80-99%) regardless of sortedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for

PRESETS = [
    ("sorted", 0.0, 0.0),
    ("near-sorted", 0.10, 0.05),
    ("less-sorted", 1.00, 0.50),
]

INGEST_BUCKETS = ["bulk_load", "sort", "top_insert", "other"]
QUERY_BUCKETS = ["buffer_search", "sware_ops", "tree_search", "other"]


@dataclass
class Fig13Result:
    report: str
    ingest_breakdown: Dict[str, Dict[str, float]]
    query_breakdown: Dict[str, Dict[str, float]]


def _split_buckets(run, phase_names, bucket_names) -> Dict[str, float]:
    total = sum(run.phase(p).sim_ns for p in phase_names)
    buckets = {name: run.bucket_sim_ns.get(name, 0.0) for name in bucket_names if name != "other"}
    accounted = sum(buckets.values())
    buckets["other"] = max(0.0, total - accounted)
    return buckets


def run(
    n: int = 20_000,
    buffer_fraction: float = 0.01,
    n_lookups: int = 4000,
    seed: int = 7,
) -> Fig13Result:
    ingest_breakdown: Dict[str, Dict[str, float]] = {}
    query_breakdown: Dict[str, Dict[str, float]] = {}

    for label, k_fraction, l_fraction in PRESETS:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
        ingest = [(INSERT, key, value_for(key)) for key in keys]
        lookups = list(common.raw_spec(keys, n_lookups=n_lookups, seed=seed).lookup_operations())
        result = run_phases(
            common.sa_btree_factory(common.buffer_config(n, buffer_fraction)),
            [("ingest", ingest), ("queries", lookups)],
            label=f"SA {label}",
        )
        # Bucket charges accumulate over the whole run; ingest buckets only
        # fire during ingestion and query buckets only during queries, so
        # attributing them per phase is exact.
        ingest_breakdown[label] = _split_buckets(result, ["ingest"], INGEST_BUCKETS)
        query_breakdown[label] = _split_buckets(result, ["queries"], QUERY_BUCKETS)

    def table(title, breakdown, buckets):
        headers = ["sortedness"] + buckets + ["total (sim ms)"]
        rows = []
        for label, values in breakdown.items():
            total = sum(values.values()) or 1.0
            rows.append(
                [label]
                + [f"{100 * values.get(b, 0.0) / total:.1f}%" for b in buckets]
                + [f"{total / 1e6:.2f}"]
            )
        return format_table(headers, rows, title=title)

    report = "\n".join(
        [
            table("Fig. 13a — SA B+-tree ingestion breakdown", ingest_breakdown, INGEST_BUCKETS),
            table("Fig. 13b — SA B+-tree query breakdown", query_breakdown, QUERY_BUCKETS),
        ]
    )
    return Fig13Result(
        report=report,
        ingest_breakdown=ingest_breakdown,
        query_breakdown=query_breakdown,
    )


def check(result: Fig13Result) -> None:
    def share(breakdown, bucket):
        total = sum(breakdown.values()) or 1.0
        return breakdown.get(bucket, 0.0) / total

    # Ingestion: no sorting/top-inserts when fully sorted; top-insert time
    # escalates as sortedness decreases.
    assert share(result.ingest_breakdown["sorted"], "sort") == 0.0
    assert share(result.ingest_breakdown["sorted"], "top_insert") == 0.0
    assert (
        share(result.ingest_breakdown["less-sorted"], "top_insert")
        > share(result.ingest_breakdown["near-sorted"], "top_insert")
    )
    # Queries: tree search dominates in every configuration.
    for label, breakdown in result.query_breakdown.items():
        assert share(breakdown, "tree_search") > 0.5, label
