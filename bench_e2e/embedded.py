"""``embed_*``: the plan against an in-process ``SortednessAwareIndex``."""

from __future__ import annotations

import gc
import os
from typing import Dict, Tuple

from repro import BPlusTree, CheckpointStore, SortednessAwareIndex

from ladder import batches, btree_rung, checkpoint_rung, sware_methods, sware_metrics, sware_rung
from measure import (
    Spans,
    fold_min,
    latency_metrics,
    new_timings,
    now,
    peak_rss_mb,
    run_sync,
    state_divergence,
)
from plans import Plan
from spec import PER_LAYER

USER_BYTES_PER_RECORD = 8 + 8  # int64 key + int64 value


def repeat(plan: Plan, reps: int):
    """The deployment as a user runs it, ``reps`` times from nothing:
    (per-batch build minima, per-op minima, wrong results, last index)."""
    build_best = lat_best = None
    failed = 0
    for _rep in range(reps):
        index = None  # drop the previous repetition's index before timing
        gc.collect()
        index = SortednessAwareIndex(BPlusTree())
        build = []
        for batch in batches(plan.preload):
            t0 = now()
            index.put_many(batch)
            build.append(now() - t0)
        start, lat = new_timings(plan)
        failed += run_sync(sware_methods(index), plan, start, lat)
        build_best = fold_min(build_best, build)
        lat_best = fold_min(lat_best, lat)
    return build_best, lat_best, failed, index


def run_e2e(_workload, plan: Plan, reps: int, work: str, _spans=None) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics with tracing off: (metrics, attempted, failed)."""
    build_best, lat_best, failed, index = repeat(plan, reps)
    failed += state_divergence(index.items(), plan)
    path = os.path.join(work, "final.db")
    CheckpointStore(path).save_index(index)
    metrics = {
        "setup_s": sum(build_best) / 1e9,
        "ops_per_s": len(plan.requests) / (sum(lat_best) / 1e9),
        **latency_metrics(plan, lat_best, 0.50, "p50_ms"),
        "peak_rss_mb": peak_rss_mb(),
        "disk_bytes_per_user_byte": os.path.getsize(path) / (len(plan.model) * USER_BYTES_PER_RECORD),
    }
    return metrics, reps * len(plan.requests) + len(plan.model), failed


def run_traced(_workload, plan: Plan, reps: int, work: str, spans: Spans) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics from three rungs: the untraced run, the same run
    with the tree behind a timing proxy, and the bare-tree baseline."""
    _build, untraced, failed, _index = repeat(plan, reps)
    del _index
    traced = sware_rung(plan, reps, spans, name="client.request")
    baseline, wrong = btree_rung(plan, reps, spans)
    failed += traced.failed + wrong + state_divergence(traced.items(), plan)
    metrics = dict.fromkeys((name for name, *_rest in PER_LAYER), 0.0)  # no net, no WAL here
    metrics.update(sware_metrics(plan, traced, baseline))
    metrics.update(checkpoint_rung(traced, work, reps))
    tails = latency_metrics(plan, traced.lat, 0.99, "p99_ms")
    metrics.update({f"client.{name}": value for name, value in tails.items()})
    kinds = [request[2] for request in plan.requests]
    metrics["client.samples"] = min(kinds.count(op) for op in set(kinds))
    metrics["ledger.service_tax_x"] = 1.0  # the deployment is the core.sware rung itself
    metrics["obs.trace_overhead_pct"] = (sum(traced.lat) / sum(untraced) - 1.0) * 100.0
    return metrics, 3 * reps * len(plan.requests) + len(plan.model), failed
