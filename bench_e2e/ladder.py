"""The in-process rungs of the ladder, shared by both deployments.

``core.sware``: the plan against one ``SortednessAwareIndex`` whose tree is
wrapped in :class:`TimingBackend`, so the time below the SWARE buffer is
measured at the ``TreeBackend`` boundary and the buffer's self time is the
rung minus it. ``btree``: the same plan against a bare ``BPlusTree`` — the
baseline the paper's speed-up is stated against. Under ``embed_*`` the
``core.sware`` rung *is* the traced end-to-end run.
"""

from __future__ import annotations

import gc
import os
from array import array
from dataclasses import dataclass
from typing import Dict, List

from repro import BPlusTree, CheckpointStore, SortednessAwareIndex

from measure import Spans, by_kind, fold_min, mean, new_timings, now, run_sync
from plans import ZONE_BITS, Plan
from spec import BUILD_BATCH


def batches(items: list, size: int = BUILD_BATCH):
    return (items[i : i + size] for i in range(0, len(items), size))


def sware_methods(index: SortednessAwareIndex):
    return index.insert, index.put_many, index.get, index.get_many, index.range_query


def tree_methods(tree: BPlusTree):
    return tree.insert, tree.insert_many, tree.get, tree.get_many, tree.range_query


def split_by_zone(items: list, n_zones: int, key=lambda item: item[0]) -> List[list]:
    chunks: List[list] = [[] for _ in range(n_zones)]
    for item in items:
        chunks[key(item) >> ZONE_BITS].append(item)
    return chunks


def zoned(per_zone: list):
    """Plan methods over one target per key zone — the shard map's job done
    by hand, so that an in-process rung sees the per-shard streams the
    served plan was built to give (one near-sorted stream per zone). Its
    routing cost is charged to the rung. One zone: the target itself."""
    if len(per_zone) == 1:
        return per_zone[0]
    puts, put_manys, gets, get_manys, ranges = zip(*per_zone)
    n_zones = len(per_zone)

    def put(key, value):
        puts[key >> ZONE_BITS](key, value)

    def put_many(items):
        for zone, chunk in enumerate(split_by_zone(items, n_zones)):
            if chunk:
                put_manys[zone](chunk)

    def get(key):
        return gets[key >> ZONE_BITS](key)

    def get_many(keys):
        out = [None] * len(keys)
        places = split_by_zone(list(enumerate(keys)), n_zones, key=lambda pair: pair[1])
        for zone, pairs in enumerate(places):
            values = get_manys[zone]([key for _position, key in pairs])
            for (position, _key), value in zip(pairs, values):
                out[position] = value
        return out

    def range_query(lo, hi):  # a plan's RANGE never crosses a zone
        return ranges[lo >> ZONE_BITS](lo, hi)

    return put, put_many, get, get_many, range_query


class CallLog:
    """Name, start and end of every timed call, in time order."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.names: List[str] = []
        self.start = array("q")
        self.end = array("q")


class TimingBackend:
    """A ``TreeBackend`` that times every call into the tree it wraps."""

    def __init__(self, inner: BPlusTree, log: CallLog):
        self.inner = inner
        self.meter = inner.meter
        self.log = log

    def _timed(self, name: str, call, *args):
        log = self.log
        t0 = now()
        result = call(*args)
        log.end.append(now())
        log.start.append(t0)
        log.names.append(name)
        return result

    def insert(self, key, value):
        return self._timed("btree.insert", self.inner.insert, key, value)

    def delete(self, key):
        return self._timed("btree.delete", self.inner.delete, key)

    def get(self, key):
        return self._timed("btree.get", self.inner.get, key)

    def get_many(self, keys):
        return self._timed("btree.get_many", self.inner.get_many, keys)

    def range_query(self, lo, hi):
        return self._timed("btree.range_query", self.inner.range_query, lo, hi)

    def bulk_load_append(self, items):
        return self._timed("btree.bulk_load_append", self.inner.bulk_load_append, items)

    @property
    def max_key(self):
        return self.inner.max_key

    @property
    def min_key(self):
        return self.inner.min_key


def attribute(start: array, lat: array, log: CallLog):
    """Charge each logged call to the request whose interval contains it.

    Requests run one after another, so both sequences are in time order and
    one pass pairs them. Returns (busy ns per request, request per call).
    """
    busy = array("q", bytes(8 * len(start)))
    owner = array("q")
    idx = 0
    last = len(start) - 1
    for t0, t1 in zip(log.start, log.end):
        while idx < last and t0 >= start[idx] + lat[idx]:
            idx += 1
        busy[idx] += t1 - t0
        owner.append(idx)
    return busy, owner


@dataclass
class SwareRung:
    lat: array  # per-request minima, ns
    busy: array  # per-request minima of time inside the trees, ns
    failed: int
    calls: int  # tree calls during the last repetition's requests
    indexes: List[SortednessAwareIndex]  # the last repetition's, one per zone
    trees: List[BPlusTree]

    def items(self) -> list:
        return [item for index in self.indexes for item in index.items()]


def sware_rung(plan: Plan, reps: int, spans: Spans, name: str = "core.sware") -> SwareRung:
    lat_best = busy_best = None
    failed = 0
    for _rep in range(reps):
        indexes = trees = None  # drop the previous repetition's state before timing
        gc.collect()
        log = CallLog()
        trees = [BPlusTree() for _ in range(plan.n_zones)]
        indexes = [SortednessAwareIndex(TimingBackend(tree, log)) for tree in trees]
        methods = zoned([sware_methods(index) for index in indexes])
        for batch in batches(plan.preload):
            methods[1](batch)
        log.clear()  # the build's calls are not the requests'
        start, lat = new_timings(plan)
        failed += run_sync(methods, plan, start, lat)
        busy, owner = attribute(start, lat, log)
        lat_best = fold_min(lat_best, lat)
        busy_best = fold_min(busy_best, busy)
    first = spans.add_requests(name, start, lat)
    for call, t0, t1, idx in zip(log.names, log.start, log.end, owner):
        spans.add(call, t0, t1, first + idx, idx)
    return SwareRung(lat_best, busy_best, failed, len(owner), indexes, trees)


def btree_rung(plan: Plan, reps: int, spans: Spans):
    """(per-request minima, wrong results) of the bare-tree baseline."""
    best = None
    failed = 0
    for _rep in range(reps):
        trees = None
        gc.collect()
        trees = [BPlusTree() for _ in range(plan.n_zones)]
        methods = zoned([tree_methods(tree) for tree in trees])
        for batch in batches(plan.preload):
            methods[1](batch)
        start, lat = new_timings(plan)
        failed += run_sync(methods, plan, start, lat)
        best = fold_min(best, lat)
    spans.add_requests("btree", start, lat)
    return best, failed


def checkpoint_rung(rung: SwareRung, work: str, reps: int) -> Dict[str, float]:
    """Save and load the rung's final trees through ``CheckpointStore``;
    minima of ``reps``."""
    for index in rung.indexes:
        index.flush_all()
    paths = [os.path.join(work, f"rung-{zone}.db") for zone in range(len(rung.trees))]
    save_ns = load_ns = None
    for _rep in range(reps):
        stores = [CheckpointStore(path) for path in paths]
        t0 = now()
        for store, tree in zip(stores, rung.trees):
            store.save_btree(tree)
        t1 = now()
        for store in stores:
            store.load_btree()
        t2 = now()
        save_ns = min(t1 - t0, save_ns or t1 - t0)
        load_ns = min(t2 - t1, load_ns or t2 - t1)
    records = sum(len(tree) for tree in rung.trees)
    return {
        "storage.checkpoint.save_s": save_ns / 1e9,
        "storage.checkpoint.load_s": load_ns / 1e9,
        "storage.checkpoint.bytes_per_record": sum(map(os.path.getsize, paths)) / records,
    }


def sware_metrics(plan: Plan, rung: SwareRung, baseline: array) -> Dict[str, float]:
    """The ``core.sware.*`` and ``btree.*`` per-layer metrics of one rung
    (counters are since the indexes were created: build and requests,
    summed over zones)."""
    self_by_kind = by_kind(plan, [total - busy for total, busy in zip(rung.lat, rung.busy)])
    snapshots = [index.stats.snapshot() for index in rung.indexes]
    spaces = [tree.space_stats() for tree in rung.trees]

    def total(counter: str) -> float:
        return sum(snapshot[counter] for snapshot in snapshots)

    def tree_mean(field: str) -> float:
        return mean([space[field] for space in spaces])

    n = len(plan.requests)
    return {
        "core.sware.self_us_per_put": mean(self_by_kind["put"]) / 1e3,
        "core.sware.self_us_per_get": mean(self_by_kind["get"]) / 1e3,
        "core.sware.flushes": total("flushes"),
        "core.sware.bulk_load_fraction": total("bulk_loaded_entries") / max(1, total("ingested_entries")),
        "core.sware.sorted_entries": total("sorted_entries"),
        "core.sware.query_sorts": total("query_sorts"),
        "core.sware.pages_scanned_per_lookup": total("unsorted_pages_scanned") / max(1, total("lookups")),
        "core.sware.buffer_hits": total("buffer_hits"),
        "core.sware.bf_false_positives": total("global_bf_false_positives")
        + total("page_bf_false_positives"),
        "core.sware.zonemap_page_skips": total("zonemap_page_skips"),
        "core.sware.speedup_x": sum(baseline) / sum(rung.lat),
        "btree.busy_us_per_op": sum(rung.busy) / n / 1e3,
        "btree.calls": rung.calls,
        "btree.leaf_fissions": sum(tree.leaf_fissions for tree in rung.trees),
        "btree.height": max(tree.height for tree in rung.trees),
        "btree.avg_leaf_fill": tree_mean("avg_leaf_fill"),
        "btree.physical_fill": tree_mean("physical_fill"),
        "btree.baseline_ops_per_s": n / (sum(baseline) / 1e9),
    }
