"""The scalar read path: ``bisect`` on node lists, slice-at-once scans, range versions.

That reads agree with a dict model, whatever buffered rows, tombstones,
flushes and query-sorts precede them, is the oracle's business
(``tests/test_oracle.py``). This file pins how the read path gets there.
(1) The buffer's columns are int64 arrays, the int64 edges included,
a range resolves versions without sorting or merging any component, and
the buffered versions, overlaid onto the tree rows or merged with them a
run at a time, agree with a dict model. (2) ``bisect`` over a node's
``ks`` finds its live keys and routes a probe to the child the separator
convention names on every node shape, and ``range_query``'s one
leaf-chain loop returns and charges what bisecting every leaf would,
touching the same pages. (3) Gating spans on
``obs.enabled`` changes nothing a caller or the meter can see, and a traced
run still records the spans it always did. All in both key domains
(``tests/key_domains.py``).
"""

import random
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

from repro.betree.betree import BeTree, BeTreeConfig
from repro.btree.btree import BPlusTree, BPlusTreeConfig, MeteredBPlusTree
from repro.btree.node import GappedInternal, GappedLeaf
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro import kernels
from repro.core.buffer import DELETED, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.lsm.lsm import LSMConfig, LSMTree
from repro.obs import NULL_OBS, Observability, observe
from repro.storage.bufferpool import BufferPool
from repro.storage.costmodel import Meter
from tests.key_domains import key_domains

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
ODD_PROBES = [INT64_MAX, INT64_MAX - 1, 2**63, 2**70, -(2**70), -(2**63)]


def _index(obs=NULL_OBS, meter=None, cls=SortednessAwareIndex):
    config = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)
    with observe(obs):
        return cls(BPlusTree(BPlusTreeConfig(leaf_capacity=6, internal_capacity=4)), config,
                   meter=meter)


# ----------------------------------------------------------------------
# (1) buffer columns and range versions
# ----------------------------------------------------------------------
def test_buffer_columns_hold_the_int64_edges():
    """int64 columns, the edges included, through a query-sort, lookups,
    a range and both flush shapes; a lookup outside int64 misses."""
    buffer = SWAREBuffer(SWAREConfig(buffer_capacity=32, page_size=4))
    model = {}

    def put(key, value):
        buffer.add(key, value)
        model.setdefault(key, []).append(value)

    for key in (10, 20, 30, 5, 25, INT64_MAX, -7, 25):
        put(key, f"a{key}")
    buffer.query_sort()  # a block: a boundary
    assert (buffer.n_blocks, buffer.tail_size) == (1, 0)
    for key in (INT64_MIN, 12, INT64_MAX - 1, 12):
        put(key, f"b{key}")
    assert buffer.lookup(INT64_MIN) == (1, f"b{INT64_MIN}")
    assert buffer.lookup(INT64_MAX) == (1, f"a{INT64_MAX}")
    assert buffer.lookup(2**63) == buffer.lookup(-(2**70)) == (0, None)
    rows = buffer.range_entries(-(2**80), 2**80)
    assert [(key, value) for key, _seq, value, _dead in rows] == [
        (key, value) for key in sorted(model) for value in model[key]
    ]
    assert [seq for _k, seq, _v, _d in rows if _k == 25] == sorted(
        seq for _k, seq, _v, _d in rows if _k == 25
    )
    buffer.check_invariants()
    assert buffer.tail_size == 4
    batch = buffer.prepare_flush()  # no flushable prefix: sorts the tail and the rest
    assert not batch.sorted_without_effort and batch.run.col.dtype == np.int64
    flushed = [(key, value) for key, _seq, value, _dead in batch.entries]
    kept = [(key, value) for key, _seq, value, _dead in buffer.all_entries()]
    assert flushed + kept == [(k, v) for k in sorted(model) for v in model[k]]
    buffer.check_invariants()
    assert buffer.drain().entries == [
        entry for entry in rows if (entry[0], entry[2]) in kept
    ]
    assert buffer.is_empty and buffer.zonemap.is_empty


def test_range_query_neither_sorts_nor_merges(monkeypatch):
    """A range over the main section, a query-sorted block and an unsorted
    tail resolves versions without a kernel sort or a run merge."""
    index = _index()
    for key in (10, 20, 30):
        index.insert(key, "main")
    index.insert(15, "block")
    index.buffer.query_sort()
    for key in (25, 5, 20):
        index.insert(key, "tail")
    assert index.buffer.n_blocks == 1 and index.buffer.tail_size == 3
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    monkeypatch.setattr(kernels, "stable_argsort", counted("argsort", kernels.stable_argsort))
    monkeypatch.setattr(SWAREBuffer, "_merge_runs", counted("merge", SWAREBuffer._merge_runs))
    assert index.range_query(0, 40) == [
        (5, "tail"), (10, "main"), (15, "block"), (20, "tail"), (25, "tail"), (30, "main")
    ]
    assert calls == []
    index.flush_all()  # the flush still sorts and merges
    assert calls


# ----------------------------------------------------------------------
# (2) node layout against bisect
# ----------------------------------------------------------------------
def _leaf(keys):
    leaf = GappedLeaf(0)
    leaf.extend(keys, [f"v{key}" for key in keys])
    return leaf


def _internal(pivots):
    node = GappedInternal(0)
    node.children = ["c0"]
    for i, pivot in enumerate(pivots):
        node.insert_pivot(i, pivot, f"c{i + 1}")
    return node


#: (label, live keys) for every node shape.
SHAPES = [
    ("empty", []),
    ("gapped", [-5, 0, 3, 10, 2**40]),
    ("one", [7]),
    ("int64-max", [2, 8, INT64_MAX]),
    ("int64-min", [INT64_MIN, 2, 8]),
]


@key_domains
def test_node_search_matches_bisect(domain):
    for label, keys in SHAPES:
        keys = [key + domain.shift for key in keys]
        leaf = _leaf(keys)
        node = _internal(keys)
        assert leaf.keys == keys and node.keys == keys
        odd = {probe + domain.shift for probe in ODD_PROBES}
        probes = sorted(set(keys) | {k + d for k in keys for d in (-1, 1)} | odd)
        # The tree searches a node by ``bisect`` on its ``ks``: a leaf finds
        # exactly its live keys, and ``insert_pivot`` puts each child where
        # the separator convention routes a probe.
        assert type(leaf.ks) is list and leaf.ks == keys and node.ks == keys
        for probe in probes:
            idx = bisect_left(leaf.ks, probe)
            assert (idx < leaf.n and leaf.ks[idx] == probe) == (probe in keys), (label, probe)
            child = node.children[bisect_right(node.ks, probe)]
            assert child == f"c{sum(key <= probe for key in keys)}", (label, probe)
        rows = list(leaf.iter_live())
        assert rows == [(k, f"v{k}") for k in keys]
        assert all(type(key) is int for key, _value in rows)


class RecordingPool(BufferPool):
    """An unbounded pool that lists every ``(page_id, dirty)`` it is asked for."""

    def __init__(self):
        super().__init__()
        self.accessed = []

    def access(self, page_id, dirty=False):
        self.accessed.append((page_id, dirty))
        return super().access(page_id, dirty)


def _reference_scan(tree, lo, hi):
    """``range_query`` with ``bisect`` on every leaf: (rows, entries charged,
    pages accessed — the descent to ``lo``, then each next leaf)."""
    node, pages = tree._root, []
    while not node.is_leaf:
        pages.append(node.page_id)
        node = node.children[bisect_right(node.ks, lo)]
    leaf, rows, charged = node, [], 0
    pages.append(leaf.page_id)
    while True:
        ks = leaf.ks
        if ks:
            if ks[0] > hi:
                break
            start, stop = bisect_left(ks, lo), bisect_right(ks, hi)
            charged += stop - start
            rows.extend(zip(ks[start:stop], leaf.vs[start:stop]))
            if stop < len(ks):
                break
        leaf = leaf.next_leaf
        if leaf is None:
            break
        pages.append(leaf.page_id)
    return rows, charged, pages


@key_domains
def test_scan_interior_leaf_shortcut_matches_range_bounds(domain):
    """The one-loop scan, which bisects only the first leaf's start and the
    last leaf's stop, returns the rows of bisecting every leaf and charges
    the same ``scan_entry`` and ``node_access``; on a pooled tree it accesses
    the same pages in the same order. lo / hi sit on (and next to) every
    leaf's first and last key — full, gapped, single-entry and emptied
    leaves, and keys at the top of int64."""
    shift = domain.shift
    trees = []
    for pool in (None, RecordingPool()):
        config = BPlusTreeConfig(leaf_capacity=4, internal_capacity=4)
        tree = BPlusTree(config, meter=Meter(), pool=pool)
        tree.bulk_load_append([(key + shift, key) for key in range(0, 64, 2)])  # full leaves
        for key in (1, 3, 33):  # split some: gapped leaves
            tree.insert(key + shift, key)
        for key in (8, 10, 12, 16, 18, 20, 22):  # a single-entry leaf, an emptied one
            tree.delete(key + shift)
        for key in (INT64_MAX - 2, INT64_MAX - 1, INT64_MAX):
            tree.insert(key, "odd")
        tree.check_invariants()
        trees.append(tree)
    leaves = []
    leaf = trees[0]._head_leaf
    while leaf is not None:
        leaves.append(leaf)
        leaf = leaf.next_leaf
    sizes = {leaf.n for leaf in leaves}
    assert {0, 1, 4} <= sizes
    edges = {edge for leaf in leaves if leaf.n for edge in (leaf.first_key(), leaf.last_key())}
    probes = sorted({edge + d for edge in edges for d in (-1, 0, 1)})
    for tree in trees:
        meter, pool = tree.meter, tree.pool
        for lo in probes:
            for hi in probes:
                if lo > hi:
                    continue
                rows, charged, pages = _reference_scan(tree, lo, hi)
                before = meter.snapshot()
                if pool is not None:
                    pool.accessed.clear()
                assert tree.range_query(lo, hi) == rows, (lo, hi)
                assert meter["scan_entry"] - before.get("scan_entry", 0) == charged, (lo, hi)
                assert meter["node_access"] - before["node_access"] == len(pages), (lo, hi)
                if pool is not None:
                    assert pool.accessed == [(page, False) for page in pages], (lo, hi)


#: (shape, tree keys, buffered keys, deleted keys): each buffered key is
#: inserted (main section first, then out of order into the tail), then
#: each deleted key becomes a buffered tombstone.
MERGE_SHAPES = [
    ("all-below", range(50, 90, 4), [1, 9, 5, 30, 17], []),
    ("all-above", range(10, 50, 4), [60, 99, 70, 61, 80], []),
    ("interleaved", range(10, 90, 4), [11, 40, 13, 87, 51, 9, 95], []),
    ("equal-to-every-row", range(10, 40, 5), [10, 15, 20, 35, 25, 30], []),
    ("tombstone-shadows-a-row", range(10, 90, 4), [5, 95, 40], [50, 14]),
    ("tombstone-for-an-absent-key", range(10, 90, 4), [5, 95, 40], [51]),
    ("no-tree-rows", [], [30, 10, 20, 15], [20]),
]


def _merge_index(domain, tree_keys):
    tree = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
    tree.bulk_load_append([(key + domain.shift, f"t{key}") for key in tree_keys])
    config = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.5)
    return domain.wrap(SortednessAwareIndex(tree, config=config))


def _check_ranges(index, model, probes):
    """Every range over ``probes`` against ``model``. A range over the
    buffer's keys catches ``_tail_order`` up with the tail; the widest one
    comes last, so the whole tail is sorted at the end."""
    buffer = index.buffer
    for lo in probes:
        for hi in reversed(probes):
            if lo <= hi:
                expected = sorted(item for item in model.items() if lo <= item[0] <= hi)
                assert index.range_query(lo, hi) == expected, (lo, hi)
                order = buffer._tail_order
                assert order == sorted(buffer._tail_keys[: len(order)]), (lo, hi)
    assert index.range_query(probes[0], probes[-1]) == sorted(model.items())
    assert buffer._tail_order == sorted(buffer._tail_keys)


@key_domains
def test_range_merge_matches_a_dict_model(domain):
    """A range combines buffered versions with the tree rows: buffered keys
    below, above, between and on the tree's rows, and
    tombstones over present and absent keys. Then a seeded stream of appends
    (duplicate tail keys: the newest version wins), deletes, query-sorts and
    flushes, with ``_tail_order`` equal to the sorted tail after every range
    and query sort, and empty once a flush resets the tail."""
    for shape, tree_keys, buffered, deleted in MERGE_SHAPES:
        index = _merge_index(domain, tree_keys)
        model = {key: f"t{key}" for key in tree_keys}
        for key in buffered:
            index.insert(key, f"b{key}")
            model[key] = f"b{key}"
        for key in deleted:
            index.delete(key)
            model.pop(key, None)
        assert index.buffer.tail_size and len(index.buffer) == len(buffered) + len(deleted), shape
        keys = set(tree_keys) | set(buffered) | set(deleted)
        probes = sorted({key + d for key in keys for d in (-1, 0, 1)})
        _check_ranges(index, model, probes)

    index = _merge_index(domain, range(0, 60, 3))
    model = {key: f"t{key}" for key in range(0, 60, 3)}
    rng = random.Random(47)
    probes = [-1, 0, 7, 20, 21, 33, 45, 59, 60]
    for step in range(300):
        key = rng.randrange(60)
        roll = rng.random()
        if roll < 0.7:
            index.insert(key, step)
            model[key] = step
        elif roll < 0.85:
            index.delete(key)
            model.pop(key, None)
        elif roll < 0.95:
            index.buffer.query_sort()
        else:
            index.flush_all()
            assert index.buffer._tail_order == []
        if step % 10 == 0:
            _check_ranges(index, model, probes)
            buffer = index.buffer
            if buffer.tail_size:
                buffer.query_sort()  # a boundary: the order still covers the tail
                assert buffer._tail_order == sorted(buffer._tail_keys)


def test_merge_versions_overlays_or_merges_like_a_dict():
    """Buffered versions over the tree's rows, against a dict model, on both
    branches: few versions overlaid onto the rows in place (the result is
    the list handed in), many merged into a new list. Versions fall below,
    between, on and above the rows, and tombstones shadow present and
    absent keys."""
    rng = random.Random(64)
    branches = set()
    for n_rows in (0, 1, 5, 40, 300):
        tree_keys = sorted(rng.sample(range(100, 100 + 4 * n_rows), n_rows))
        for k in (1, 3, 8, 30, 64, 65, 200, 600):
            # Half on the rows' keys when there are any, half anywhere from
            # below the first row to above the last.
            span = range(90, 110 + 4 * max(n_rows, k))
            versions = {}
            while len(versions) < k:
                key = rng.choice(tree_keys or span) if rng.random() < 0.5 else rng.choice(span)
                versions[key] = DELETED if rng.random() < 0.25 else -key
            model = {key: key * 10 for key in tree_keys}
            for key, value in versions.items():
                if value is DELETED:
                    model.pop(key, None)
                else:
                    model[key] = value
            rows = [(key, key * 10) for key in tree_keys]
            index = SimpleNamespace(buffer=SimpleNamespace(
                _tombstones=list(versions.values()).count(DELETED)))
            merged = SortednessAwareIndex._merge_versions(index, dict(versions), rows)
            assert merged == sorted(model.items()), (n_rows, k)
            branches.add(merged is rows)
    assert branches == {True, False}


def _backends():
    return [
        BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4)),
        MeteredBPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4), meter=Meter()),
        BeTree(BeTreeConfig(node_size=8, leaf_capacity=4)),
        LSMTree(LSMConfig(memtable_capacity=8)),
    ]


@pytest.mark.parametrize("backend", _backends(), ids=lambda backend: type(backend).__name__)
def test_range_query_returns_a_list_its_caller_owns(backend):
    """The in-place overlay's precondition: mutating one ``range_query``
    result leaves the next call's unchanged, whole leaves included."""
    for key in range(0, 120, 3):
        backend.insert(key, key)
    for lo, hi in ((-5, 200), (9, 60), (30, 30), (31, 32), (200, 300)):
        first = backend.range_query(lo, hi)
        expected = list(first)
        first.insert(0, (lo - 1, "mine"))
        if len(first) > 1:
            del first[1]
            first[-1] = (hi + 1, "mine")
        assert backend.range_query(lo, hi) == expected, (lo, hi)


# ----------------------------------------------------------------------
# (3) span gating is invisible
# ----------------------------------------------------------------------
def _drive(index, shift):
    """A fixed op stream crossing flushes, query-sorts and tombstones, on
    keys moved up by ``shift``."""
    out = []
    for step in range(120):
        key = (step * 37) % 101 + shift
        index.insert(key, step)
        if step % 5 == 0:
            out.append(index.get((step * 11) % 101 + shift))
        if step % 9 == 0:
            index.delete((step * 13) % 101 + shift)
        if step % 12 == 0:
            out.append(index.range_query(key - 20, key + 20))
    out.append(index.get_many([key + shift for key in (1, 2, 3, 50, 99)]))
    index.put_many([(k + shift, -k) for k in range(200, 230)])
    out.append(index.items())
    return out


@pytest.mark.parametrize("cls", [SortednessAwareIndex, ConcurrentSortednessAwareIndex])
@key_domains
def test_tracing_changes_no_result_and_no_charge(domain, cls):
    quiet_meter, traced_meter = Meter(), Meter()
    obs = Observability(trace=True, trace_capacity=1 << 16)
    quiet = _drive(_index(NULL_OBS, quiet_meter, cls), domain.shift)
    traced = _drive(_index(obs, traced_meter, cls), domain.shift)
    assert traced == quiet
    assert traced_meter.snapshot() == quiet_meter.snapshot()

    spans = {}
    for event in obs.tracer.events():
        if event.dur_ns is not None:
            spans.setdefault(event.name, []).append(event)
    assert len(spans["sware.get"]) == 24
    assert all(set(e.attrs) == {"key"} for e in spans["sware.get"])
    assert len(spans["sware.range_query"]) == 10 + 1
    assert all(set(e.attrs) == {"lo", "hi"} for e in spans["sware.range_query"])
    assert spans["sware.get_many"][0].attrs == {"n": 5}
    # The front-end runs the plain index's public methods: the same spans.
    assert len(spans["sware.put"]) == 120
    assert all(set(e.attrs) == {"key"} for e in spans["sware.put"])
    assert all(set(e.attrs) == {"key"} for e in spans["sware.delete"])
    assert spans["sware.put_many"][0].attrs == {"n": 30}
    flush_parents = {e.parent_id for e in spans["sware.flush_cycle"]}
    writers = spans["sware.put"] + spans["sware.delete"] + spans["sware.put_many"]
    assert flush_parents <= {e.span_id for e in writers}
