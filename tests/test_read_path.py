"""The scalar read path: node-owned search, slice-at-once scans, range versions.

Three contracts. (1) ``SortednessAwareIndex.get`` / ``range_query`` /
``range_many`` agree with a dict model whatever mix of buffered rows,
overwrites and tombstones over tree-resident keys, flushes and query-sorts
precedes them — including the shortcut that hands back the backend's row
list untouched when no buffered row falls in the range — and the buffer's
``range_run`` equals the newest entry per key of ``all_entries()`` without
sorting or merging anything. (2) The node's own
``child_index`` / ``search_left`` / ``range_bounds`` / ``live_items`` equal
``bisect`` over the live keys on every node shape. (3) Gating spans on
``obs.enabled`` changes nothing a caller or the meter can see, and a traced
run still records the spans it always did. All in both key domains
(``tests/key_domains.py``): int64 keys, and the same workloads with keys
beyond int64 — as are the dict-model checks over keys that demote the
buffer's int64 columns mid-epoch (negative, ``INT64_MAX``, ``>= 2**63``),
and ``_scan``'s interior-leaf shortcut against ``range_bounds``. The model
suites end in the tree's ``check_invariants``, which pins that its stores
hold Python ints after flushes, put_many and a checkpoint round-trip.
"""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import GappedInternal, GappedLeaf
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro import kernels
from repro.core.buffer import DELETED, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.obs import NULL_OBS, Observability
from repro.storage.costmodel import Meter
from repro.storage.pages import deserialize_btree, serialize_btree
from tests.key_domains import key_domains

INT64_MAX = 2**63 - 1
ODD_PROBES = [INT64_MAX, INT64_MAX - 1, 2**63, 2**70, -(2**70), -(2**63)]


def _index(obs=NULL_OBS, meter=None, cls=SortednessAwareIndex):
    tree = BPlusTree(BPlusTreeConfig(leaf_capacity=6, internal_capacity=4), obs=obs)
    config = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)
    return cls(tree, config=config, meter=meter, obs=obs)


# ----------------------------------------------------------------------
# (1) the index against a dict model
# ----------------------------------------------------------------------
def _ops_st(key_st):
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), key_st),
            st.tuples(st.just("delete"), key_st),
            st.tuples(st.just("get"), key_st),
            st.tuples(st.just("range"), key_st, st.integers(min_value=0, max_value=60)),
            st.tuples(st.just("range_many"), st.lists(st.tuples(key_st, key_st), max_size=4)),
            st.tuples(st.just("flush_all")),
        ),
        max_size=80,
    )


def _model_range(model, lo, hi):
    return sorted((k, v) for k, v in model.items() if lo <= k <= hi)


def _check_rows(rows, model, lo, hi):
    keys = [key for key, _value in rows]
    assert keys == sorted(set(keys))
    assert rows == _model_range(model, lo, hi)


@key_domains
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reads_match_dict_model(domain, data):
    ops = data.draw(_ops_st(domain.keys(st.integers(min_value=0, max_value=90))))
    index = _index()
    model = {}
    for step, op in enumerate(ops):
        if op[0] == "put":
            # Keys repeat, so tree-resident keys get buffered overwrites.
            index.insert(op[1], (op[1], step))
            model[op[1]] = (op[1], step)
        elif op[0] == "delete":
            index.delete(op[1])
            model.pop(op[1], None)
        elif op[0] == "get":
            assert index.get(op[1]) == model.get(op[1])
        elif op[0] == "range":
            lo, hi = op[1], op[1] + op[2]
            _check_rows(index.range_query(lo, hi), model, lo, hi)
        elif op[0] == "range_many":
            results = index.range_many(op[1])
            assert len(results) == len(op[1])
            for (lo, hi), rows in zip(op[1], results):
                _check_rows(rows, model, lo, hi)
        else:
            index.flush_all()
    assert index.items() == sorted(model.items())
    for key in range(0, 91, 7):
        assert index.get(key) == model.get(key)
    index.buffer.check_invariants()
    index.backend.check_invariants()
    # Pages hold int64 keys. Check the tree, not the model: a key deleted
    # after a flush stays in the tree under the buffer's tombstone.
    if all(-(2**63) <= key <= INT64_MAX for key, _value in index.backend.iter_items()):
        restored = deserialize_btree(serialize_btree(index.backend, compress=True))
        restored.check_invariants()
        assert list(restored.iter_items()) == list(index.backend.iter_items())


ODD_KEYS = sorted({-(2**70), -(2**63), -9, -1, 0, 1, 5, 6, 40, 41, 2**40, INT64_MAX - 1,
                   INT64_MAX, 2**63, 2**63 + 1, 2**70})
odd_key_st = st.sampled_from(ODD_KEYS) | st.integers(min_value=-3, max_value=12)
def _shifted_ops(ops, shift):
    """``ops`` with every key moved up by ``shift``."""
    moved = lambda arg: [k + shift for k in arg] if isinstance(arg, list) else arg + shift  # noqa: E731
    return [(op[0], *map(moved, op[1:])) for op in ops]


odd_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), odd_key_st),
        st.tuples(st.just("put_many"), st.lists(odd_key_st, min_size=1, max_size=12)),
        st.tuples(st.just("delete"), odd_key_st),
        st.tuples(st.just("get"), odd_key_st),
        st.tuples(st.just("range"), odd_key_st, odd_key_st),
        st.tuples(st.just("flush_all")),
    ),
    max_size=70,
)


@key_domains
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reads_match_dict_model_on_column_demoting_keys(domain, data):
    """Keys no int64 column can hold arrive between ordinary ones: the
    buffer's runs demote to lists mid-epoch, then flush, query-sort and
    range as before."""
    ops = data.draw(odd_ops_st.map(lambda ops: _shifted_ops(ops, domain.shift)))
    odd_keys = [key + domain.shift for key in ODD_KEYS]
    index = _index()
    model = {}
    for step, op in enumerate(ops):
        if op[0] == "put":
            index.insert(op[1], (op[1], step))
            model[op[1]] = (op[1], step)
        elif op[0] == "put_many":
            index.put_many([(key, (key, step, i)) for i, key in enumerate(op[1])])
            model.update((key, (key, step, i)) for i, key in enumerate(op[1]))
        elif op[0] == "delete":
            index.delete(op[1])
            model.pop(op[1], None)
        elif op[0] == "get":
            assert index.get(op[1]) == model.get(op[1])
        elif op[0] == "range":
            lo, hi = sorted(op[1:])
            _check_rows(index.range_query(lo, hi), model, lo, hi)
        else:
            index.flush_all()
        index.buffer.check_invariants()
    assert index.items() == sorted(model.items())
    assert index.get_many(odd_keys) == [model.get(key) for key in odd_keys]
    index.backend.check_invariants()


@key_domains
def test_buffer_columns_demote_mid_epoch(domain):
    """The same at the buffer's own surface: int64 columns while every key
    fits, lists from the first key that does not — through tail sort,
    query-sort, range and both flush shapes."""
    buffer = domain.wrap(SWAREBuffer(SWAREConfig(buffer_capacity=32, page_size=4)))
    model = {}

    def put(key, value):
        buffer.add(key, value)
        model.setdefault(key, []).append(value)

    for key in (10, 20, 30, 5, 25, INT64_MAX, -7, 25):
        put(key, f"a{key}")
    buffer.query_sort()  # a block of int64-representable keys
    block = buffer._blocks[0]
    assert (type(block.col) is list) == bool(domain.shift)
    for key in (2**63, 12, -(2**70), 12):
        put(key, f"b{key}")
    assert buffer.lookup(2**63) == (1, f"b{2**63}")
    assert buffer.lookup(INT64_MAX) == (1, f"a{INT64_MAX}")
    assert buffer.lookup(2**64) == (0, None)
    rows = buffer.range_entries(-(2**80), 2**80)
    assert [(key, value) for key, _seq, value, _dead in rows] == [
        (key, value) for key in sorted(model) for value in model[key]
    ]
    assert [seq for _k, seq, _v, _d in rows if _k == 25] == sorted(
        seq for _k, seq, _v, _d in rows if _k == 25
    )
    buffer.check_invariants()
    assert buffer.tail_size == 4
    batch = buffer.prepare_flush()  # no flushable prefix: sorts the demoted tail and the rest
    assert not batch.sorted_without_effort and type(batch.run.col) is list
    flushed = [(key, value) for key, _seq, value, _dead in batch.entries]
    kept = [(key, value) for key, _seq, value, _dead in buffer.all_entries()]
    assert flushed + kept == [(k, v) for k in sorted(model) for v in model[k]]
    buffer.check_invariants()
    assert buffer.drain().entries == [
        entry for entry in rows if (entry[0], entry[2]) in kept
    ]
    assert buffer.is_empty and buffer.zonemap.is_empty


@key_domains
def test_buffered_versions_win_over_tree_rows(domain):
    """Overwrites and tombstones of flushed keys, before and after the
    query-sort trigger freezes them into a block."""
    index = domain.wrap(_index())
    model = {}
    for key in range(40):
        index.insert(key, key)
        model[key] = key
    index.flush_all()
    assert index.buffer.is_empty
    for key in (30, 3, 17, 5, 17):  # out of order: lands in the tail
        index.insert(key, -key)
        model[key] = -key
    for key in (4, 30, 12, 33):  # 33 is past the buffer's range: deleted in the tree
        index.delete(key)
        model.pop(key)
    assert index.stats.tombstones_buffered == 3
    for _ in range(2):  # second pass reads the query-sorted block
        _check_rows(index.range_query(0, 39), model, 0, 39)
        _check_rows(index.range_query(16, 18), model, 16, 18)
        for (lo, hi), rows in zip(
            [(0, 4), (29, 35), (6, 9)], index.range_many([(0, 4), (29, 35), (6, 9)])
        ):
            _check_rows(rows, model, lo, hi)
        assert index.get(17) == -17 and index.get(4) is None and index.get(6) == 6
    assert index.stats.query_sorts >= 1


@key_domains
def test_range_without_buffered_rows_is_the_backends_list(domain):
    index = _index()
    lo, hi = 10 + domain.shift, 30 + domain.shift
    expected = [(key, key * 10) for key in range(lo, hi + 1)]
    for key in range(domain.shift, domain.shift + 60):
        index.insert(key, key * 10)
    index.flush_all()
    index.insert(100 + domain.shift, 1)  # buffered, outside every range probed below
    rows = index.range_query(lo, hi)
    assert rows == index.backend.range_query(lo, hi)
    assert rows == expected
    rows.append((999, None))
    rows[0] = (-1, None)
    del rows[3:8]
    assert index.range_query(lo, hi) == expected
    assert index.backend.range_query(lo, hi) == index.range_query(lo, hi)


def _newest_versions(buffer, lo, hi):
    """The oracle for ``range_run``: the max-seq entry per key in [lo, hi]
    of ``all_entries()``, and how many entries the range holds."""
    newest, n_entries = {}, 0
    for key, seq, value, dead in buffer.all_entries():
        if lo <= key <= hi:
            n_entries += 1
            if seq > newest.get(key, (0, None))[0]:
                newest[key] = seq, DELETED if dead else value
    return {key: value for key, (_seq, value) in newest.items()}, n_entries


@key_domains
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_range_run_resolves_the_newest_version_per_key(domain, data):
    keys = domain.keys(st.integers(min_value=0, max_value=60))
    ops = data.draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(st.just("add"), keys),
                    st.tuples(st.just("tombstone"), keys),
                    st.tuples(st.just("add_many"), st.lists(keys, min_size=1, max_size=12)),
                    st.tuples(st.just("query_sort")),
                    st.tuples(st.just("prepare_flush")),
                ),
                keys,
                keys,
            ),
            max_size=50,
        )
    )
    buffer = SWAREBuffer(SWAREConfig(buffer_capacity=24, page_size=4), meter=Meter())
    for step, (op, lo, hi) in enumerate(ops):
        if op[0] in ("add", "tombstone", "add_many") and buffer.is_full:
            buffer.prepare_flush()
        if op[0] == "add":
            buffer.add(op[1], step)
        elif op[0] == "tombstone":
            buffer.add(op[1], None, tombstone=True)
        elif op[0] == "add_many":
            pairs = [(key, (step, i)) for i, key in enumerate(op[1])]
            buffer.add_many(pairs[: buffer.capacity - len(buffer)])
        elif op[0] == "query_sort":
            buffer.query_sort()
        elif not buffer.is_empty:
            buffer.prepare_flush()
        lo, hi = min(lo, hi), max(lo, hi)
        assert buffer.range_run(lo, hi) == _newest_versions(buffer, lo, hi)
        assert buffer.range_run(-(2**80), 2**80) == _newest_versions(buffer, -(2**80), 2**80)
        buffer.check_invariants()


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
# (2) node methods against bisect
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
    ("beyond-int64", [-(2**70), 2, 2**63, 2**70]),
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
        for probe in probes:
            assert leaf.search_left(probe) == bisect_left(keys, probe), (label, probe)
            assert node.child_index(probe) == bisect_right(keys, probe), (label, probe)
            assert node.child_for(probe) == f"c{bisect_right(keys, probe)}"
            assert leaf.has_key_at(leaf.search_left(probe), probe) == (probe in keys)
        for lo in probes:
            for hi in probes:
                if lo <= hi:
                    start, stop = leaf.range_bounds(lo, hi)
                    assert (start, stop) == (
                        bisect_left(keys, lo), bisect_right(keys, hi)
                    ), (label, lo, hi)
                    rows = list(leaf.live_items(start, stop))
                    assert rows == [(k, f"v{k}") for k in keys if lo <= k <= hi]
                    assert all(type(key) is int for key, _value in rows)
        assert list(leaf.iter_live()) == [(k, f"v{k}") for k in keys]


@key_domains
def test_tree_reads_with_odd_probe_keys(domain):
    """Probes at and beyond the int64 edges miss cleanly; a stored one is
    found by get and emitted by scans."""
    tree = domain.wrap(BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4)))
    model = {key: key for key in range(0, 60, 3)}
    for key, value in model.items():
        tree.insert(key, value)
    for probe in ODD_PROBES:
        assert tree.get(probe) is None
    assert tree.range_query(-(2**70), 2**70) == sorted(model.items())
    assert tree.range_query(57, INT64_MAX) == [(57, 57)]
    for key in (INT64_MAX, 2**63, -(2**70)):
        tree.insert(key, "odd")
        model[key] = "odd"
    tree.check_invariants()
    for key, value in model.items():
        assert tree.get(key) == value
    assert tree.range_query(-(2**70), 2**70) == sorted(model.items())
    assert tree.range_many([(50, 2**63), (-(2**71), 4)]) == [
        [(k, v) for k, v in sorted(model.items()) if 50 <= k <= 2**63],
        [(k, v) for k, v in sorted(model.items()) if k <= 4],
    ]
    assert list(tree.iter_items()) == sorted(model.items())


def _reference_scan(tree, lo, hi):
    """``_scan`` with ``range_bounds`` on every leaf: (rows, entries charged)."""
    leaf = tree._head_leaf
    while leaf.next_leaf is not None and (not leaf.n or leaf.last_key() < lo):
        leaf = leaf.next_leaf
    rows, charged = [], 0
    while leaf is not None:
        if leaf.n:
            if leaf.first_key() > hi:
                break
            start, stop = leaf.range_bounds(lo, hi)
            charged += max(stop - start, 0)
            rows.extend(leaf.live_items(start, stop))
            if stop < leaf.n:
                break
        leaf = leaf.next_leaf
    return rows, charged


@key_domains
def test_scan_interior_leaf_shortcut_matches_range_bounds(domain):
    """A leaf wholly inside [lo, hi] is emitted without searching it: same
    rows and the same ``scan_entry`` charge as bounding every leaf, with lo /
    hi on (and next to) every leaf's first and last key — full, gapped,
    single-entry and emptied leaves, and keys beyond int64."""
    shift = domain.shift
    meter = Meter()
    tree = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4), meter=meter)
    tree.bulk_load_append([(key + shift, key) for key in range(0, 64, 2)])  # full leaves
    for key in (1, 3, 33):  # split some: gapped leaves
        tree.insert(key + shift, key)
    for key in (8, 10, 12, 16, 18, 20, 22):  # a single-entry leaf, an emptied one
        tree.delete(key + shift)
    for key in (INT64_MAX, 2**63, 2**70):
        tree.insert(key + shift, "odd")
    tree.check_invariants()
    leaves = []
    leaf = tree._head_leaf
    while leaf is not None:
        leaves.append(leaf)
        leaf = leaf.next_leaf
    sizes = {leaf.n for leaf in leaves}
    assert {0, 1, 4} <= sizes
    edges = {edge for leaf in leaves if leaf.n for edge in (leaf.first_key(), leaf.last_key())}
    probes = sorted({edge + d for edge in edges for d in (-1, 0, 1)})
    for lo in probes:
        for hi in probes:
            if lo > hi:
                continue
            expected_rows, expected_charge = _reference_scan(tree, lo, hi)
            before = meter["scan_entry"]
            assert tree.range_query(lo, hi) == expected_rows, (lo, hi)
            assert meter["scan_entry"] - before == expected_charge, (lo, hi)
    spans = [(probes[i], probes[-1 - i]) for i in range(0, len(probes) // 2, 3)]
    assert tree.range_many(spans) == [_reference_scan(tree, lo, hi)[0] for lo, hi in spans]


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
    out.append(index.range_many([(lo + shift, hi + shift) for lo, hi in [(0, 30), (25, 70), (90, 200)]]))
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
    assert len(spans["sware.range_query"]) == 10 + 3 + 1
    assert all(set(e.attrs) == {"lo", "hi"} for e in spans["sware.range_query"])
    assert spans["sware.get_many"][0].attrs == {"n": 5}
    if cls is SortednessAwareIndex:
        assert len(spans["sware.put"]) == 120
        assert all(set(e.attrs) == {"key"} for e in spans["sware.put"])
        assert all(set(e.attrs) == {"key"} for e in spans["sware.delete"])
        assert spans["sware.put_many"][0].attrs == {"n": 30}
        flush_parents = {e.parent_id for e in spans["sware.flush_cycle"]}
        writers = spans["sware.put"] + spans["sware.delete"] + spans["sware.put_many"]
        assert flush_parents <= {e.span_id for e in writers}
    else:
        assert len(spans["concurrent.read"]) == 24
        assert all(set(e.attrs) == {"key"} for e in spans["concurrent.read"])
        assert spans["concurrent.read_many"][0].attrs == {"n": 5}
        assert len(spans["concurrent.write"]) == 120 + 14
        assert all(set(e.attrs) == {"key", "tombstone"} for e in spans["concurrent.write"])
        reads = {e.span_id for e in spans["concurrent.read"]}
        assert {e.parent_id for e in spans["sware.get"]} == reads
