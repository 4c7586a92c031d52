"""Observational contract of the gapped B+-tree node layout.

The gapped layout (the BS-tree direction) is a representation choice, not a
semantic one: for any program of inserts, batch inserts, deletes and reads
the tree must answer exactly like an ordered map — same items, same created
counts, same lookup and range results, same watermark bounds — in both key
domains (``tests/key_domains.py``). These properties pin that contract
against a dict + sorted-list model, mirroring what
``tests/test_kernels_equivalence.py`` does for the kernel layer.

The programs mix scalar and batch inserts, deletes and bulk loads handed
a key column (``ItemColumns``: an int64 array, or a list in the domain
with keys beyond int64), and every one ends in
``check_invariants`` — which also pins that node stores hold only Python
ints — and a checkpoint round-trip. Alongside them: unit coverage for keys
outside int64, fission accounting, the explicit physical-occupancy fields
of ``space_stats()``, checkpoint round-trips (including configs pickled by
older versions), and profiler layer attribution for the hot modules.
"""

import copy
import pickle
from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import GappedInternal, GappedLeaf
from repro.obs.profiler import layer_for_module
from repro.storage.costmodel import Meter
from repro.storage.pages import deserialize_btree, serialize_btree
from tests.key_domains import key_domains

INT64_MAX = 2**63 - 1

# Small keys drive dense trees with lots of structural churn; the edge keys
# exercise the int64 boundaries (the wide domain adds keys beyond int64).
edge_keys = st.sampled_from([INT64_MAX, 2**63 - 2, -(2**63), 0])
key_st = st.integers(min_value=0, max_value=200) | edge_keys


def _ops_st(key_st):
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), key_st),
            st.tuples(st.just("insert_many"), st.lists(key_st, max_size=24)),
            st.tuples(st.just("delete"), key_st),
            st.tuples(st.just("bulk"), st.integers(min_value=1, max_value=12)),
        ),
        max_size=30,
    )


def _tree(**overrides) -> BPlusTree:
    config = BPlusTreeConfig(
        leaf_capacity=overrides.pop("leaf_capacity", 4),
        internal_capacity=overrides.pop("internal_capacity", 4),
        **overrides,
    )
    return BPlusTree(config, meter=Meter())


class _Model:
    """Reference semantics: a dict plus its sorted key list.

    Upsert on conflict, lazy delete, and *watermark* ``min_key``/``max_key``
    that widen on insert and never shrink on delete. Exposes the verbs and
    observables ``_apply``/``_observe`` use on the tree.
    """

    def __init__(self):
        self.data = {}
        self.keys = []
        self.min_key = None
        self.max_key = None

    def insert(self, key, value) -> bool:
        created = key not in self.data
        if created:
            insort(self.keys, key)
            if self.min_key is None or key < self.min_key:
                self.min_key = key
            if self.max_key is None or key > self.max_key:
                self.max_key = key
        self.data[key] = value
        return created

    def insert_many(self, items) -> int:
        return sum(self.insert(key, value) for key, value in items)

    def bulk_load_append(self, items) -> None:
        self.insert_many(items)

    def delete(self, key) -> bool:
        if key not in self.data:
            return False
        del self.data[key]
        del self.keys[bisect_left(self.keys, key)]
        return True

    def iter_items(self):
        return ((key, self.data[key]) for key in self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key):
        return self.data.get(key)

    def get_many(self, keys):
        return [self.data.get(key) for key in keys]

    def range_query(self, lo, hi):
        span = self.keys[bisect_left(self.keys, lo) : bisect_right(self.keys, hi)]
        return [(key, self.data[key]) for key in span]


def _apply(tree, ops, domain) -> list:
    """Replay an op program; returns the per-op observable results. A bulk
    load appends ``arg`` keys above ``max_key`` as a flush does: a key column
    of the domain's type plus a value list."""
    results = []
    for t, (op, arg) in enumerate(ops):
        if op == "insert":
            results.append(tree.insert(arg, f"v{arg}@{t}"))
        elif op == "insert_many":
            results.append(tree.insert_many([(k, f"v{k}@{t}") for k in arg]))
        elif op == "bulk":
            start = 0 if tree.max_key is None else tree.max_key + 1
            keys = range(start, start + arg)
            values = [f"v{k}@{t}" for k in keys]
            results.append(tree.bulk_load_append(kernels.ItemColumns(domain.column(keys), values)))
        else:
            results.append(tree.delete(arg))
    return results


def _observe(tree, probe_keys) -> dict:
    return {
        "items": list(tree.iter_items()),
        "len": len(tree),
        "min": tree.min_key,
        "max": tree.max_key,
        "gets": [tree.get(k) for k in probe_keys],
        "get_many": tree.get_many(probe_keys),
        "range_all": tree.range_query(-(2**70) - 1, 2**70 + 1),
        "range_mid": tree.range_query(40, 160),
    }


# ----------------------------------------------------------------------
# model equivalence programs
# ----------------------------------------------------------------------
@key_domains
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_gapped_matches_classic(domain, data):
    """Any op program observes the classic ordered-map behavior: per-op
    return values and every read agree with the dict + sorted-list model."""
    ops = data.draw(_ops_st(domain.keys(key_st)))
    model = _Model()
    gapped = _tree()
    assert _apply(model, ops, domain) == _apply(gapped, ops, domain)
    probes = sorted({k for _op, arg in ops for k in
                     (arg if isinstance(arg, list) else [arg])} | set(model.keys) | {17, -1})
    assert _observe(model, probes) == _observe(gapped, probes)
    gapped.check_invariants()
    # Pages hold int64 keys; the watermarks bound every key ever stored.
    if model.min_key is None or -(2**63) <= model.min_key <= model.max_key <= INT64_MAX:
        restored = deserialize_btree(serialize_btree(gapped, compress=True))
        restored.check_invariants()
        assert list(restored.iter_items()) == list(model.iter_items())
        assert restored.get_many(probes) == model.get_many(probes)


@key_domains
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_insert_many_matches_sequential_loop(domain, data):
    """Batch descent is an amortization, not a semantic change."""
    keys = data.draw(st.lists(domain.keys(key_st), min_size=1, max_size=60))
    items = [(k, f"v{k}@{t}") for t, k in enumerate(keys)]
    batched = _tree()
    sequential = _tree()
    created_batch = batched.insert_many(items)
    created_seq = sum(sequential.insert(k, v) for k, v in items)
    assert created_batch == created_seq
    assert list(batched.iter_items()) == list(sequential.iter_items())
    batched.check_invariants()


# ----------------------------------------------------------------------
# the dedup kernel: one answer for array and list columns
# ----------------------------------------------------------------------
@given(batch=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)),
                      max_size=40))
@settings(max_examples=60, deadline=None)
def test_dedup_column_kernels_match(batch):
    batch = sorted([(k, f"v{k}.{s}") for k, s in batch])
    keys = [k for k, _v in batch]
    results = []
    for col in (kernels.key_array(keys), list(keys)):
        col2, deduped = kernels.dedup_last(col, list(batch))
        results.append(
            (deduped, [int(k) for k in col2], kernels.column_strictly_increasing(col))
        )
    assert results[0] == results[1]
    deduped, col2, strictly = results[0]
    assert col2 == [k for k, _v in deduped]
    # keep-last semantics: one entry per key, holding the latest value
    assert deduped == list(dict(batch).items())
    assert strictly == (len(set(keys)) == len(keys))
    assert kernels.column_strictly_increasing(col2) or not deduped


# ----------------------------------------------------------------------
# gapped-specific machinery
# ----------------------------------------------------------------------
class TestConfig:
    def test_gapped_is_default(self):
        """Gapped is the only layout: no selector, and default trees use it."""
        with pytest.raises(TypeError):
            BPlusTreeConfig(node_layout="gapped")
        with pytest.raises(TypeError):
            BPlusTreeConfig(gap_high_water=1.0)
        tree = BPlusTree()
        tree.insert(1, "v")
        assert isinstance(tree._head_leaf, GappedLeaf)


@pytest.mark.parametrize("weird", [INT64_MAX, 2**70, -(2**70)])
class TestDemotion:
    def test_unrepresentable_key_demotes_and_serves(self, weird):
        """Keys at and beyond the int64 edges (which once demoted int64
        array stores to lists) are stored and served like any other."""
        tree = _tree()
        tree.insert_many([(k, f"v{k}") for k in range(10)])
        tree.insert(weird, "weird")
        assert tree.get(weird) == "weird"
        tree.insert(weird - 1, "w2")
        assert tree.get(weird - 1) == "w2"
        assert tree.delete(weird) is True
        assert tree.get(weird) is None
        tree.check_invariants()


@key_domains
def test_fission_replaces_split_storm(domain):
    """A big run landing in one leaf rebuilds it in one structural event."""
    shift = domain.shift
    tree = _tree(leaf_capacity=8)
    tree.insert_many([(k + shift, k) for k in range(0, 1000, 10)])
    before = tree.leaf_splits
    tree.insert_many([(k + shift, k) for k in range(101, 161)])  # one-leaf run
    assert tree.leaf_fissions >= 1
    counts = tree.meter.snapshot()
    assert counts.get("leaf_fission", 0) == tree.leaf_fissions
    # The run did not cascade through per-key splits.
    assert tree.leaf_splits - before <= 1
    tree.check_invariants()


@key_domains
def test_space_stats_physical_identity(domain):
    tree = _tree(leaf_capacity=8)
    tree.insert_many([(k + domain.shift, k) for k in range(500)])
    tree.delete(3 + domain.shift)
    stats = tree.space_stats()
    assert stats["physical_slots"] - stats["gap_slots"] == (
        stats["logical_entries"]
    )
    assert stats["logical_entries"] == len(tree)
    assert stats["physical_slots"] == tree.leaf_count * (8 + 1)
    assert 0.0 < stats["physical_fill"] <= 1.0


def test_collector_gap_slots_matches_space_stats():
    """The obs collector and ``space_stats()`` publish one ``gap_slots``:
    physical (spare slot included), whatever mix of paths built the tree."""
    tree = _tree(leaf_capacity=8)
    tree.bulk_load_append([(k, k) for k in range(0, 400, 2)])
    for k in range(1, 120, 2):
        tree.insert(k, k)
    tree.insert_many([(k, k) for k in range(121, 300, 4)])
    for k in range(0, 400, 7):
        tree.delete(k)
    tree.bulk_load_append([(k, k) for k in range(1000, 1100)])
    assert tree._obs_snapshot()["gap_slots"] == tree.space_stats()["gap_slots"]
    assert tree.space_stats()["gap_slots"] == tree.leaf_count * 9 - len(tree)


@key_domains
def test_checkpoint_round_trip_preserves_gapped_layout(domain):
    """Pages hold int64 keys, so both domains checkpoint int64 keys; they
    differ in the column type the tree's bulk load was handed."""
    tree = _tree(leaf_capacity=6)
    tree.insert_many([(k, f"v{k}") for k in range(300)])
    keys = range(300, 400)
    tree.bulk_load_append(kernels.ItemColumns(domain.column(keys), [f"v{k}" for k in keys]))
    tree.insert(INT64_MAX, "weird")  # the largest int64 key survives too
    restored = deserialize_btree(serialize_btree(tree))
    assert isinstance(restored._head_leaf, GappedLeaf)
    assert restored._root.is_leaf or isinstance(restored._root, GappedInternal)
    assert list(restored.iter_items()) == list(tree.iter_items())
    assert len(restored) == len(tree)
    assert (restored.min_key, restored.max_key) == (tree.min_key, tree.max_key)
    assert restored.get(INT64_MAX) == "weird"
    restored.check_invariants()
    restored.insert(9999, "post")
    assert restored.get(9999) == "post"


@pytest.mark.parametrize(
    "stale",
    [{"node_layout": "classic", "gap_high_water": 0.7}, {}],
    ids=["removed-knobs", "pre-knob"],
)
def test_old_checkpoint_config_still_loads(stale):
    """Checkpoints pickle their config. One written while the layout knobs
    existed carries them as stray attributes (possibly saying "classic");
    one older still has neither, like a config pickled today. Both must
    load as gapped trees — the page bytes never depended on the layout —
    and accept new writes."""
    tree = _tree(leaf_capacity=6)
    tree.insert_many([(k, f"v{k}") for k in range(0, 600, 2)])
    tree.delete(10)
    blob = serialize_btree(tree, compress=True)
    config = copy.copy(blob["config"])
    for name, value in stale.items():
        object.__setattr__(config, name, value)
    blob = pickle.loads(pickle.dumps({**blob, "config": config}))
    assert {k: getattr(blob["config"], k, None) for k in stale} == stale

    restored = deserialize_btree(blob)
    assert isinstance(restored._head_leaf, GappedLeaf)
    assert isinstance(restored._root, GappedInternal)
    assert list(restored.iter_items()) == list(tree.iter_items())
    restored.check_invariants()
    assert restored.insert(11, "post") is True
    assert restored.insert_many([(k, "batch") for k in range(1, 200, 2)]) == 99
    assert restored.get(11) == "batch" and restored.get(12) == "v12"
    restored.check_invariants()


def test_profiler_classifies_gapped_modules():
    """Sampling profiles must attribute the hot modules to layers."""
    assert layer_for_module("repro.btree.btree") == "btree"
    assert layer_for_module("repro.btree.node") == "btree"
    assert layer_for_module("repro.kernels") == "kernels"
