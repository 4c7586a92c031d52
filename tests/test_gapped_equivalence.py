"""The gapped B+-tree node layout, unit by unit.

That the tree answers like an ordered map, in both key domains, is the
oracle's business (``tests/test_oracle.py``). This file pins what the
oracle cannot see: the dedup kernel's one answer for array and list
columns, keys at and beyond the int64 edges, the physical-occupancy fields of ``space_stats()``, checkpoint round-trips
that keep the layout (including configs pickled by older versions), and
profiler layer attribution for the hot modules.
"""

import copy
import pickle

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


def _tree(**overrides) -> BPlusTree:
    config = BPlusTreeConfig(
        leaf_capacity=overrides.pop("leaf_capacity", 4),
        internal_capacity=overrides.pop("internal_capacity", 4),
        **overrides,
    )
    return BPlusTree(config, meter=Meter())


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
