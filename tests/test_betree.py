"""Unit tests for the Bε-tree substrate."""

import random

import pytest

from repro.betree.betree import BeTree, BeTreeConfig
from repro.errors import BulkLoadError, ConfigError
from repro.storage.costmodel import Meter


def small_tree(**overrides) -> BeTree:
    config = BeTreeConfig(
        node_size=overrides.pop("node_size", 16),
        leaf_capacity=overrides.pop("leaf_capacity", 8),
        **overrides,
    )
    return BeTree(config, meter=Meter())


class TestConfig:
    def test_epsilon_half_splits_node_budget(self):
        config = BeTreeConfig(node_size=64, epsilon=0.5)
        assert config.max_pivots == 8  # ceil(64^0.5)
        assert config.buffer_capacity == 56

    def test_epsilon_one_is_btree_like(self):
        config = BeTreeConfig(node_size=64, epsilon=1.0)
        assert config.max_pivots == 64
        assert config.buffer_capacity >= 1

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigError):
            BeTreeConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            BeTreeConfig(epsilon=1.5)

    def test_rejects_tiny_node(self):
        with pytest.raises(ConfigError):
            BeTreeConfig(node_size=2)


class TestBasicOperations:
    def test_empty(self):
        tree = small_tree()
        assert tree.get(1) is None
        assert tree.range_query(0, 10) == []
        assert len(tree) == 0

    def test_insert_get(self):
        tree = small_tree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"

    def test_upsert(self):
        tree = small_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_pending_message_visible(self):
        """A key whose message has not reached a leaf must still be found."""
        tree = small_tree(node_size=32, leaf_capacity=16)
        for key in range(200):
            tree.insert(key, key)
        # With buffered messages pending, every key still resolves.
        assert all(tree.get(key) == key for key in range(200))

    def test_many_random_inserts(self):
        tree = small_tree()
        keys = list(range(500))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        assert all(tree.get(key) == key * 2 for key in range(500))
        assert tree.get(1000) is None

    def test_messages_flow_down(self):
        tree = small_tree()
        for key in range(300):
            tree.insert(key, key)
        assert tree.buffer_flushes > 0
        assert tree.messages_moved > 0
        tree.check_invariants()


class TestDeletes:
    def test_delete_via_tombstone(self):
        tree = small_tree()
        tree.insert(5, "x")
        tree.delete(5)
        assert tree.get(5) is None

    def test_delete_pending_key(self):
        tree = small_tree(node_size=32, leaf_capacity=16)
        for key in range(100):
            tree.insert(key, key)
        tree.delete(50)  # 50's PUT may still be buffered above the leaf
        assert tree.get(50) is None
        assert tree.get(49) == 49

    def test_delete_then_reinsert(self):
        tree = small_tree()
        tree.insert(5, "a")
        tree.delete(5)
        tree.insert(5, "b")
        assert tree.get(5) == "b"

    def test_delete_absent_is_noop_logically(self):
        tree = small_tree()
        tree.insert(1, "x")
        tree.delete(99)
        assert tree.get(1) == "x"
        assert tree.get(99) is None

    def test_mass_delete(self):
        tree = small_tree()
        for key in range(200):
            tree.insert(key, key)
        for key in range(0, 200, 2):
            tree.delete(key)
        tree.check_invariants()
        for key in range(200):
            expected = None if key % 2 == 0 else key
            assert tree.get(key) == expected


class TestRangeQueries:
    def test_range_includes_pending_messages(self):
        tree = small_tree(node_size=32, leaf_capacity=16)
        for key in range(150):
            tree.insert(key, key)
        assert tree.range_query(40, 60) == [(k, k) for k in range(40, 61)]

    def test_range_respects_tombstones(self):
        tree = small_tree()
        for key in range(50):
            tree.insert(key, key)
        for key in range(10, 20):
            tree.delete(key)
        result = tree.range_query(0, 49)
        assert [k for k, _ in result] == [k for k in range(50) if not 10 <= k < 20]

    def test_range_newest_version_wins(self):
        tree = small_tree()
        for key in range(100):
            tree.insert(key, "old")
        for key in range(30, 40):
            tree.insert(key, "new")
        result = dict(tree.range_query(25, 45))
        for key in range(30, 40):
            assert result[key] == "new"
        assert result[26] == "old"

    def test_empty_range(self):
        tree = small_tree()
        tree.insert(5, 5)
        assert tree.range_query(10, 20) == []
        assert tree.range_query(6, 4) == []


class TestBulkLoad:
    def test_bulk_into_empty(self):
        tree = small_tree()
        tree.bulk_load_append([(k, k) for k in range(100)])
        tree.check_invariants()
        assert all(tree.get(k) == k for k in range(100))

    def test_bulk_leaves_buffers_empty(self):
        tree = small_tree()
        tree.bulk_load_append([(k, k) for k in range(500)])

        def pending(node):
            return 0 if node.is_leaf else len(node.buffer) + sum(map(pending, node.children))

        assert pending(tree._root) == 0
        assert tree.bulk_loaded_entries == 500

    def test_bulk_after_inserts_with_pending_messages(self):
        tree = small_tree(node_size=32, leaf_capacity=16)
        for key in range(100):
            tree.insert(key, key)
        tree.bulk_load_append([(k, k) for k in range(100, 300)])
        tree.check_invariants()
        assert all(tree.get(k) == k for k in range(300))

    def test_bulk_rejects_overlap_with_pending_max(self):
        tree = small_tree()
        tree.insert(100, "pending")
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(50, 0)])

    def test_bulk_rejects_unsorted(self):
        tree = small_tree()
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(2, 0), (1, 0)])

    def test_interleaved_bulk_and_top_inserts(self):
        tree = small_tree()
        model = {}
        next_key = 0
        rng = random.Random(3)
        for round_index in range(15):
            size = rng.randint(5, 30)
            batch = [(next_key + i, round_index) for i in range(size)]
            next_key += size
            tree.bulk_load_append(batch)
            model.update(dict(batch))
            for _ in range(rng.randint(0, 10)):
                key = rng.randrange(next_key)
                tree.insert(key, "top")
                model[key] = "top"
        tree.check_invariants()
        assert dict(tree.iter_items()) == model


class TestCosts:
    def test_insert_cheaper_than_btree_per_node_access(self):
        """Bε inserts are buffered: far fewer node touches than a B+-tree."""
        from repro.btree.btree import BPlusTree, BPlusTreeConfig

        be_meter, bt_meter = Meter(), Meter()
        be = BeTree(BeTreeConfig(node_size=64, leaf_capacity=64), meter=be_meter)
        bt = BPlusTree(BPlusTreeConfig(leaf_capacity=64, internal_capacity=64), meter=bt_meter)
        keys = list(range(3000))
        random.Random(5).shuffle(keys)
        for key in keys:
            be.insert(key, key)
            bt.insert(key, key)
        assert be_meter["node_access"] < bt_meter["node_access"]

    def test_lookup_scans_buffers(self):
        meter = Meter()
        tree = BeTree(BeTreeConfig(node_size=16, leaf_capacity=8), meter=meter)
        for key in range(200):
            tree.insert(key, key)
        before = meter["scan_entry"]
        tree.get(100)
        assert meter["scan_entry"] >= before  # buffers are consulted


class TestInvariantChecker:
    def test_detects_overfull_buffer(self):
        tree = small_tree()
        for key in range(100):
            tree.insert(key, key)
        # Sabotage: overfill a buffer directly.
        node = tree._root
        if not node.is_leaf:
            from repro.betree.messages import Message, PUT
            from repro.errors import InvariantViolation

            node.buffer.extend(
                Message(node.keys[0], 10_000 + i, PUT, 0) for i in range(100)
            )
            with pytest.raises(InvariantViolation):
                tree.check_invariants()
