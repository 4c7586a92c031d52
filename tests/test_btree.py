"""Unit tests for the B+-tree substrate."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.btree import BPlusTree, BPlusTreeConfig, MeteredBPlusTree
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.errors import BulkLoadError, ConfigError, InvariantViolation
from repro.storage.bufferpool import BufferPool
from repro.storage.costmodel import Meter
from tests.key_domains import key_domains


def small_tree(**overrides) -> BPlusTree:
    config = BPlusTreeConfig(
        leaf_capacity=overrides.pop("leaf_capacity", 4),
        internal_capacity=overrides.pop("internal_capacity", 4),
        **overrides,
    )
    return BPlusTree(config, meter=Meter())


class TestConfig:
    def test_rejects_tiny_capacities(self):
        with pytest.raises(ConfigError):
            BPlusTreeConfig(leaf_capacity=1)
        with pytest.raises(ConfigError):
            BPlusTreeConfig(internal_capacity=1)

    def test_rejects_extreme_split_factor(self):
        with pytest.raises(ConfigError):
            BPlusTreeConfig(split_factor=0.05)
        with pytest.raises(ConfigError):
            BPlusTreeConfig(split_factor=0.95)

    def test_rejects_bad_fill_factor(self):
        with pytest.raises(ConfigError):
            BPlusTreeConfig(bulk_fill_factor=1.5)


class TestBasicOperations:
    def test_empty_tree(self):
        tree = small_tree()
        assert tree.get(1) is None
        assert len(tree) == 0
        assert tree.max_key is None
        assert tree.min_key is None
        assert tree.range_query(0, 100) == []

    def test_single_insert(self):
        tree = small_tree()
        assert tree.insert(5, "five") is True
        assert tree.get(5) == "five"
        assert tree.max_key == tree.min_key == 5

    def test_upsert_overwrites(self):
        tree = small_tree()
        tree.insert(5, "a")
        assert tree.insert(5, "b") is False
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_many_inserts_random_order(self):
        tree = small_tree()
        import random

        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        assert len(tree) == 500
        assert all(tree.get(key) == key * 2 for key in range(500))
        assert tree.get(500) is None
        assert tree.min_key == 0
        assert tree.max_key == 499

    def test_contains(self):
        tree = small_tree()
        tree.insert(1, "x")
        assert 1 in tree
        assert 2 not in tree

    def test_height_grows(self):
        tree = small_tree()
        for key in range(100):
            tree.insert(key, key)
        assert tree.height >= 3
        tree.check_invariants()

    def test_iter_items_sorted(self):
        tree = small_tree()
        for key in (5, 1, 9, 3):
            tree.insert(key, key)
        assert list(tree.iter_items()) == [(1, 1), (3, 3), (5, 5), (9, 9)]


class TestRangeQueries:
    def make(self):
        tree = small_tree()
        for key in range(0, 100, 2):
            tree.insert(key, key)
        return tree

    def test_inclusive_bounds(self):
        tree = self.make()
        assert tree.range_query(10, 14) == [(10, 10), (12, 12), (14, 14)]

    def test_bounds_between_keys(self):
        tree = self.make()
        assert tree.range_query(9, 15) == [(10, 10), (12, 12), (14, 14)]

    def test_empty_range(self):
        tree = self.make()
        assert tree.range_query(11, 11) == []
        assert tree.range_query(50, 40) == []

    def test_full_range(self):
        tree = self.make()
        assert len(tree.range_query(-100, 1000)) == 50

    def test_crosses_leaves(self):
        tree = self.make()
        result = tree.range_query(0, 98)
        assert [key for key, _ in result] == list(range(0, 100, 2))


class TestDeletes:
    def test_delete_present(self):
        tree = small_tree()
        tree.insert(1, "a")
        assert tree.delete(1) is True
        assert tree.get(1) is None
        assert len(tree) == 0

    def test_delete_absent(self):
        tree = small_tree()
        tree.insert(1, "a")
        assert tree.delete(2) is False
        assert len(tree) == 1

    def test_minmax_are_watermarks_after_delete(self):
        """Deletes must not shrink the bounds: a later bulk load keyed off
        max_key would otherwise append left of the right-most separator."""
        tree = small_tree()
        for key in (1, 5, 9):
            tree.insert(key, key)
        tree.delete(9)
        assert tree.max_key == 9
        tree.delete(1)
        assert tree.min_key == 1
        # The watermark keeps bulk loading safe.
        import pytest as _pytest

        from repro.errors import BulkLoadError

        with _pytest.raises(BulkLoadError):
            tree.bulk_load_append([(7, 7)])
        tree.bulk_load_append([(10, 10)])
        tree.check_invariants()

    def test_delete_max_then_bulk_regression(self):
        """Regression for the stateful-machine finding: delete the max,
        insert a key just below it, bulk load — routing must hold."""
        tree = small_tree(leaf_capacity=4, internal_capacity=4)
        tree.insert(5, 5)
        for key in range(4):
            tree.insert(key, key)
        tree.delete(5)
        tree.insert(4, 4)
        tree.check_invariants()
        tree.bulk_load_append([(10, 10), (11, 11)])
        tree.check_invariants()
        assert tree.get(4) == 4
        assert tree.get(10) == 10

    def test_delete_everything_then_reinsert(self):
        tree = small_tree()
        for key in range(100):
            tree.insert(key, key)
        for key in range(100):
            assert tree.delete(key)
        assert len(tree) == 0
        tree.check_invariants()
        for key in range(50):
            tree.insert(key, key + 1)
        tree.check_invariants()
        assert all(tree.get(key) == key + 1 for key in range(50))

    def test_range_skips_deleted(self):
        tree = small_tree()
        for key in range(20):
            tree.insert(key, key)
        for key in range(0, 20, 2):
            tree.delete(key)
        assert tree.range_query(0, 19) == [(k, k) for k in range(1, 20, 2)]


class TestSplitFactor:
    def test_ascending_fill_factor_improves_with_split_factor(self):
        """The §III claim: right-leaning splits raise average leaf fill for
        sorted ingestion."""
        fills = {}
        for factor in (0.5, 0.8):
            tree = small_tree(leaf_capacity=8, internal_capacity=8, split_factor=factor)
            for key in range(1000):
                tree.insert(key, key)
            tree.check_invariants()
            fills[factor] = tree.space_stats()["avg_leaf_fill"]
        assert fills[0.8] > fills[0.5]

    def test_ascending_splits_decrease_with_split_factor(self):
        splits = {}
        for factor in (0.5, 0.8):
            tree = small_tree(leaf_capacity=8, internal_capacity=8, split_factor=factor)
            for key in range(1000):
                tree.insert(key, key)
            splits[factor] = tree.leaf_splits
        assert splits[0.8] < splits[0.5]


class TestTailLeafFastPath:
    def test_fastpath_counts(self):
        tree = small_tree(tail_leaf_optimization=True)
        for key in range(100):
            tree.insert(key, key)
        # All but the very first insert land via the tail-leaf pointer.
        assert tree.fastpath_inserts >= 90
        tree.check_invariants()

    def test_fastpath_disabled_by_default(self):
        tree = small_tree()
        for key in range(100):
            tree.insert(key, key)
        assert tree.fastpath_inserts == 0

    def test_fastpath_equivalent_results(self):
        import random

        keys = list(range(400))
        random.Random(1).shuffle(keys)
        with_fp = small_tree(tail_leaf_optimization=True)
        without = small_tree(tail_leaf_optimization=False)
        for key in keys:
            with_fp.insert(key, key)
            without.insert(key, key)
        assert list(with_fp.iter_items()) == list(without.iter_items())
        with_fp.check_invariants()

    def test_fastpath_cheaper_for_sorted(self):
        meter_fp = Meter()
        meter_plain = Meter()
        fp = BPlusTree(
            BPlusTreeConfig(leaf_capacity=8, internal_capacity=8, tail_leaf_optimization=True),
            meter=meter_fp,
        )
        plain = BPlusTree(
            BPlusTreeConfig(leaf_capacity=8, internal_capacity=8),
            meter=meter_plain,
        )
        for key in range(2000):
            fp.insert(key, key)
            plain.insert(key, key)
        assert meter_fp["node_access"] < meter_plain["node_access"] / 2


class TestBulkLoad:
    def test_bulk_into_empty(self):
        tree = small_tree()
        tree.bulk_load_append([(k, k) for k in range(100)])
        tree.check_invariants()
        assert len(tree) == 100
        assert all(tree.get(k) == k for k in range(100))

    def test_bulk_appends_after_inserts(self):
        tree = small_tree()
        for key in range(50):
            tree.insert(key, key)
        tree.bulk_load_append([(k, k) for k in range(50, 150)])
        tree.check_invariants()
        assert len(tree) == 150
        assert all(tree.get(k) == k for k in range(150))

    def test_bulk_rejects_overlap(self):
        tree = small_tree()
        tree.insert(100, 100)
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(100, 0), (101, 0)])

    def test_bulk_rejects_unsorted_batch(self):
        tree = small_tree()
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(2, 0), (1, 0)])

    def test_bulk_rejects_duplicate_in_batch(self):
        tree = small_tree()
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(1, 0), (1, 0)])

    def test_bulk_empty_batch_noop(self):
        tree = small_tree()
        tree.bulk_load_append([])
        assert len(tree) == 0

    def test_alternating_bulk_and_inserts(self):
        tree = small_tree()
        expected = {}
        next_key = 0
        for round_index in range(20):
            batch = [(next_key + i, round_index) for i in range(13)]
            tree.bulk_load_append(batch)
            expected.update(dict(batch))
            next_key += 13
            # Insert a few overlapping keys through the root.
            for key in range(max(0, next_key - 30), next_key - 20):
                tree.insert(key, -round_index)
                expected[key] = -round_index
        tree.check_invariants()
        assert dict(tree.iter_items()) == expected

    def test_bulk_fill_factor_respected(self):
        tree = small_tree(leaf_capacity=10, bulk_fill_factor=0.5)
        tree.bulk_load_append([(k, k) for k in range(100)])
        stats = tree.space_stats()
        # Leaves filled to ~50%, never above.
        assert stats["avg_leaf_fill"] <= 0.55
        tree.check_invariants()

    def test_bulk_cheaper_than_inserts(self):
        meter_bulk = Meter()
        bulk_tree = BPlusTree(BPlusTreeConfig(leaf_capacity=8, internal_capacity=8), meter=meter_bulk)
        bulk_tree.bulk_load_append([(k, k) for k in range(1000)])
        meter_ins = Meter()
        ins_tree = BPlusTree(BPlusTreeConfig(leaf_capacity=8, internal_capacity=8), meter=meter_ins)
        for key in range(1000):
            ins_tree.insert(key, key)
        from repro.storage.costmodel import CostModel

        model = CostModel()
        assert meter_bulk.nanos(model) < meter_ins.nanos(model) / 3


class TestSpaceStats:
    def test_counts_consistent(self):
        tree = small_tree()
        for key in range(200):
            tree.insert(key, key)
        stats = tree.space_stats()
        assert stats["entries"] == 200
        assert stats["leaf_count"] * 4 == stats["leaf_slots"]
        assert 0 < stats["avg_leaf_fill"] <= 1.0


class TestMeterAccounting:
    def test_node_access_charged_on_get(self):
        """One ``node_access`` per level, into the active bucket."""
        meter = Meter()
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4), meter=meter)
        for key in range(300):
            tree.insert(key, key)
        assert tree.height >= 3
        for key in (0, 150, 299, 1000, -5):
            before = meter["node_access"]
            with meter.bucket("probe"):
                tree.get(key)
            assert meter["node_access"] - before == tree.height
            assert meter.bucket_counts["probe"]["node_access"] == tree.height
            meter.bucket_counts.clear()

    def test_pooled_get_touches_the_descent_pages_in_order(self):
        tree = BPlusTree(
            BPlusTreeConfig(leaf_capacity=4, internal_capacity=4), pool=BufferPool(capacity=3)
        )
        for key in range(200):
            tree.insert(key, key)
        touched = []
        real_access = tree.pool.access
        tree.pool.access = lambda page_id, dirty=False: (
            touched.append((page_id, dirty)) or real_access(page_id, dirty)
        )

        def descent(key, dirty=False):
            """The pages of the executed, unbilled walk to ``key``'s leaf."""
            leaf, path = tree._descend_to_leaf(key)
            assert touched == []  # the walk itself touches no page
            return [(node.page_id, False) for node in path] + [(leaf.page_id, dirty)], leaf

        for key in (0, 77, 199, 500):
            touched.clear()
            expected, leaf = descent(key)
            assert tree.get(key) == (key if key < 200 else None)
            assert touched == expected
            # A range: the descent to ``lo``'s leaf, then the chain up to the
            # first leaf holding a key above ``hi``.
            touched.clear()
            expected, leaf = descent(key)
            while leaf.ks[-1] <= key + 9 and leaf.next_leaf is not None:
                leaf = leaf.next_leaf
                expected.append((leaf.page_id, False))
            rows = tree.range_query(key, key + 9)
            assert rows == [(k, k) for k in range(key, min(key + 10, 200))]
            assert touched == expected
            # A delete touches its leaf dirty.
            touched.clear()
            expected, leaf = descent(key, dirty=True)
            assert tree.delete(key) == (key < 200)
            assert touched == expected


def tree_shape(tree: BPlusTree):
    """Everything a walk and a loop of inserts must agree on: every node
    (page id, keys, values or children), the leaf chain, the counters, the
    watermarks, and the cached tail leaf and path."""

    def dump(node):
        if node.is_leaf:
            return node.page_id, tuple(node.ks), tuple(node.vs)
        return node.page_id, tuple(node.ks), tuple(dump(child) for child in node.children)

    chain = []
    leaf = tree._head_leaf
    while leaf is not None:
        chain.append((leaf.page_id, tuple(leaf.ks), tuple(leaf.vs)))
        leaf = leaf.next_leaf
    return (
        dump(tree._root) if tree._root is not None else None,
        chain,
        tree._obs_snapshot(),
        (tree.min_key, tree.max_key),
        tree._tail_leaf.page_id if tree._tail_leaf is not None else None,
        [node.page_id for node in tree._tail_path],
    )


#: Keys at the int64 edges, drawn in both key domains.
INT64_EDGES = (-(2**63), 2**63 - 1)


class TestInsertSorted:
    """``insert_sorted`` (one descent per leaf run) builds the tree that a
    loop of ``insert`` builds, split for split; ``insert_many`` is a bulk
    load above ``max_key`` and ``insert_sorted`` otherwise."""

    @key_domains
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_walk_builds_the_tree_a_loop_of_insert_builds(self, domain, data):
        config = BPlusTreeConfig(
            leaf_capacity=data.draw(st.integers(2, 8)),
            internal_capacity=data.draw(st.integers(2, 8)),
            split_factor=data.draw(st.sampled_from([0.5, 0.8])),
            tail_leaf_optimization=data.draw(st.booleans()),
        )
        key = domain.keys(st.integers(-60, 60)) | st.sampled_from(INT64_EDGES)
        start = data.draw(st.lists(key, unique=True, max_size=40))
        bulk = data.draw(st.lists(st.integers(61, 120), unique=True, max_size=30))
        drops = data.draw(st.lists(st.sampled_from(start), max_size=10)) if start else []
        batches = data.draw(st.lists(st.lists(key, unique=True, max_size=60), max_size=3))
        walk, loop, metered = BPlusTree(config), BPlusTree(config), BPlusTree(config, meter=Meter())
        batched = BPlusTree(config)
        assert type(metered) is MeteredBPlusTree
        for tree in (walk, loop, metered, batched):
            # A starting tree with overwrites ahead, a bulk-loaded tail
            # (when the edges leave room above it) and emptied leaves.
            for k in start:
                tree.insert(k, ("start", k))
            if tree.max_key is None or tree.max_key < 61:
                tree.bulk_load_append([(k, ("bulk", k)) for k in sorted(bulk)])
            for k in drops:
                tree.delete(k)
        same_shape = True  # until a batch bulk-loads into ``batched``
        for number, batch in enumerate(batches):
            keys = sorted(batch)
            values = [(number, k) for k in keys]
            # Shuffled, each key's value behind a stale version of it.
            stale = [(k, ("stale", k)) for k in data.draw(st.permutations(keys))]
            fresh = [(k, (number, k)) for k in data.draw(st.permutations(keys))]
            new_keys = len(set(keys) - {k for k, _ in loop.iter_items()})
            bulk = bool(keys) and (batched.max_key is None or keys[0] > batched.max_key)
            walk.insert_sorted(keys, values)
            metered.insert_sorted(keys, values)
            for k, value in zip(keys, values):
                loop.insert(k, value)
            assert batched.insert_many(stale + fresh) == new_keys
            walk.check_invariants()
            batched.check_invariants()
            assert tree_shape(walk) == tree_shape(loop) == tree_shape(metered)
            same_shape = same_shape and not bulk
            if same_shape:
                assert tree_shape(batched) == tree_shape(walk)
            assert list(batched.iter_items()) == list(loop.iter_items())

    @key_domains
    def test_a_flush_with_interleaved_tombstones_matches_the_loop(self, domain):
        # A tree without ``insert_sorted`` gets SWARE's per-key loop: both
        # indexes must end with the same tree and the same tombstone counts.
        class PerKey:
            def __init__(self, tree):
                self.tree = tree

            def __getattr__(self, name):
                if name == "insert_sorted":
                    raise AttributeError(name)
                return getattr(self.tree, name)

        shift = domain.shift
        config = BPlusTreeConfig(
            leaf_capacity=4, internal_capacity=4, split_factor=0.8, tail_leaf_optimization=True
        )
        sware = SWAREConfig(buffer_capacity=64, page_size=8)
        walk_tree, loop_tree = BPlusTree(config), BPlusTree(config)
        indexes = [SortednessAwareIndex(walk_tree, sware),
                   SortednessAwareIndex(PerKey(loop_tree), sware)]
        for index in indexes:
            index.put_many([(shift + k, k) for k in range(0, 200, 4)])
            index.flush_all()
            for k in (151, 13, 77, 200, 6, 98, 2, 45, 150, 46, 199):
                index.insert(shift + k, -k)  # top-inserts and overwrites
            for k in (8, 77, 9, 48, 47, 196):  # applied, buffered, absent
                index.delete(shift + k)
            index.insert(shift + 9, "back")
            batch = index.buffer.all_entries()
            assert sum(entry[3] for entry in batch) == 6  # tombstones
            index.flush_all()
        walk, loop = indexes
        assert tree_shape(walk_tree) == tree_shape(loop_tree)
        walk_tree.check_invariants()
        for name in ("tombstones_noop", "tombstones_applied", "top_inserted_entries"):
            assert getattr(walk.stats, name) == getattr(loop.stats, name), name
        assert walk.stats.tombstones_noop and walk.stats.tombstones_applied
        assert walk.items() == loop.items()


def _chain(tree):
    leaves, leaf = [], tree._head_leaf
    while leaf is not None:
        leaves.append(leaf)
        leaf = leaf.next_leaf
    return leaves


def _middle_leaf(tree):
    """A non-empty leaf that is neither end of the chain."""
    return next(leaf for leaf in _chain(tree)[1:-1] if leaf.n >= 2)


def _numpy_key(tree):
    leaf = _middle_leaf(tree)
    leaf.ks[0] = np.int64(leaf.ks[0])  # compares like an int, is not one


def _break_chain_skip(tree):
    leaves = _chain(tree)
    assert leaves[2].n  # its entries drop out of the chain's count too
    leaves[1].next_leaf = leaves[3]


def _break_chain_order(tree):
    first, second, third, fourth = _chain(tree)[1:5]
    first.next_leaf, third.next_leaf, second.next_leaf = third, second, fourth


def _below_separator(tree):
    leaf = _middle_leaf(tree)
    leaf.ks[0] = _chain(tree)[0].ks[0] - 1  # still sorted inside the leaf


def _above_separator(tree):
    leaf = _middle_leaf(tree)
    leaf.ks[-1] = _chain(tree)[-1].ks[-1] + 1


def _over_capacity(tree):
    tail = _chain(tree)[-1]
    top = tail.ks[-1]
    extra = tree.config.leaf_capacity + 1 - tail.n
    tail.extend(list(range(top + 1, top + 1 + extra)), [None] * extra)
    tree.n_entries += extra


def _leaf_one_level_up(tree):
    root = tree._root
    root.children[0] = root.children[0].children[0]


#: One structural break per invariant ``check_invariants`` keeps, each with
#: the part of the message it raises.
BREAKS = {
    "non-int key": (_numpy_key, "not an int"),
    "unsorted leaf": (lambda t: _middle_leaf(t).ks.reverse(), "not strictly sorted"),
    "unsorted internal node": (lambda t: t._root.ks.reverse(), "not strictly sorted"),
    "key below its separator": (_below_separator, "below separator"),
    "key above its separator": (_above_separator, "at/above separator"),
    "leaf over capacity": (_over_capacity, "> capacity"),
    "child count mismatch": (lambda t: t._root.children.pop(), "child count mismatch"),
    "leaves at two depths": (_leaf_one_level_up, "multiple depths"),
    "leaf missing from the chain": (_break_chain_skip, "leaf chain|entry count"),
    "leaves out of order in the chain": (_break_chain_order, "leaf chain"),
    "n_entries mismatch": (lambda t: setattr(t, "n_entries", t.n_entries + 1), "n_entries"),
    "tail not the chain's end": (lambda t: setattr(t, "_tail_leaf", _chain(t)[-2]),
                                 "tail leaf is not the end"),
    "max_key below the right-most key": (
        lambda t: setattr(t, "max_key", _chain(t)[-1].ks[-1] - 1), "max_key watermark"),
}


class TestCheckInvariants:
    """Each invariant ``check_invariants`` holds the tree to, broken on its
    own in a valid three-level tree, makes it raise."""

    @staticmethod
    def tree() -> BPlusTree:
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
        keys = list(range(0, 200, 5))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        for key in (5, 10, 15, 20):  # an emptied leaf stays in the chain
            tree.delete(key)
        assert tree.height == 3
        return tree

    def test_a_valid_tree_passes(self):
        tree = self.tree()
        assert any(leaf.n == 0 for leaf in _chain(tree))
        tree.check_invariants()

    @pytest.mark.parametrize("name", sorted(BREAKS))
    def test_a_broken_invariant_raises(self, name):
        tree = self.tree()
        tree.check_invariants()
        breaks, message = BREAKS[name]
        breaks(tree)
        with pytest.raises(InvariantViolation, match=message):
            tree.check_invariants()
