"""Tests for the binary page format and tree (de)serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.pages import (
    KIND_INTERNAL,
    KIND_LEAF,
    PageCorruptionError,
    decode_internal,
    decode_leaf,
    deserialize_btree,
    encode_internal,
    encode_leaf,
    page_kind,
    serialize_btree,
)


class TestLeafPages:
    def test_roundtrip(self):
        keys = [1, 5, 9]
        values = ["a", {"x": 2}, None]
        data = encode_leaf(keys, values)
        assert page_kind(data) == KIND_LEAF
        assert decode_leaf(data) == (keys, values)

    def test_empty_leaf(self):
        assert decode_leaf(encode_leaf([], [])) == ([], [])

    def test_negative_and_large_keys(self):
        keys = [-(2**62), 0, 2**62]
        data = encode_leaf(keys, keys)
        assert decode_leaf(data)[0] == keys

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_leaf([1], [])

    @given(
        keys=st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=64)
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, keys):
        values = [key * 3 for key in keys]
        assert decode_leaf(encode_leaf(keys, values)) == (keys, values)


class TestInternalPages:
    def test_roundtrip(self):
        data = encode_internal([10, 20], [1, 2, 3])
        assert page_kind(data) == KIND_INTERNAL
        assert decode_internal(data) == ([10, 20], [1, 2, 3])

    def test_child_count_enforced(self):
        with pytest.raises(ValueError):
            encode_internal([10], [1])


class TestCorruptionDetection:
    def test_bit_flip_detected(self):
        data = bytearray(encode_leaf([1, 2, 3], ["a", "b", "c"]))
        data[20] ^= 0xFF  # flip a byte in the body
        with pytest.raises(PageCorruptionError):
            decode_leaf(bytes(data))

    def test_truncation_detected(self):
        data = encode_leaf([1, 2, 3], ["a", "b", "c"])
        with pytest.raises(PageCorruptionError):
            decode_leaf(data[: len(data) - 4])

    def test_bad_magic(self):
        with pytest.raises(PageCorruptionError):
            decode_leaf(b"\x00" * 32)

    def test_kind_confusion_detected(self):
        leaf = encode_leaf([1], ["x"])
        with pytest.raises(PageCorruptionError):
            decode_internal(leaf)

    def test_short_page(self):
        with pytest.raises(PageCorruptionError):
            page_kind(b"\x01")


class TestTreeSerialization:
    def _populated_tree(self, n=500, seed=3):
        from repro.btree.btree import BPlusTree, BPlusTreeConfig

        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=8, internal_capacity=8))
        keys = list(range(n))
        random.Random(seed).shuffle(keys)
        for key in keys:
            tree.insert(key, f"v{key}")
        return tree

    def test_roundtrip_preserves_contents(self):
        tree = self._populated_tree()
        restored = deserialize_btree(serialize_btree(tree))
        restored.check_invariants()
        assert list(restored.iter_items()) == list(tree.iter_items())
        assert restored.height == tree.height
        assert restored.max_key == tree.max_key

    def test_restored_tree_is_usable(self):
        tree = self._populated_tree(n=200)
        restored = deserialize_btree(serialize_btree(tree))
        restored.insert(10_000, "new")
        assert restored.get(10_000) == "new"
        assert restored.get(50) == "v50"
        restored.delete(50)
        assert restored.get(50) is None
        restored.bulk_load_append([(20_000 + i, i) for i in range(50)])
        restored.check_invariants()

    def test_empty_tree_roundtrip(self):
        from repro.btree.btree import BPlusTree

        tree = BPlusTree()
        restored = deserialize_btree(serialize_btree(tree))
        assert restored.get(1) is None
        restored.insert(1, "x")
        assert restored.get(1) == "x"

    def test_corrupted_page_surfaces_on_load(self):
        tree = self._populated_tree(n=100)
        blob = serialize_btree(tree)
        victim = next(iter(blob["pages"]))
        page = bytearray(blob["pages"][victim])
        page[-1] ^= 0x55
        blob["pages"][victim] = bytes(page)
        with pytest.raises(PageCorruptionError):
            deserialize_btree(blob)
