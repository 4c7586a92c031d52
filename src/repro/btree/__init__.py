"""B+-tree substrate (the paper's baseline index)."""

from repro.btree.btree import BPlusTree, BPlusTreeConfig, MeteredBPlusTree

__all__ = ["BPlusTree", "BPlusTreeConfig", "MeteredBPlusTree"]
