"""Constructors for the paper's four index configurations.

The evaluation compares a *baseline* B+-tree / Bε-tree (textbook 50:50
splits, no tail-leaf pointer) with their sortedness-aware counterparts
(SWARE buffer on top; 80:20 splits and 95% bulk-load fill underneath, per
§V "SWARE Tuning").
"""

from __future__ import annotations

from typing import Optional

from repro.betree.betree import BeTree, BeTreeConfig
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.storage.bufferpool import BufferPool
from repro.storage.costmodel import Meter


def make_baseline_btree(
    meter: Optional[Meter] = None,
    pool: Optional[BufferPool] = None,
) -> BPlusTree:
    """The paper's baseline B+-tree: textbook 50:50 splits."""
    config = BPlusTreeConfig(split_factor=0.5, tail_leaf_optimization=False)
    return BPlusTree(config, meter=meter, pool=pool)


def make_sa_btree(
    sware_config: Optional[SWAREConfig] = None,
    leaf_capacity: int = 64,
    internal_capacity: int = 64,
    meter: Optional[Meter] = None,
    pool: Optional[BufferPool] = None,
) -> SortednessAwareIndex:
    """SA B+-tree: SWARE buffer over a B+-tree tuned per §V."""
    tree_config = BPlusTreeConfig(
        leaf_capacity=leaf_capacity,
        internal_capacity=internal_capacity,
        split_factor=0.8,
        bulk_fill_factor=0.95,
        tail_leaf_optimization=True,
    )
    tree = BPlusTree(tree_config, meter=meter, pool=pool)
    return SortednessAwareIndex(tree, config=sware_config, meter=meter)


def make_baseline_betree(meter: Optional[Meter] = None) -> BeTree:
    """The paper's baseline Bε-tree with ε = 1/2."""
    return BeTree(BeTreeConfig(split_factor=0.5), meter=meter)


def make_sa_betree(
    sware_config: Optional[SWAREConfig] = None,
    meter: Optional[Meter] = None,
) -> SortednessAwareIndex:
    """SA Bε-tree: SWARE buffer over a Bε-tree (§V-G)."""
    tree = BeTree(BeTreeConfig(split_factor=0.8, bulk_fill_factor=0.95), meter=meter)
    return SortednessAwareIndex(tree, config=sware_config, meter=meter)
