"""Shared plumbing for the per-figure experiment modules.

Scaling: the paper ingests 500M entries with a buffer of 1% of the data;
every experiment here keeps the paper's *ratios* (buffer %, K%, L%, read
fractions) and shrinks N. The sizes each experiment is pinned at live in
the table in :mod:`repro.bench.experiments`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from repro.betree.betree import BeTree
from repro.btree.btree import BPlusTree
from repro.core.config import SWAREConfig
from repro.core.factory import (
    make_baseline_betree,
    make_baseline_btree,
    make_sa_betree,
    make_sa_btree,
)
from repro.core.sware import SortednessAwareIndex
from repro.sortedness.generator import generate_kl_keys, scrambled_keys, sorted_keys
from repro.storage.bufferpool import BufferPool
from repro.storage.costmodel import CostModel, Meter
from repro.workloads.spec import MixedWorkloadSpec, RawWorkloadSpec

#: Leaf/internal capacities used across all experiments (DESIGN.md §6).
LEAF_CAPACITY = 64
INTERNAL_CAPACITY = 64
PAGE_SIZE = 64

#: The qualitative sortedness presets of Fig. 10/18/20:
#: (label, k_fraction, l_fraction); None marks the uniform shuffle.
SORTEDNESS_PRESETS: List[Tuple[str, Optional[float], Optional[float]]] = [
    ("sorted", 0.0, 0.0),
    ("near-sorted", 0.10, 0.05),
    ("less-sorted", 1.00, 0.50),
    ("scrambled", None, None),
]

#: The paper's read:write ratios (read fraction of the interleaved phase).
READ_WRITE_RATIOS: List[float] = [0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90]


@lru_cache(maxsize=128)
def keys_for(
    n: int,
    k_fraction: Optional[float],
    l_fraction: Optional[float],
    seed: int = 7,
) -> Tuple[int, ...]:
    """Cached (K,L) key collections ((None, None) = scrambled)."""
    if k_fraction is None:
        return tuple(scrambled_keys(n, seed=seed))
    if k_fraction == 0.0 or l_fraction == 0.0:
        return tuple(sorted_keys(n))
    return tuple(generate_kl_keys(n, k_fraction, l_fraction, seed=seed))


def buffer_config(
    n: int,
    buffer_fraction: float = 0.01,
    page_size: int = PAGE_SIZE,
    **overrides,
) -> SWAREConfig:
    """A SWAREConfig whose buffer is ``buffer_fraction`` of the data size.

    The capacity is page-aligned and at least two pages; tiny buffers
    (Table III sweeps down to 0.05%) shrink the page size as needed.
    """
    capacity = max(8, int(n * buffer_fraction))
    if capacity < 2 * page_size:
        page_size = max(4, capacity // 2)
    capacity = max(2 * page_size, (capacity // page_size) * page_size)
    return SWAREConfig(buffer_capacity=capacity, page_size=page_size, **overrides)


def sa_btree_factory(
    sware_config: SWAREConfig,
    split_factor: float = 0.8,
    bulk_fill_factor: float = 0.95,
    pool_capacity: Optional[int] = None,
) -> Callable[[Meter], SortednessAwareIndex]:
    def factory(meter: Meter) -> SortednessAwareIndex:
        pool = BufferPool(pool_capacity, meter=meter) if pool_capacity else None
        return make_sa_btree(
            sware_config,
            split_factor=split_factor,
            bulk_fill_factor=bulk_fill_factor,
            meter=meter,
            pool=pool,
        )

    return factory


def baseline_btree_factory(
    pool_capacity: Optional[int] = None,
) -> Callable[[Meter], BPlusTree]:
    def factory(meter: Meter) -> BPlusTree:
        pool = BufferPool(pool_capacity, meter=meter) if pool_capacity else None
        return make_baseline_btree(meter=meter, pool=pool)

    return factory


def sa_betree_factory(
    sware_config: SWAREConfig,
    split_factor: float = 0.8,
) -> Callable[[Meter], SortednessAwareIndex]:
    def factory(meter: Meter) -> SortednessAwareIndex:
        return make_sa_betree(sware_config, split_factor=split_factor, meter=meter)

    return factory


def baseline_betree_factory() -> Callable[[Meter], BeTree]:
    def factory(meter: Meter) -> BeTree:
        return make_baseline_betree(meter=meter)

    return factory


def ondisk_pool_capacity(n: int) -> int:
    """A bufferpool holding roughly the internal nodes only (§V-E: ~1%).

    Sized with slack so the internal levels of *either* index fit (an
    80:20-split tree has a few more internals); leaves always spill.
    """
    leaves = max(1, (2 * n) // LEAF_CAPACITY)  # ~50% average fill
    internals = max(1, leaves // INTERNAL_CAPACITY)
    return max(24, 3 * internals + 16)


def mixed_ops(
    keys: Sequence[int],
    read_fraction: float,
    seed: int = 11,
    max_reads: Optional[int] = None,
) -> list:
    """Materialized mixed-workload operations (preload 80% + interleave)."""
    if max_reads is None:
        # Keep read-heavy runs bounded: at most 3x the data size.
        max_reads = 3 * len(keys)
    spec = MixedWorkloadSpec(
        keys=tuple(keys), read_fraction=read_fraction, seed=seed, max_reads=max_reads
    )
    return spec.materialize()


def raw_spec(keys: Sequence[int], n_lookups: int = 0, seed: int = 13) -> RawWorkloadSpec:
    return RawWorkloadSpec(keys=tuple(keys), n_lookups=n_lookups, seed=seed)


DEFAULT_COST_MODEL = CostModel()
