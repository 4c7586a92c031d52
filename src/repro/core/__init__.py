"""The SWARE meta-design: buffer, wrapper, configuration, statistics."""

from repro.core.advisor import Recommendation, recommend, recommend_for_sample
from repro.core.buffer import HIT, MISS, TOMBSTONE, FlushBatch, SWAREBuffer
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.locks import BlockingLockManager, RWLock
from repro.core.factory import (
    BACKEND_NAMES,
    backend_factory,
    make_baseline_betree,
    make_baseline_btree,
    make_cracking,
    make_learned,
    make_lsm,
    make_sa_betree,
    make_sa_btree,
)
from repro.core.stats import SWAREStats
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.core.zonemap import PageZonemaps, Zonemap

__all__ = [
    "Recommendation",
    "recommend",
    "recommend_for_sample",
    "BlockingLockManager",
    "RWLock",
    "ConcurrentSortednessAwareIndex",
    "HIT",
    "MISS",
    "TOMBSTONE",
    "FlushBatch",
    "SWAREBuffer",
    "SWAREConfig",
    "SWAREStats",
    "SortednessAwareIndex",
    "TreeBackend",
    "PageZonemaps",
    "Zonemap",
    "BACKEND_NAMES",
    "backend_factory",
    "make_baseline_betree",
    "make_baseline_btree",
    "make_cracking",
    "make_learned",
    "make_lsm",
    "make_sa_betree",
    "make_sa_btree",
]
