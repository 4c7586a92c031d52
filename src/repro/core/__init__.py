"""The SWARE meta-design: buffer, wrapper, configuration, statistics."""

from repro.core.advisor import Recommendation, recommend
from repro.core.buffer import HIT, MISS, TOMBSTONE, FlushBatch, MeteredSWAREBuffer, SWAREBuffer
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.factory import (
    make_baseline_betree,
    make_baseline_btree,
    make_sa_betree,
    make_sa_btree,
)
from repro.core.stats import SWAREStats
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.core.zonemap import PageZonemaps, Zonemap

__all__ = [
    "Recommendation",
    "recommend",
    "ConcurrentSortednessAwareIndex",
    "HIT",
    "MISS",
    "TOMBSTONE",
    "FlushBatch",
    "MeteredSWAREBuffer",
    "SWAREBuffer",
    "SWAREConfig",
    "SWAREStats",
    "SortednessAwareIndex",
    "TreeBackend",
    "PageZonemaps",
    "Zonemap",
    "make_baseline_betree",
    "make_baseline_btree",
    "make_sa_betree",
    "make_sa_btree",
]
