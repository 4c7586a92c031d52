"""repro — SWARE: sortedness-aware indexing.

A from-scratch Python reproduction of *"Indexing for Near-Sorted Data"*
(Raman, Sarkar, Olma, Athanassoulis — ICDE 2023).

Quickstart::

    from repro import make_sa_btree, SWAREConfig
    from repro.sortedness import generate_kl_keys, measure_sortedness

    index = make_sa_btree(SWAREConfig(buffer_capacity=1024))
    for key in generate_kl_keys(100_000, k_fraction=0.10, l_fraction=0.05):
        index.insert(key, key * 2)
    index.flush_all()
    assert index.get(42) == 84

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.betree import BeTree, BeTreeConfig
from repro.btree import BPlusTree, BPlusTreeConfig
from repro.core import (
    ConcurrentSortednessAwareIndex,
    Recommendation,
    SWAREBuffer,
    SWAREConfig,
    SWAREStats,
    SortednessAwareIndex,
    TreeBackend,
    make_baseline_betree,
    make_baseline_btree,
    make_sa_betree,
    make_sa_btree,
    recommend,
)
from repro.errors import (
    BulkLoadError,
    ConfigError,
    InvariantViolation,
    KeyRangeError,
    ReproError,
    WALError,
)
from repro.lsm import LSMConfig, LSMTree
from repro.storage import (
    BufferPool,
    CheckpointStore,
    CostModel,
    Meter,
    RecoveryReport,
    WriteAheadLog,
    replay_wal,
)

__version__ = "1.0.0"

__all__ = [
    "BPlusTree",
    "BPlusTreeConfig",
    "BeTree",
    "BeTreeConfig",
    "SWAREBuffer",
    "SWAREConfig",
    "SWAREStats",
    "SortednessAwareIndex",
    "ConcurrentSortednessAwareIndex",
    "TreeBackend",
    "make_baseline_betree",
    "make_baseline_btree",
    "make_sa_betree",
    "make_sa_btree",
    "Recommendation",
    "recommend",
    "BulkLoadError",
    "ConfigError",
    "InvariantViolation",
    "KeyRangeError",
    "ReproError",
    "WALError",
    "LSMConfig",
    "LSMTree",
    "BufferPool",
    "CheckpointStore",
    "CostModel",
    "Meter",
    "RecoveryReport",
    "WriteAheadLog",
    "replay_wal",
    "__version__",
]
