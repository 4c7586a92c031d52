"""Storage substrate: cost accounting, an LRU bufferpool, the binary page
format, and the durability subsystem (WAL + atomic checkpoints + crash
fault-injection)."""

from repro.storage.bufferpool import BufferPool, Frame, PageIdAllocator
from repro.storage.costmodel import (
    DEFAULT_WEIGHTS,
    NULL_METER,
    CostModel,
    Meter,
)
from repro.storage.faults import FaultyEnv, FaultyFile, SimulatedCrash
from repro.storage.pagefile import (
    CheckpointStore,
    PageFile,
    PageFileError,
    RecoveryReport,
    rebuild_index,
)
from repro.storage.wal import WALReplay, WriteAheadLog, replay_wal
from repro.storage.pages import (
    FLAG_COMPRESSED_KEYS,
    PageCorruptionError,
    decode_internal,
    decode_leaf,
    deserialize_btree,
    encode_internal,
    encode_key_block,
    encode_leaf,
    serialize_btree,
)

__all__ = [
    "BufferPool",
    "Frame",
    "PageIdAllocator",
    "DEFAULT_WEIGHTS",
    "NULL_METER",
    "CostModel",
    "Meter",
    "CheckpointStore",
    "PageFile",
    "PageFileError",
    "RecoveryReport",
    "WALReplay",
    "WriteAheadLog",
    "replay_wal",
    "FaultyEnv",
    "FaultyFile",
    "SimulatedCrash",
    "encode_key_block",
    "rebuild_index",
    "FLAG_COMPRESSED_KEYS",
    "PageCorruptionError",
    "decode_internal",
    "decode_leaf",
    "deserialize_btree",
    "encode_internal",
    "encode_leaf",
    "serialize_btree",
]
