"""``repro.net`` — the sharded network service layer.

The "millions of users" scenario made concrete: a range-partitioned
:class:`ShardedSortednessAwareIndex` (per-shard SWARE index + WAL + epoch
checkpoints under one root directory, zonemap-informed routing, shard
splits under write pressure) fronted by an asyncio server speaking a
length-prefixed binary protocol with request pipelining, group-commit
write acknowledgement, and scatter-gather range queries.

Modules
-------
``protocol``
    Frame format and opcode encode/decode (shared by server and client).
``sharded``
    The range-partitioned index, its on-disk layout and manifest, and
    sharded recovery.
``server``
    The asyncio front door (:class:`IndexServer`): one protocol object per
    connection dispatching pipelined frames as they arrive, a group-commit
    acknowledgement loop, and fail-stop on a failed commit
    (:class:`CommitFailed`).
``client``
    Asyncio client library (:class:`IndexClient`) plus a blocking
    convenience wrapper (:class:`SyncIndexClient`).
"""

from repro.net.client import IndexClient, SyncIndexClient
from repro.net.protocol import (
    OP_DEL,
    OP_GET,
    OP_GET_MANY,
    OP_PUT,
    OP_PUT_MANY,
    OP_RANGE,
    OP_STATS,
    ProtocolError,
)
from repro.net.server import CommitFailed, IndexServer
from repro.net.sharded import (
    ShardedConfig,
    ShardedIndexError,
    ShardedSortednessAwareIndex,
    recover_sharded,
)

__all__ = [
    "CommitFailed",
    "IndexClient",
    "IndexServer",
    "ProtocolError",
    "ShardedConfig",
    "ShardedIndexError",
    "ShardedSortednessAwareIndex",
    "SyncIndexClient",
    "recover_sharded",
    "OP_PUT",
    "OP_GET",
    "OP_DEL",
    "OP_RANGE",
    "OP_PUT_MANY",
    "OP_GET_MANY",
    "OP_STATS",
]
