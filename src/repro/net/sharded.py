"""Range-partitioned sharding over :class:`SortednessAwareIndex`.

:class:`ShardedSortednessAwareIndex` owns N shards under one root
directory. Each shard is a full single-node durability stack — SWARE
index + its own write-ahead log + its own epoch-checkpoint store::

    root/
      MANIFEST.json            # shard map: [lower_bound, dir, config] rows
      shard-0000/
        wal.log
        checkpoint.db
      shard-0001/
        ...

**Routing.** The shard map is a sorted list of lower bounds; shard *i*
owns keys in ``[lower_i, lower_{i+1})`` (the first shard's lower bound is
-inf, the last shard extends to +inf). Point ops bisect the map; range
queries scatter to every shard whose assigned range overlaps, *clamping*
each per-shard scan to the shard's assigned range. The clamp is the
scatter-gather merge rule: assigned ranges are disjoint, so concatenating
the per-shard results in shard order yields a globally sorted result, and
buffered-version-wins semantics hold because each per-shard scan is the
single-node SWARE range path. Stale out-of-range entries (left behind by
a shard split that crashed before cleanup) are unreachable by
construction — routing never sends a moved key back to its old shard and
the clamp keeps it out of scans.

Every shard row carries its own ``SWAREConfig``: the initial shards take
``ShardedConfig.index_config``, a split shard inherits its donor's, and
recovery rebuilds each shard with the config its row records.

**Splits.** When a shard's live size crosses ``split_threshold``, it
splits at its median live key. Ordering makes the split crash-safe at
every step (the seeded crash harness in ``tests/test_sharded_crash.py``
walks the I/O boundaries):

1. flush the donor so its live set is entirely in the tree;
2. build the new shard (dir, WAL, index), move the upper half in through
   its WAL-logged write path, sync + checkpoint it;
3. commit the new manifest atomically (tmp + ``os.replace`` + dir fsync)
   — the new shard now owns its range;
4. only then delete the moved keys from the donor and checkpoint it.

A crash before (3) leaves the old manifest: the donor still owns and
holds everything. A crash after (3) leaves the moved keys owned by the
new shard; the donor's stale copies are unreachable (see the clamp).

**Group commit.** :meth:`commit` fsyncs every shard WAL holding records
past its durable watermark (none under ``fsync_policy="always"``, where
appends sync inline). The server acks writes only after the covering
commit — the ack-after-fsync invariant the crash harness pins. ``commit``
may run on a second thread while the owning thread keeps writing: it covers
what was appended before it started, and a lock keeps it apart from shard
splits and checkpoints, which reshape the shard list and truncate WALs.

**Observability.** Shards always run on ``NULL_OBS``, so their hot paths
stay dark whatever the index carries. An index given a real ``obs`` feeds
its monitor hub the arriving keys in arrival order at :meth:`put` /
:meth:`put_many`, and registers collectors for each shard's ``SWAREStats``
(``shard_<id>_*`` gauges) and their totals under the in-process names
(``sware_*``), so the health rules read a served index exactly like an
in-process one. Built without ``obs`` (the benchmark's shape), it
registers nothing and makes no hub call.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SWAREConfig
from repro.core.stats import SWAREStats
from repro.core.sware import SortednessAwareIndex
from repro.errors import ReproError
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage.pagefile import CheckpointStore, RecoveryReport
from repro.storage.pages import I64_MAX, I64_MIN, check_keys
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_POLICIES, WriteAheadLog, fsync_file

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1
WAL_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint.db"


class ShardedIndexError(ReproError):
    """Structural problems with a sharded root (bad manifest, bad config)."""


@dataclass(frozen=True)
class ShardedConfig:
    """Layout and policy knobs for a sharded index.

    ``initial_key_range`` seeds the boundaries of the initial shard map
    (evenly spaced); routing still covers the full key space because the
    edge shards extend to ±inf. ``split_threshold`` is the live-entry
    count at which a shard splits (0 disables splitting).
    """

    n_shards: int = 4
    split_threshold: int = 50_000
    fsync_policy: str = FSYNC_ALWAYS
    initial_key_range: Tuple[int, int] = (0, 1 << 20)
    index_config: SWAREConfig = field(default_factory=SWAREConfig)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ShardedIndexError("n_shards must be >= 1")
        if self.split_threshold < 0:
            raise ShardedIndexError("split_threshold must be >= 0")
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ShardedIndexError(f"unknown fsync policy {self.fsync_policy!r}")
        lo, hi = self.initial_key_range
        if lo >= hi:
            raise ShardedIndexError("initial_key_range must be (lo, hi) with lo < hi")


class _Shard:
    """One shard: its id, assigned lower bound, and durability stack."""

    __slots__ = (
        "shard_id", "lower", "dir", "index", "wal", "store", "config", "refused_at",
    )

    def __init__(self, shard_id, lower, directory, index, wal, store, config):
        self.shard_id = shard_id
        self.lower = lower  # None = -inf (the left edge shard)
        self.dir = directory
        self.index = index
        self.wal = wal
        self.store = store
        self.config = config
        # The tree's entry count after this shard last refused to split
        # (None: no refusal since it was built); see _maybe_split.
        self.refused_at = None


def _shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _needs_sync(shard: _Shard) -> bool:
    """Whether the shard's WAL holds records no completed fsync covers."""
    return shard.wal.durable_records < shard.wal.records


def _clamp_items(
    items: List[Tuple[int, object]], lower: Optional[int], upper: Optional[int]
) -> List[Tuple[int, object]]:
    """Keep only the entries inside the half-open assigned range [lower, upper)."""
    return [
        (key, value)
        for key, value in items
        if (lower is None or key >= lower) and (upper is None or key < upper)
    ]


class ShardedSortednessAwareIndex:
    """See module docstring."""

    def __init__(
        self,
        root: str,
        config: Optional[ShardedConfig] = None,
        backend_factory: Optional[Callable] = None,
        obs: Optional[Observability] = None,
        opener: Callable = open,
        replace: Optional[Callable] = None,
        _recovered_shards: Optional[List[_Shard]] = None,
        _next_shard_id: Optional[int] = None,
    ):
        self.root = root
        self.config = config or ShardedConfig()
        self.obs = obs if obs is not None else current_obs()
        # I/O indirection for the crash-injection harness (FaultyEnv).
        self._opener = opener
        self._replace = replace if replace is not None else os.replace
        if backend_factory is None:
            from repro.btree.btree import BPlusTree

            backend_factory = BPlusTree
        self._backend_factory = backend_factory
        # Keeps commit() (possibly on another thread) apart from splits and
        # checkpoints.
        self._commit_lock = threading.Lock()
        self.splits = 0
        self.scatter_queries = 0
        if _recovered_shards is not None:
            self._shards = _recovered_shards
            self._next_shard_id = (
                _next_shard_id
                if _next_shard_id is not None
                else max(s.shard_id for s in _recovered_shards) + 1
            )
        else:
            os.makedirs(root, exist_ok=True)
            if os.path.exists(os.path.join(root, MANIFEST_NAME)):
                raise ShardedIndexError(
                    f"{root} already holds a sharded index; use recover_sharded()"
                )
            self._shards = self._create_initial_shards()
            self._next_shard_id = len(self._shards)
            self._write_manifest()
        self._bounds = self._shard_bounds()
        #: The monitor hub fed the arriving keys, or None when monitoring is off.
        self._hub = self.obs.monitors
        if self.obs is not NULL_OBS:
            self.obs.register_collector("sharded", self._obs_snapshot)
            self.obs.register_collector("shard", self._shard_stats)
            self.obs.register_collector("sware", self._total_stats)

    # ------------------------------------------------------------------
    # bootstrap / manifest
    # ------------------------------------------------------------------
    def _create_initial_shards(self) -> List[_Shard]:
        n = self.config.n_shards
        lo, hi = self.config.initial_key_range
        span = hi - lo
        shards: List[_Shard] = []
        for i in range(n):
            # The left edge shard owns -inf; interior bounds split the
            # configured range evenly.
            lower = None if i == 0 else lo + (span * i) // n
            shards.append(self._make_shard(i, lower, self.config.index_config))
        return shards

    def _make_shard(self, shard_id: int, lower: Optional[int], cfg: SWAREConfig) -> _Shard:
        directory = os.path.join(self.root, _shard_dir_name(shard_id))
        os.makedirs(directory, exist_ok=True)
        wal = WriteAheadLog(
            os.path.join(directory, WAL_NAME),
            fsync_policy=self.config.fsync_policy,
            opener=self._opener,
            obs=NULL_OBS,  # per-shard WALs would collide on the collector name
        )
        store = CheckpointStore(
            os.path.join(directory, CHECKPOINT_NAME),
            opener=self._opener,
            replace=self._replace,
        )
        index = SortednessAwareIndex(
            self._backend_factory(), config=cfg, wal=wal, obs=NULL_OBS
        )
        return _Shard(shard_id, lower, directory, index, wal, store, cfg)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _write_manifest(self) -> None:
        doc = {
            "version": MANIFEST_VERSION,
            "next_shard_id": self._next_shard_id,
            "fsync_policy": self.config.fsync_policy,
            "split_threshold": self.config.split_threshold,
            "shards": [
                {
                    "id": shard.shard_id,
                    "lower": shard.lower,
                    "dir": _shard_dir_name(shard.shard_id),
                    "config": asdict(shard.config),
                }
                for shard in self._shards
            ],
        }
        tmp = self.manifest_path + ".tmp"
        with self._opener(tmp, "w") as fobj:
            fobj.write(json.dumps(doc, indent=2, sort_keys=True))
            fsync_file(fobj)
        self._replace(tmp, self.manifest_path)
        _fsync_dir(self.root)

    def _obs_snapshot(self) -> dict:
        return {
            "n_shards": float(len(self._shards)),
            "splits": float(self.splits),
            "scatter_queries": float(self.scatter_queries),
            "dirty_shards": float(sum(map(_needs_sync, self._shards))),
        }

    def _shard_stats(self) -> dict:
        return {
            f"{shard.shard_id}_{name}": value
            for shard in self._shards
            for name, value in shard.index.stats.snapshot().items()
        }

    def _total_stats(self) -> dict:
        total = SWAREStats()
        for shard in self._shards:
            for name, value in vars(shard.index.stats).items():
                if name != "extra":
                    setattr(total, name, getattr(total, name) + value)
        return total.snapshot()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _shard_bounds(self) -> List[int]:
        """The routing keys: every shard's lower bound but the -inf edge's.

        Cached as ``_bounds``; whatever reshapes ``_shards`` recomputes it.
        """
        return [s.lower for s in self._shards[1:]]

    def _route(self, key: int) -> _Shard:
        # self._shards is sorted by lower bound with shards[0].lower = -inf:
        # the owner is the right-most shard whose lower bound is <= key.
        return self._shards[bisect_right(self._bounds, key)]

    def _assigned_range(self, position: int) -> Tuple[Optional[int], Optional[int]]:
        """(lower, upper) of the shard at ``position``; None = unbounded."""
        lower = self._shards[position].lower
        upper = (
            self._shards[position + 1].lower
            if position + 1 < len(self._shards)
            else None
        )
        return lower, upper

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_map(self) -> List[Tuple[Optional[int], int]]:
        """The routing table: (lower_bound, shard_id) in shard order."""
        return [(s.lower, s.shard_id) for s in self._shards]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: int, value: object) -> None:
        shard = self._route(key)
        shard.index.insert(key, value)
        if self._hub is not None:
            self._hub.observe_insert(key, shard.index.buffer)
        self._maybe_split(shard)

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """Route a batch by shard, preserving the arrival order per shard.

        The routing pass checks the whole batch before any shard sees it:
        every shard refuses a None value or a key outside int64, and a
        refused batch must leave every shard as it was.
        """
        if not items:
            return
        per_shard: Dict[int, List[Tuple[int, object]]] = {}
        shards_by_id: Dict[int, _Shard] = {}
        for key, value in items:
            if not I64_MIN <= key <= I64_MAX:
                check_keys(key, key)
            if value is None:
                raise ValueError("None values are reserved for 'absent'")
            shard = self._route(key)
            per_shard.setdefault(shard.shard_id, []).append((key, value))
            shards_by_id[shard.shard_id] = shard
        for shard_id, chunk in per_shard.items():
            shards_by_id[shard_id].index.put_many(chunk)
        if self._hub is not None:
            # ``shard`` took the batch's last key: its buffer is the fill sample.
            self._hub.observe_inserts([key for key, _value in items], shard.index.buffer)
        for shard_id in list(per_shard):
            self._maybe_split(shards_by_id[shard_id])

    def delete(self, key: int) -> None:
        shard = self._route(key)
        shard.index.delete(key)

    def commit(self) -> int:
        """fsync every shard WAL with unsynced records; returns the number synced.

        The durability point for acknowledgements under
        ``fsync_policy="batch"``: a write is ack-safe only after a commit
        that *started* after it was applied. Under ``"always"`` appends
        sync inline, so no shard ever needs it. Thread-safe against
        concurrent writes (see module docstring).
        """
        synced = 0
        with self._commit_lock:
            for shard in self._shards:
                if _needs_sync(shard):
                    shard.wal.sync()
                    synced += 1
        return synced

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[object]:
        return self._route(key).index.get(key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Point lookups in input order: a loop of :meth:`get`, each key
        routed on its own."""
        get = self.get
        return [get(key) for key in keys]

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """Scatter-gather range scan (see module docstring for merge rules)."""
        if lo > hi:
            return []
        self.scatter_queries += 1
        out: List[Tuple[int, object]] = []
        with self.obs.span("sharded.range", lo=lo, hi=hi) as span:
            hit_shards = 0
            for position, shard in enumerate(self._shards):
                lower, upper = self._assigned_range(position)
                # Clamp to the assigned range: [max(lo, lower), min(hi, upper-1)].
                shard_lo = lo if lower is None else max(lo, lower)
                shard_hi = hi if upper is None else min(hi, upper - 1)
                if shard_lo > shard_hi:
                    continue
                hit_shards += 1
                with self.obs.span("sharded.shard_range", shard=shard.shard_id):
                    # Disjoint assigned ranges + in-shard buffered-version-
                    # wins => plain concatenation is the correct merge.
                    out.extend(shard.index.range_query(shard_lo, shard_hi))
            span.set(shards=hit_shards, results=len(out))
        return out

    def items(self) -> List[Tuple[int, object]]:
        out: List[Tuple[int, object]] = []
        for position, shard in enumerate(self._shards):
            # Clamp each shard's view to its assigned range. A crash between
            # the split's manifest commit and the donor cleanup leaves the
            # donor holding stale copies of the moved keys after recovery;
            # routing and range_query already exclude them, and the full
            # enumeration must too or those keys are reported twice.
            lower, upper = self._assigned_range(position)
            out.extend(_clamp_items(shard.index.items(), lower, upper))
        return out

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def _shard_size(self, shard: _Shard) -> int:
        backend = shard.index.backend
        tree_entries = getattr(backend, "n_entries", None)
        if tree_entries is None:
            # Backends without an entry counter: count the merged live view
            # (already includes the buffer).
            return len(shard.index.items())
        return tree_entries + len(shard.index.buffer)

    def _maybe_split(self, shard: _Shard) -> None:
        """Split ``shard`` once it holds ``split_threshold`` live keys.

        ``_shard_size`` is an upper bound on them, in which a buffered
        overwrite or tombstone counts again. A refused split leaves the tree
        holding exactly the live keys (drained, stale copies reclaimed),
        too few; until a flush changes the tree's count, the excess is
        buffered records and another drain would refuse again. So after a
        refusal the split waits for such a flush, which comes at the latest
        when the live keys outnumber that count by a full buffer."""
        threshold = self.config.split_threshold
        if not threshold or self._shard_size(shard) < threshold:
            return
        tree_entries = getattr(shard.index.backend, "n_entries", None)
        if tree_entries is not None and tree_entries == shard.refused_at:
            return
        with self._commit_lock:
            if not self._split_shard(shard, threshold):
                shard.refused_at = getattr(shard.index.backend, "n_entries", None)

    def _split_shard(self, shard: _Shard, min_live: int = 2) -> bool:
        """Split ``shard`` at its median live key if it holds at least
        ``min_live`` of them (crash-safe; see module docstring for the
        ordering argument); returns whether it split."""
        shard.index.flush_all()
        # Restrict to the shard's assigned range: stale out-of-range copies
        # (left by a crash-interrupted earlier split, see items()) must not
        # pull the median past the shard's upper bound — a boundary above it
        # would break the shard map's ordering invariant.
        position = next(
            i for i, s in enumerate(self._shards) if s.shard_id == shard.shard_id
        )
        lower, upper = self._assigned_range(position)
        items = shard.index.items()
        live = _clamp_items(items, lower, upper)
        if len(live) < max(2, min_live):
            # Too few live keys (one cannot split): wait for more data.
            if len(live) < len(items):
                # Reclaim the stale copies first; they are unreachable
                # already, and the tree then counts only live keys.
                reachable = {key for key, _value in live}
                for key, _value in items:
                    if key not in reachable:
                        shard.index.delete(key)
                shard.index.checkpoint(shard.store)
            return False
        median = live[len(live) // 2][0]
        if median == live[0][0]:
            return False  # all live keys equal; no boundary to cut
        moved = [(key, value) for key, value in live if key >= median]
        with self.obs.span(
            "sharded.split", shard=shard.shard_id, at=median, moved=len(moved)
        ):
            new_shard = self._make_shard(self._next_shard_id, median, shard.config)
            self._next_shard_id += 1
            new_shard.index.put_many(moved)
            new_shard.wal.sync()
            new_shard.index.checkpoint(new_shard.store)
            # Commit the route change before touching the donor: from here
            # on the moved keys are owned (and durably held) by new_shard.
            self._shards.insert(position + 1, new_shard)
            self._bounds = self._shard_bounds()
            self._write_manifest()
            self.splits += 1
            # Donor cleanup: the moved keys are unreachable already (routing
            # and the range clamp both exclude them); deleting them reclaims
            # space, and the checkpoint + WAL reset make the cleanup durable.
            for key, _value in moved:
                shard.index.delete(key)
            shard.index.checkpoint(shard.store)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def checkpoint_all(self) -> Dict[int, int]:
        """Checkpoint every shard (drain + save + WAL reset); pages per shard."""
        with self._commit_lock:
            return {
                shard.shard_id: shard.index.checkpoint(shard.store)
                for shard in self._shards
            }

    def close(self) -> None:
        for shard in self._shards:
            shard.wal.close()

    def __enter__(self) -> "ShardedSortednessAwareIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """The shard map and counters (what STATS returns). A shard's
        ``entries`` is the cheap upper bound on its live keys, tree entries
        plus buffered records, in which a buffered overwrite or tombstone
        counts again; a split decides on the live keys themselves."""
        return {
            "root": self.root,
            "n_shards": len(self._shards),
            "splits": self.splits,
            "scatter_queries": self.scatter_queries,
            "fsync_policy": self.config.fsync_policy,
            "shards": [
                {
                    "id": shard.shard_id,
                    "lower": shard.lower,
                    "entries": self._shard_size(shard),
                    "buffer_fill": len(shard.index.buffer)
                    / shard.index.buffer.capacity,
                    "wal_records": shard.wal.records,
                }
                for shard in self._shards
            ],
        }


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def read_manifest(root: str) -> dict:
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ShardedIndexError(f"no {MANIFEST_NAME} under {root}")
    try:
        with open(path) as fobj:
            doc = json.load(fobj)
    except (OSError, ValueError) as exc:
        raise ShardedIndexError(f"unreadable manifest: {exc!r}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise ShardedIndexError(f"unsupported manifest {doc.get('version')!r}")
    if not isinstance(doc.get("shards"), list) or not doc["shards"]:
        raise ShardedIndexError("manifest lists no shards")
    return doc


def recover_sharded(
    root: str,
    backend_factory: Optional[Callable] = None,
    obs: Optional[Observability] = None,
) -> Tuple[ShardedSortednessAwareIndex, Dict[int, RecoveryReport]]:
    """Rebuild a sharded index from its root directory after a crash.

    Per shard: the WAL is opened (one scan, which also truncates any torn
    tail), then stale checkpoint temp cleanup, checkpoint load and replay of
    that scan (the single-node :meth:`CheckpointStore.recover` contract with
    ``wal=``), which leaves the log attached so the shard resumes durable
    operation. Each ``wal.log`` is decoded once. Returns the index plus a
    per-shard-id :class:`RecoveryReport` map.
    """
    manifest = read_manifest(root)
    rows = sorted(
        manifest["shards"],
        key=lambda row: (row["lower"] is not None, row["lower"] or 0),
    )
    if rows[0]["lower"] is not None:
        raise ShardedIndexError("manifest has no -inf edge shard")
    shards: List[_Shard] = []
    reports: Dict[int, RecoveryReport] = {}
    wals: List[WriteAheadLog] = []
    try:
        for row in rows:
            directory = os.path.join(root, row["dir"])
            config = dict(row["config"])
            # Retired knobs of older manifests: the Bloom hash and the
            # billed sort's cutoffs. Neither filters nor bills are persisted,
            # so every value recovers the same.
            for retired in ("hash_family", "kl_k_threshold", "kl_l_threshold"):
                config.pop(retired, None)
            try:
                cfg = SWAREConfig(**config)
            except TypeError as exc:
                raise ShardedIndexError(
                    f"shard {row['id']} config malformed: {exc}"
                ) from exc
            store = CheckpointStore(os.path.join(directory, CHECKPOINT_NAME))
            # Opening the log scans it once; recovery replays that scan.
            wal = WriteAheadLog(
                os.path.join(directory, WAL_NAME),
                fsync_policy=manifest.get("fsync_policy", FSYNC_ALWAYS),
                obs=NULL_OBS,
            )
            wals.append(wal)
            index, report = store.recover(
                wal=wal, config=cfg, backend_factory=backend_factory
            )
            shards.append(_Shard(row["id"], row["lower"], directory, index, wal, store, cfg))
            reports[row["id"]] = report
    except BaseException:
        for wal in wals:
            wal.close()
        raise
    config = ShardedConfig(
        n_shards=len(shards),
        split_threshold=manifest.get("split_threshold", 0),
        fsync_policy=manifest.get("fsync_policy", FSYNC_ALWAYS),
    )
    sharded = ShardedSortednessAwareIndex(
        root,
        config=config,
        backend_factory=backend_factory,
        obs=obs,
        _recovered_shards=shards,
        _next_shard_id=manifest.get("next_shard_id"),
    )
    return sharded, reports
