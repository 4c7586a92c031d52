"""The sortedness-aware index: SWARE applied to a tree backend (§IV).

:class:`SortednessAwareIndex` wraps any tree satisfying the
:class:`TreeBackend` protocol (this repository ships a B+-tree and a
Bε-tree) with the SWARE-buffer:

* inserts are intercepted by the buffer; a full buffer triggers a flush
  cycle whose batch is split into an opportunistic **bulk load** (keys above
  the tree's maximum) and **top-inserts** through the root;
* point lookups follow Fig. 6's optimized read path — buffer Zonemap, then
  the unsorted tail (BF/Zonemap gated), query-sorted blocks and the sorted
  section (interpolation search), then the tree;
* reads trigger query-driven partial sorting of the tail (§IV-C);
* deletes become buffer tombstones when the key is within the buffer's
  range, applied to the tree at flush time (§IV-D).

Each write is one private step (``_insert``, ``_delete``, ``_put_many``)
that owns its WAL append, its counters and its monitor feed; each read is
the query-sort trigger (``_maybe_query_sort``) followed by a trigger-free
body (``_get``, ``_get_many``, ``_range_query``, ``_items``).
:class:`~repro.core.concurrent.ConcurrentSortednessAwareIndex` brackets
these same steps with the §IV-D locks.

Values must not be ``None`` — the library reserves ``None`` for "absent".
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro import kernels
from repro.core.buffer import DELETED, HIT, TOMBSTONE, FlushBatch, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.stats import SWAREStats
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, Observability, current_obs
from repro.storage.costmodel import Meter, NULL_METER
from repro.storage.wal import WriteAheadLog

#: Where :meth:`SortednessAwareIndex._route` sends a write: straight into the
#: tree, into the buffer, or into the buffer with the flush that fills it.
DIRECT, APPEND, FLUSH = "direct", "append", "flush"


@runtime_checkable
class TreeBackend(Protocol):
    """The tree interface SWARE requires (satisfied by BPlusTree and BeTree)."""

    meter: Meter

    def insert(self, key: int, value: object): ...

    def delete(self, key: int): ...

    def get(self, key: int) -> Optional[object]: ...

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]: ...

    def bulk_load_append(self, items): ...

    @property
    def max_key(self) -> Optional[int]: ...

    @property
    def min_key(self) -> Optional[int]: ...


class SortednessAwareIndex:
    """See module docstring."""

    def __init__(
        self,
        backend: TreeBackend,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        obs: Optional[Observability] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.config = config or SWAREConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = obs if obs is not None else current_obs()
        #: Optional write-ahead log: every put/delete is appended (and,
        #: under the default policy, fsynced) *before* it enters the
        #: volatile buffer, making acknowledged writes crash-durable.
        self.wal = wal
        self.stats = SWAREStats()
        self.backend = backend
        if backend.meter is NULL_METER and self.meter is not NULL_METER:
            backend.meter = self.meter
        self.buffer = SWAREBuffer(
            self.config, meter=self.meter, stats=self.stats, obs=self.obs
        )
        if self.obs is not NULL_OBS:
            self.obs.register_collector("sware", self.stats.snapshot)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> None:
        """Buffer an upsert; flushes a batch into the tree when full.

        The span roots a causal trace: a flush cycle triggered here (and
        every sort, routing decision and WAL append inside it) chains back
        to this put via ``parent_id``/``trace_id``.
        """
        if value is None:
            raise ValueError("None values are reserved for 'absent'")
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.put", key=key):
                self._insert(key, value)
        else:
            self._insert(key, value)

    def _insert(self, key: int, value: object) -> None:
        """The put step: log, count, append and feed the monitor, then flush
        if the append filled the buffer (:meth:`_route`'s ``FLUSH``)."""
        if self.wal is not None:
            self.wal.append_put(key, value)
        self.stats.inserts += 1
        buffer = self.buffer
        buffer.add(key, value)
        hub = self.obs.monitors
        if hub is not None:
            hub.observe_insert(key, buffer)
        if buffer.is_full:
            self._flush_cycle()

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """Buffer a batch of upserts; observably identical to a loop of
        :meth:`insert` (same flush boundaries, stats, meter charges) but
        amortized through :meth:`SWAREBuffer.add_many`.

        The batch is chunked by the buffer's remaining capacity, so a flush
        cycle triggers exactly where the sequential loop would have filled
        the buffer.
        """
        for _key, value in items:
            if value is None:
                raise ValueError("None values are reserved for 'absent'")
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.put_many", n=len(items)):
                self._put_many(items)
        else:
            self._put_many(items)

    def _put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """The batch step: one WAL frame, then capacity-sized chunks, each
        flushing if it filled the buffer."""
        if self.wal is not None:
            self.wal.append_puts(items)
        buffer = self.buffer
        hub = self.obs.monitors
        n = len(items)
        i = 0
        while i < n:
            space = buffer.capacity - len(buffer)
            if space <= 0:
                self._flush_cycle()
                continue
            chunk = items[i : i + space]
            self.stats.inserts += len(chunk)
            buffer.add_many(chunk)
            if hub is not None:
                hub.observe_inserts([key for key, _value in chunk], buffer)
            i += len(chunk)
            if buffer.is_full:
                self._flush_cycle()

    def delete(self, key: int) -> None:
        """Delete via a buffered tombstone or directly in the tree (§IV-D)."""
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.delete", key=key):
                self._delete(key)
        else:
            self._delete(key)

    def _route(self, key: int, tombstone: bool, pending: int = 0) -> str:
        """Where a write goes: ``DIRECT`` for a tombstone whose key the
        buffer cannot hold (deleted from the tree now), else ``APPEND``, or
        ``FLUSH`` when the append fills the buffer. ``pending`` counts appends
        already admitted but not yet made."""
        buffer = self.buffer
        if tombstone and (buffer.is_empty or not buffer.zonemap.may_contain(key)):
            return DIRECT
        return FLUSH if len(buffer) + pending + 1 >= buffer.capacity else APPEND

    def _delete(self, key: int) -> None:
        """The delete step: log and count, then a direct tree delete or a
        buffered tombstone (flushing if it filled the buffer)."""
        if self.wal is not None:
            self.wal.append_delete(key)
        self.stats.deletes += 1
        if self._route(key, tombstone=True) == DIRECT:
            with self.meter.bucket("top_insert"):
                self.backend.delete(key)
            return
        self.buffer.add(key, None, tombstone=True)
        self.stats.tombstones_buffered += 1
        if self.buffer.is_full:
            self._flush_cycle()

    def flush_all(self) -> None:
        """Drain the entire buffer into the tree (end-of-ingest helper)."""
        if self.buffer.is_empty:
            return
        with self.obs.span("sware.drain") as span:
            with self.meter.bucket("sort"):
                batch = self.buffer.drain()
            span.set(entries=len(batch.run.keys))
            self._apply_batch(batch)

    def checkpoint(self, store) -> int:
        """Atomically checkpoint through ``store`` and truncate the WAL.

        The ordering is the durability contract: the buffer drains into the
        tree, the tree is committed atomically (temp file + rename), and
        only then is the WAL reset — so at every instant, checkpoint + WAL
        tail together cover every acknowledged write. Returns the number of
        pages written.
        """
        with self.obs.span("sware.checkpoint") as span:
            pages = store.save_index(self)
            if self.wal is not None:
                self.wal.reset()
            span.set(pages=pages, epoch=store.last_epoch)
        return pages

    def _flush_cycle(self) -> None:
        hub = self.obs.monitors
        expected_fpr: Optional[float] = None
        if (
            hub is not None
            and self.buffer.global_bf is not None
            and self.buffer.tail_size
        ):
            # Sampled before prepare_flush resets the filter: its FPR at the load
            # the flushed epoch ran it with (the whole tail; the filter is lazy).
            expected_fpr = self.buffer.global_bf.expected_fpr(self.buffer.tail_size)
        with self.obs.span("sware.flush_cycle") as span:
            with self.meter.bucket("sort"):
                batch = self.buffer.prepare_flush()
            span.set(
                entries=len(batch.run.keys),
                effortless=batch.sorted_without_effort,
                sort_algorithm=batch.sort_algorithm,
                retained=batch.retained,
            )
            self._apply_batch(batch)
        if hub is not None:
            hub.observe_flush(
                entries=len(batch.run.keys),
                retained=batch.retained,
                effortless=batch.sorted_without_effort,
                expected_fpr=expected_fpr,
            )
        self.obs.observe_hist(
            "sware_flush_entries", len(batch.run.keys), buckets=DEFAULT_SIZE_BUCKETS
        )

    def _apply_batch(self, batch: FlushBatch) -> None:
        """Dedup a flush batch and route it to bulk load / top-inserts."""
        if not batch.run.keys:
            return
        # The columns arrive sorted by (key, seq): the last slot of each key
        # run is the newest version and the only one the tree needs to see.
        run = batch.run
        keys, values = kernels.dedup_last(run.col, run.vals)
        # Trees store Python ints: without duplicates these are the buffer's
        # own key objects, so the flush allocates no new ones.
        keys = run.keys if values is run.vals else kernels.as_list(keys)
        tree_max = self.backend.max_key
        cut = 0 if tree_max is None else bisect_right(keys, tree_max)

        if cut:
            backend = self.backend
            stats = self.stats
            with self.meter.bucket("top_insert"):
                for key, value in zip(keys[:cut], values):
                    if value is DELETED:
                        # Backends that report deletion (the B+-tree returns
                        # False for an absent key) let us split real deletions
                        # from no-ops; message-based backends (Bε-tree, LSM)
                        # return None and count as applied.
                        if backend.delete(key) is False:
                            stats.tombstones_noop += 1
                        else:
                            stats.tombstones_applied += 1
                    else:
                        backend.insert(key, value)
                        stats.top_inserted_entries += 1

        bulk_keys, bulk_values = keys[cut:], values[cut:]
        n_beyond = len(bulk_values)
        if batch.tombstones and DELETED in bulk_values:
            live = [i for i, value in enumerate(bulk_values) if value is not DELETED]
            bulk_keys = kernels.gather(bulk_keys, live)
            bulk_values = kernels.gather(bulk_values, live)
        n_bulk = len(bulk_values)
        self.stats.tombstones_dropped += n_beyond - n_bulk
        if n_bulk:
            with self.meter.bucket("bulk_load"):
                self.backend.bulk_load_append(kernels.ItemColumns(bulk_keys, bulk_values))
            self.stats.bulk_loaded_entries += n_bulk
        obs = self.obs
        if obs.enabled:
            obs.event(
                "sware.batch_routed",
                bulk=n_bulk,
                top=cut,
                tombstones_dropped=n_beyond - n_bulk,
            )
        obs.observe_hist(
            "sware_bulk_load_entries", n_bulk, buckets=DEFAULT_SIZE_BUCKETS
        )
        obs.observe_hist(
            "sware_top_insert_entries", cut, buckets=DEFAULT_SIZE_BUCKETS
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _maybe_query_sort(self) -> None:
        """Fire the query-driven sort trigger (§IV-C) if the tail warrants.

        This is the *only* place the trigger fires and the ``sware_ops``
        sort charge is metered. Every public read fires it once per call,
        then runs its trigger-free body, so batch accounting matches a
        sequential loop (the loop's per-op re-check is a constant False
        after the first trigger empties the tail).
        """
        if self.buffer.should_query_sort():
            with self.meter.bucket("sware_ops"):
                self.buffer.query_sort()

    def get(self, key: int) -> Optional[object]:
        """Point lookup along the optimized read path (Fig. 6)."""
        buffer = self.buffer
        if len(buffer._tail_keys) >= buffer.query_sort_at:
            self._maybe_query_sort()
        return self._get(key)

    def _get(self, key: int) -> Optional[object]:
        """:meth:`get` without the query-sort trigger."""
        self.stats.lookups += 1
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.get", key=key):
                return self._lookup(key)
        return self._lookup(key)

    def _lookup(self, key: int) -> Optional[object]:
        buffer = self.buffer
        meter = self.meter
        zonemap = buffer.zonemap
        low = zonemap.min_key
        if self.config.enable_read_zonemaps and (
            low is None or key < low or key > zonemap.max_key
        ):
            # Not buffered — the common GET on a near-sorted stream. This is
            # ``buffer.lookup``'s Zonemap rejection without the calls: same
            # charge in the same bucket, same counter.
            if meter is not NULL_METER:
                with meter.bucket("buffer_search"):
                    meter.charge("zonemap_check")
            self.stats.buffer_skips_by_zonemap += 1
        else:
            with meter.bucket("buffer_search"):
                state, value = buffer.lookup(key)
            if state == HIT:
                self.stats.buffer_hits += 1
                return value
            if state == TOMBSTONE:
                self.stats.buffer_tombstone_hits += 1
                return None
        with meter.bucket("tree_search"):
            meter.charge("zonemap_check")
            tree_min, tree_max = self.backend.min_key, self.backend.max_key
            if tree_min is None or key < tree_min or key > tree_max:
                return None
            self.stats.tree_searches += 1
            return self.backend.get(key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Batch point lookups along the same read path as :meth:`get`.

        Returns one value (or ``None``) per input key, in input order. The
        query-sort trigger is evaluated once — reads do not change the tail,
        so the per-op check of the sequential loop is a constant after the
        first lookup — and buffer misses are forwarded to the backend's
        ``get_many`` (one leaf descent per run of keys sharing a leaf on the
        B+-tree) when it has one.
        """
        if not keys:
            # A zero-key batch must be a no-op: a sequential loop of zero
            # gets never evaluates the trigger, so firing it here would
            # mutate the buffer and charge sware_ops with no reads at all.
            return []
        self._maybe_query_sort()
        return self._get_many(keys)

    def _get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """:meth:`get_many` without the query-sort trigger."""
        n = len(keys)
        self.stats.lookups += n
        with self.obs.span("sware.get_many", n=n):
            results: List[Optional[object]] = [None] * n
            miss_positions: List[int] = []
            miss_keys: List[int] = []
            stats = self.stats
            lookup = self.buffer.lookup
            with self.meter.bucket("buffer_search"):
                for i, key in enumerate(keys):
                    state, value = lookup(key)
                    if state == HIT:
                        stats.buffer_hits += 1
                        results[i] = value
                    elif state == TOMBSTONE:
                        stats.buffer_tombstone_hits += 1
                    else:
                        miss_positions.append(i)
                        miss_keys.append(key)
            if miss_keys:
                with self.meter.bucket("tree_search"):
                    self.meter.charge("zonemap_check", len(miss_keys))
                    tree_min, tree_max = self.backend.min_key, self.backend.max_key
                    if tree_min is not None:
                        in_positions: List[int] = []
                        in_keys: List[int] = []
                        for i, key in zip(miss_positions, miss_keys):
                            if tree_min <= key <= tree_max:
                                in_positions.append(i)
                                in_keys.append(key)
                        stats.tree_searches += len(in_keys)
                        batch_get = getattr(self.backend, "get_many", None)
                        if batch_get is not None:
                            for i, value in zip(in_positions, batch_get(in_keys)):
                                results[i] = value
                        else:
                            get = self.backend.get
                            for i, key in zip(in_positions, in_keys):
                                results[i] = get(key)
            return results

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_many(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> List[List[Tuple[int, object]]]:
        """Batch range queries: one result list per ``(lo, hi)`` pair.

        The query-sort trigger fires at most once for the whole batch (reads
        leave the tail untouched, and an empty batch fires nothing), then
        each range follows the sequential :meth:`range_query` path minus its
        already-spent trigger check.
        """
        if not ranges:
            return []
        self._maybe_query_sort()
        return [self._range_query(lo, hi) for lo, hi in ranges]

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All live (key, value) in [lo, hi]; buffered versions win."""
        self._maybe_query_sort()
        return self._range_query(lo, hi)

    def _range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """:meth:`range_query` without the query-sort trigger."""
        self.stats.range_queries += 1
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.range_query", lo=lo, hi=hi):
                return self._range_scan(lo, hi)
        return self._range_scan(lo, hi)

    def _range_scan(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        with self.meter.bucket("buffer_search"):
            resolved, n_entries = self.buffer.range_run(lo, hi)
        with self.meter.bucket("tree_search"):
            rows = self.backend.range_query(lo, hi)
        # Reconciling buffered versions against the tree scan costs one merge
        # step per buffered candidate (the tree entries were already charged
        # as scan_entry by the backend's range scan).
        self.meter.charge("merge_step", n_entries)
        if not resolved:
            return rows
        rows = [row for row in rows if row[0] not in resolved]
        rows.extend(item for item in resolved.items() if item[1] is not DELETED)
        rows.sort(key=itemgetter(0))  # keys are unique
        return rows

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Tuple[int, object]]:
        """All live entries (test/debug helper; full range query).

        Scan bounds are the union of the buffer zonemap and the backend
        watermarks. Both are *supersets* of the live key range by contract:
        the zonemap resets only on a full drain and otherwise covers every
        buffered entry, and backend ``min_key``/``max_key`` never shrink on
        deletes (see ``BPlusTree.delete``). A stale bound therefore only
        widens the scan — it can never clip a live key. Pinned by the
        ``items-*`` programs of ``tests/test_oracle.py``.
        """
        self._maybe_query_sort()
        return self._items()

    def _items(self) -> List[Tuple[int, object]]:
        """:meth:`items` without the query-sort trigger."""
        lows = [v for v in (self.buffer.zonemap.min_key, self.backend.min_key) if v is not None]
        highs = [v for v in (self.buffer.zonemap.max_key, self.backend.max_key) if v is not None]
        if not lows or not highs:
            # Bounds come in min/max pairs, so one side empty means the
            # other is too (no buffered entries and no backend watermark) —
            # guarded explicitly so a half-set source fails closed instead
            # of raising on max([]).
            return []
        return self._range_query(min(lows), max(highs))

    def describe(self) -> dict:
        """A structured status snapshot for reports and examples."""
        return {
            "buffer": self.buffer.component_sizes(),
            "buffer_fill": len(self.buffer) / self.buffer.capacity,
            "stats": self.stats.snapshot(),
        }
