"""The sortedness-aware index: SWARE applied to a tree backend (§IV).

:class:`SortednessAwareIndex` wraps any tree satisfying the
:class:`TreeBackend` protocol (this repository ships three: the B+-tree,
the Bε-tree and the LSM-tree) with the SWARE-buffer:

* inserts are intercepted by the buffer; a full buffer triggers a flush
  cycle whose batch is split into an opportunistic **bulk load** (keys above
  the tree's maximum) and **top-inserts** through the root;
* point lookups follow Fig. 6's optimized read path — buffer Zonemap, then
  the tail (a hash lookup), the sorted section (bisected), then the tree;
* reads trigger query-driven partial sorting of the tail (§IV-C);
* deletes become buffer tombstones when the key is within the buffer's
  range, applied to the tree at flush time (§IV-D).

An untraced PUT is one frame (``insert``: WAL append, counter, buffer
append, monitor feed, and a flush when ``add`` reports the buffer full);
each other write is one private step (``_delete``, ``_put_many``) that owns
its WAL append, its counters and its monitor feed; each read
fires the query-sort trigger (``_maybe_query_sort``) once, then reads. The
batch verbs are the two a request reaches: ``put_many`` and ``get_many``.
:class:`~repro.core.concurrent.ConcurrentSortednessAwareIndex` runs these
public methods under one mutex.

:class:`SortednessAwareIndex` is what runs: it bills nothing, so an
untraced GET is one frame over Fig. 6's checks and the tree descent, and
an untraced PUT one frame over the append.
Constructed with a meter it is a :class:`MeteredSortednessAwareIndex`, which
alone bills: it runs each step in its meter bucket, hands its meter to an
unmetered backend (an executed B+-tree becomes a
:class:`~repro.btree.btree.MeteredBPlusTree`) and builds the
:class:`~repro.core.buffer.MeteredSWAREBuffer`.

Values must not be ``None`` — the library reserves ``None`` for "absent".
Keys are int64: a write of any other raises
:class:`~repro.errors.KeyRangeError` before it changes anything; a read
of one misses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro import kernels
from repro.btree.btree import BPlusTree, MeteredBPlusTree
from repro.core.buffer import DELETED, HIT, TOMBSTONE, FlushBatch, MeteredSWAREBuffer, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.stats import SWAREStats
from repro.filters.bloom import theoretical_fpr
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, Observability, current_obs
from repro.storage.costmodel import Meter, NULL_METER
from repro.storage.pages import I64_MAX, I64_MIN, check_keys
from repro.storage.wal import WriteAheadLog

@runtime_checkable
class TreeBackend(Protocol):
    """The tree interface SWARE requires (satisfied by all three registry trees).

    ``get_many`` is the one optional batch method SWARE uses, and only when
    it bills: a metered index hands a backend that has it (the metered
    B+-tree's batch descent) a batch's buffer misses in one call, and loops
    any other over ``get``. The key watermarks ``min_key`` /
    ``max_key`` (``None`` while empty) may be plain attributes (the B+-tree)
    or properties (the Bε-tree, the LSM-tree). ``range_query`` returns a
    new list on every call, which its caller owns: SWARE overlays the
    buffered versions onto it in place.
    """

    meter: Meter
    min_key: Optional[int]
    max_key: Optional[int]

    def insert(self, key: int, value: object): ...

    def delete(self, key: int): ...

    def get(self, key: int) -> Optional[object]: ...

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]: ...

    def bulk_load_append(self, items): ...


class SortednessAwareIndex:
    """See module docstring; given a ``meter``, the constructor builds a
    :class:`MeteredSortednessAwareIndex`."""

    meter: Meter = NULL_METER

    def __new__(cls, backend, config=None, meter: Optional[Meter] = None, *args, **kwargs):
        if cls is SortednessAwareIndex and meter is not None and meter is not NULL_METER:
            cls = MeteredSortednessAwareIndex
        return super().__new__(cls)

    def __init__(
        self,
        backend: TreeBackend,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        obs: Optional[Observability] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.config = config or SWAREConfig()
        self.obs = obs if obs is not None else current_obs()
        #: Optional write-ahead log: every put/delete is appended (and,
        #: under the default policy, fsynced) *before* it enters the
        #: volatile buffer, making acknowledged writes crash-durable.
        self.wal = wal
        self.stats = SWAREStats()
        self.backend = backend
        self.buffer = self._new_buffer()
        if self.obs is not NULL_OBS:
            self.obs.register_collector("sware", self.stats.snapshot)

    def _new_buffer(self) -> SWAREBuffer:
        return SWAREBuffer(self.config, stats=self.stats, obs=self.obs)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object, _traced: bool = False) -> None:
        """Buffer an upsert, in one frame: log, append, count and feed the
        monitor, then flush if the append filled the buffer (the WAL or the
        append refuses a key outside int64). With tracing on
        it calls itself once inside the ``sware.put`` span (``_traced``), the
        root of a causal trace: a flush cycle triggered here (and every sort,
        routing decision and WAL append inside it) chains back to this put
        via ``parent_id``/``trace_id``.
        """
        if value is None:
            raise ValueError("None values are reserved for 'absent'")
        obs = self.obs
        if obs.enabled and not _traced:
            with obs.span("sware.put", key=key):
                return self.insert(key, value, True)
        if self.wal is not None:
            self.wal.append_put(key, value)
        buffer = self.buffer
        full = buffer.add(key, value)
        self.stats.inserts += 1
        hub = obs.monitors
        if hub is not None:
            hub.observe_insert(key, buffer)
        if full:
            self._flush_cycle()

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """Buffer a batch of upserts; observably identical to a loop of
        :meth:`insert` (same flush boundaries, stats, meter charges) but
        amortized through :meth:`SWAREBuffer.add_many`.

        The batch is chunked by the buffer's remaining capacity, so a flush
        cycle triggers exactly where the sequential loop would have filled
        the buffer. The whole batch is checked first: a refused one leaves
        nothing behind.
        """
        for key, value in items:
            if not I64_MIN <= key <= I64_MAX:
                check_keys(key, key)
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
        check_keys(key, key)
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.delete", key=key):
                self._delete(key)
        else:
            self._delete(key)

    def _delete(self, key: int) -> None:
        """The delete step: log and count, then a direct tree delete when the
        buffer cannot hold the key, else a buffered tombstone (flushing if it
        filled the buffer)."""
        if self.wal is not None:
            self.wal.append_delete(key)
        self.stats.deletes += 1
        buffer = self.buffer
        if buffer.is_empty or not buffer.zonemap.may_contain(key):
            self.backend.delete(key)
            return
        full = buffer.add(key, None, tombstone=True)
        self.stats.tombstones_buffered += 1
        if full:
            self._flush_cycle()

    def flush_all(self) -> None:
        """Drain the entire buffer into the tree (end-of-ingest helper)."""
        if self.buffer.is_empty:
            return
        with self.obs.span("sware.drain") as span:
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
        config = self.config
        if hub is not None and config.enable_global_bf and self.buffer.tail_size:
            # Sampled before prepare_flush empties the tail: the global filter's
            # FPR at the load the flushed epoch ran it with (the open segment),
            # from the configured geometry, whether or not a filter was built.
            expected_fpr = theoretical_fpr(
                config.buffer_capacity, config.bits_per_entry, self.buffer.tail_size
            )
        with self.obs.span("sware.flush_cycle") as span:
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
            self._top_insert(keys[:cut], values, batch.tombstones)

        bulk_keys, bulk_values = keys[cut:], values[cut:]
        n_beyond = len(bulk_values)
        if batch.tombstones and DELETED in bulk_values:
            live = [i for i, value in enumerate(bulk_values) if value is not DELETED]
            bulk_keys = kernels.gather(bulk_keys, live)
            bulk_values = kernels.gather(bulk_values, live)
        n_bulk = len(bulk_values)
        self.stats.tombstones_dropped += n_beyond - n_bulk
        if n_bulk:
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

    def _top_insert(self, keys: Sequence[int], values: Sequence[object], tombstones: int) -> None:
        """Route a batch's keys at or below the tree's maximum through the
        root, in key order: each run of live entries between tombstones in
        one ``insert_sorted`` (a loop of ``insert`` on a backend without
        it), each tombstone a ``delete``. ``tombstones`` counts the whole
        batch's; none means one run."""
        backend = self.backend
        stats = self.stats
        insert_sorted = getattr(backend, "insert_sorted", None)
        if insert_sorted is None:
            insert = backend.insert

            def insert_sorted(run_keys, run_values):
                for key, value in zip(run_keys, run_values):
                    insert(key, value)

        n = len(keys)
        stops = [i for i in range(n) if values[i] is DELETED] if tombstones else []
        start = 0
        for stop in stops + [n]:
            if stop > start:
                insert_sorted(keys[start:stop], values[start:stop])
                stats.top_inserted_entries += stop - start
            if stop < n:
                # Backends that report deletion (the B+-tree returns False
                # for an absent key) let us split real deletions from
                # no-ops; message-based backends (Bε-tree, LSM) return None
                # and count as applied.
                if backend.delete(keys[stop]) is False:
                    stats.tombstones_noop += 1
                else:
                    stats.tombstones_applied += 1
            start = stop + 1

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _maybe_query_sort(self) -> None:
        """Fire the query-driven sort trigger (§IV-C) if the tail warrants.

        This is the *only* place the trigger fires. Every public read fires
        it once per call, before it reads, so batch accounting matches a
        sequential loop (the loop's per-op re-check is a constant False after
        the first trigger empties the tail).
        """
        if self.buffer.should_query_sort():
            self.buffer.query_sort()

    def get(self, key: int, _traced: bool = False) -> Optional[object]:
        """Point lookup along the optimized read path (Fig. 6), in one frame.
        With tracing on it calls itself once inside the ``sware.get`` span
        (``_traced``), where the trigger, checked already, stays off."""
        buffer = self.buffer
        if len(buffer._tail_keys) >= buffer._query_sort_len:
            self._maybe_query_sort()
        obs = self.obs
        if obs.enabled and not _traced:
            with obs.span("sware.get", key=key):
                return self.get(key, True)
        stats = self.stats
        stats.lookups += 1
        zonemap = buffer.zonemap
        low = zonemap.min_key
        if self.config.enable_read_zonemaps and (
            low is None or key < low or key > zonemap.max_key
        ):
            # Not buffered — the common GET on a near-sorted stream. This is
            # ``buffer.lookup``'s Zonemap rejection without the call.
            stats.buffer_skips_by_zonemap += 1
        else:
            state, value = buffer.lookup(key)
            if state == HIT:
                stats.buffer_hits += 1
                return value
            if state == TOMBSTONE:
                stats.buffer_tombstone_hits += 1
                return None
        backend = self.backend
        tree_min = backend.min_key
        if tree_min is None or key < tree_min or key > backend.max_key:
            return None
        stats.tree_searches += 1
        return backend.get(key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Batch point lookups, one value (or ``None``) per key in input
        order: a loop of :meth:`get` in one ``sware.get_many`` span. The
        query-sort trigger is evaluated once, before the span — reads do not
        change the tail, so each later check is a constant False."""
        if not keys:
            # A zero-key batch must be a no-op: a sequential loop of zero
            # gets never evaluates the trigger, so firing it here would
            # mutate the buffer and charge sware_ops with no reads at all.
            return []
        self._maybe_query_sort()
        with self.obs.span("sware.get_many", n=len(keys)):
            get = self.get
            return [get(key, True) for key in keys]

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All live (key, value) in [lo, hi]; buffered versions win."""
        if lo > hi:
            # An empty range reads nothing: it fires no trigger and bills no
            # tail sort.
            return []
        self._maybe_query_sort()
        self.stats.range_queries += 1
        obs = self.obs
        if obs.enabled:
            with obs.span("sware.range_query", lo=lo, hi=hi):
                return self._range_scan(lo, hi)
        return self._range_scan(lo, hi)

    def _range_scan(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        resolved, _n_entries = self.buffer.range_run(lo, hi)
        return self._merge_versions(resolved, self.backend.range_query(lo, hi))

    def _merge_versions(self, resolved: dict, rows: list) -> List[Tuple[int, object]]:
        """The tree's ``rows`` (a list the backend handed over) with the
        buffered versions merged in (a buffered version shadows an equal
        tree key), tombstones dropped. A probe ``(key,)`` sorts before every
        ``(key, value)``, so no value is compared."""
        if not resolved:
            return rows
        # Each row the overlay inserts or deletes shifts the rows above it, so
        # its cost grows with k versions times the rows; the linear merge
        # copies each row once and takes the versions in runs. Measured on
        # CPython 3.11 over 16 to 64k rows, the overlay is the cheaper up to
        # about 100 versions, and no longer once they outnumber the rows.
        if len(resolved) <= min(64, len(rows)):
            # Right to left, so a shift never moves a row still to be probed.
            hi = len(rows)
            for key in sorted(resolved, reverse=True):
                value = resolved[key]
                i = bisect_left(rows, (key,), 0, hi)
                if i < hi and rows[i][0] == key:
                    if value is DELETED:
                        del rows[i]
                    else:
                        rows[i] = (key, value)
                elif value is not DELETED:
                    rows.insert(i, (key, value))
                hi = i
            return rows
        # Merge a run at a time: the tree rows below the next buffered key,
        # then the buffered keys below the next tree key, each one slice.
        items = sorted(resolved.items())
        out: List[Tuple[int, object]] = []
        i = j = 0
        n_rows, n_items = len(rows), len(items)
        while j < n_items:
            key = items[j][0]
            k = bisect_left(rows, (key,), i)
            out += rows[i:k]
            i = k + 1 if k < n_rows and rows[k][0] == key else k
            stop = bisect_left(items, (rows[i][0],), j + 1) if i < n_rows else n_items
            out += items[j:stop]
            j = stop
        out += rows[i:]
        if self.buffer._tombstones:
            out = [row for row in out if row[1] is not DELETED]
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Tuple[int, object]]:
        """All live entries (test/debug helper; full range query).

        Scan bounds are the union of the buffer zonemap and the backend
        watermarks. Both are *supersets* of the live key range by contract:
        the zonemap resets only on a full drain and otherwise covers every
        buffered entry, and backend ``min_key``/``max_key`` never shrink on
        deletes (see ``BPlusTree``). A stale bound therefore only
        widens the scan — it can never clip a live key. Pinned by the
        ``items-*`` programs of ``tests/test_oracle.py``.
        """
        lows = [v for v in (self.buffer.zonemap.min_key, self.backend.min_key) if v is not None]
        highs = [v for v in (self.buffer.zonemap.max_key, self.backend.max_key) if v is not None]
        if not lows or not highs:
            # Bounds come in min/max pairs, so one side empty means the
            # other is too (no buffered entries and no backend watermark) —
            # guarded explicitly so a half-set source fails closed instead
            # of raising on max([]).
            return []
        return self.range_query(min(lows), max(highs))

    def describe(self) -> dict:
        """A structured status snapshot for reports and examples."""
        return {
            "buffer": self.buffer.component_sizes(),
            "buffer_fill": len(self.buffer) / self.buffer.capacity,
            "stats": self.stats.snapshot(),
        }



class MeteredSortednessAwareIndex(SortednessAwareIndex):
    """The index under a meter, the one class of this layer that bills: each
    step runs the executed index's inside its meter bucket, plus the index's
    own charges (a ``zonemap_check`` per Zonemap test, a ``merge_step`` per
    buffered entry a range reconciles). A public verb it overrides bills,
    then returns the executed verb through ``super()``; only ``get_many``
    keeps a body of its own (see it)."""

    def __init__(self, backend, config=None, meter: Optional[Meter] = None, *args, **kwargs):
        self.meter = meter if meter is not None else NULL_METER
        if backend.meter is NULL_METER:
            if type(backend) is BPlusTree:
                MeteredBPlusTree.bill_to(backend, self.meter)
            else:
                backend.meter = self.meter
        super().__init__(backend, config, None, *args, **kwargs)

    def _new_buffer(self) -> SWAREBuffer:
        return MeteredSWAREBuffer(self.config, meter=self.meter, stats=self.stats, obs=self.obs)

    # Buckets nest, inner-most wins: a flush's routing steps enter their own.
    def flush_all(self) -> None:
        with self.meter.bucket("sort"):
            super().flush_all()

    def _flush_cycle(self) -> None:
        with self.meter.bucket("sort"):
            super()._flush_cycle()

    def _apply_batch(self, batch: FlushBatch) -> None:
        with self.meter.bucket("bulk_load"):
            super()._apply_batch(batch)

    def _top_insert(self, keys: Sequence[int], values: Sequence[object], tombstones: int) -> None:
        with self.meter.bucket("top_insert"):
            super()._top_insert(keys, values, tombstones)

    def _delete(self, key: int) -> None:
        buffer = self.buffer
        if buffer.is_empty or not buffer.zonemap.may_contain(key):
            with self.meter.bucket("top_insert"):  # a direct tree delete
                return super()._delete(key)
        super()._delete(key)

    def _maybe_query_sort(self) -> None:
        if self.buffer.should_query_sort():
            with self.meter.bucket("sware_ops"):
                self.buffer.query_sort()

    def get(self, key: int, _traced: bool = False) -> Optional[object]:
        """The executed read path, billed: its inline Zonemap rejection here,
        the buffer's lookup by itself, and the tree's watermark test when the
        buffer did not answer. With tracing on, the executed get calls this
        one once more inside its span, and only that call bills."""
        if self.obs.enabled and not _traced:
            return super().get(key)
        meter = self.meter
        if self.config.enable_read_zonemaps and not self.buffer.zonemap.may_contain(key):
            with meter.bucket("buffer_search"):
                meter.charge("zonemap_check")
        stats = self.stats
        answered = stats.buffer_hits + stats.buffer_tombstone_hits
        with meter.bucket("tree_search"):
            value = super().get(key, True)
            if stats.buffer_hits + stats.buffer_tombstone_hits == answered:
                meter.charge("zonemap_check")
        return value

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """The batch read path, billed, and not the executed loop of
        :meth:`get`: one buffer pass over the keys (its Zonemap skips charged
        in one call), then the misses inside the tree's watermarks go to the
        backend's ``get_many`` when it has one, so a B+-tree charges
        ``node_access`` once per node the batch visits instead of once per
        key and level (billing a loop of ``get`` is a cost-model change of
        its own)."""
        if not keys:
            return []  # no trigger, as in :meth:`SortednessAwareIndex.get_many`
        self._maybe_query_sort()
        n = len(keys)
        stats = self.stats
        stats.lookups += n
        meter = self.meter
        with self.obs.span("sware.get_many", n=n):
            results: List[Optional[object]] = [None] * n
            miss_keys: List[int] = []
            miss_positions: List[int] = []
            with meter.bucket("buffer_search"):
                lookup = self.buffer.lookup
                gated = self.config.enable_read_zonemaps
                low, high = self.buffer.zonemap.min_key, self.buffer.zonemap.max_key
                skips = 0
                for i, key in enumerate(keys):
                    if gated and (low is None or key < low or key > high):
                        skips += 1
                    else:
                        state, value = lookup(key)
                        if state == HIT:
                            stats.buffer_hits += 1
                            results[i] = value
                            continue
                        if state == TOMBSTONE:
                            stats.buffer_tombstone_hits += 1
                            continue
                    miss_keys.append(key)
                    miss_positions.append(i)
                stats.buffer_skips_by_zonemap += skips
                if skips:
                    meter.charge("zonemap_check", skips)
            if not miss_keys:
                return results
            backend = self.backend
            with meter.bucket("tree_search"):
                meter.charge("zonemap_check", len(miss_keys))
                tree_min, tree_max = backend.min_key, backend.max_key
                if tree_min is None:
                    return results
                in_positions: List[int] = []
                in_keys: List[int] = []
                for i, key in zip(miss_positions, miss_keys):
                    if tree_min <= key <= tree_max:
                        in_positions.append(i)
                        in_keys.append(key)
                stats.tree_searches += len(in_keys)
                batch_get = getattr(backend, "get_many", None)
                if batch_get is not None:
                    for i, value in zip(in_positions, batch_get(in_keys)):
                        results[i] = value
                else:
                    get = backend.get
                    for i, key in zip(in_positions, in_keys):
                        results[i] = get(key)
            return results

    def _range_scan(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        meter = self.meter
        resolved, n_entries = self.buffer.range_run(lo, hi)
        with meter.bucket("tree_search"):
            rows = self.backend.range_query(lo, hi)
        # One merge step per buffered candidate (the tree's rows were charged
        # as scan_entry by its range scan).
        meter.charge("merge_step", n_entries)
        return self._merge_versions(resolved, rows)
