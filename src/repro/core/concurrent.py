"""A thread-safe front-end for the sortedness-aware index (§IV-D).

:class:`ConcurrentSortednessAwareIndex` wraps a
:class:`~repro.core.sware.SortednessAwareIndex` and enforces the paper's
concurrency-control discipline with *blocking* locks
(:class:`~repro.core.locks.BlockingLockManager`):

* every write takes the buffer-wide lock **exclusively but instantaneously**
  to decide whether it triggers a flush;
* a non-flushing write releases the buffer-wide lock and appends under a
  **page-granular** lock (the page is derived from the entry's logical
  slot, reserving the slot under the buffer-wide lock so concurrent flush
  predictions stay exact);
* a flushing write keeps the buffer-wide exclusive lock, first draining
  in-flight appenders by sweeping every page lock, and holds all of it
  across the flush cycle;
* reads take the buffer-wide lock **shared**; when the unsorted tail has
  grown past the query-sorting threshold, the reader upgrades S→X (legal
  for the sole reader; an upgrade field of several readers is a deadlock,
  surfaced by a short timeout and resolved by releasing and re-acquiring
  exclusively).

Two realities of CPython shape the implementation (DESIGN.md §8):

* The protocol locks provide *logical* isolation; a short internal latch
  (`threading.Lock`) protects the *physical* Python structures, the role
  latches play under page locks in a real system. Every actual touch of
  the wrapped index happens under the latch, so readers see quiesced
  state even while protocol-concurrent appends are in flight.
* The wrapped index's own query-sort trigger is disabled
  (``query_sorting_threshold`` is forced to 1.0) and re-implemented here,
  because firing it inside a read would mutate the buffer under a shared
  lock; the front-end owns the S→X upgrade instead.

Lock contention is observable: the lock manager's acquisition / wait /
timeout / upgrade counters register as a ``locks`` obs collector, waits
feed the ``lock_wait_ns`` histogram, and upgrade fallbacks / append
retries are published by the ``concurrent`` collector.

:mod:`repro.core.schedules` replays seeded interleavings of this class
deterministically and checks the discipline above on its lock table.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SWAREConfig
from repro.core.locks import (
    DEFAULT_TIMEOUT_S,
    EXCLUSIVE,
    SHARED,
    BlockingLockManager,
)
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.errors import LockTimeout
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage.costmodel import Meter
from repro.storage.wal import WriteAheadLog

#: The whole-buffer lock resource; pages are ``page:<index>``.
BUFFER = "buffer"

#: How long an S→X upgrade may wait before it is presumed deadlocked
#: (two readers upgrading wait for each other forever) and falls back to
#: release-and-reacquire. Deliberately much shorter than the general lock
#: timeout: the fallback is always safe, merely unfair.
DEFAULT_UPGRADE_TIMEOUT_S = 0.1


class ConcurrentSortednessAwareIndex:
    """See module docstring."""

    def __init__(
        self,
        backend: TreeBackend,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        obs: Optional[Observability] = None,
        lock_timeout: float = DEFAULT_TIMEOUT_S,
        upgrade_timeout: float = DEFAULT_UPGRADE_TIMEOUT_S,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.config = config or SWAREConfig()
        self.lock_timeout = lock_timeout
        self.upgrade_timeout = upgrade_timeout
        #: The WAL lives on the wrapper, not the inner index: the inner
        #: write path is bypassed by the page-granular append fast path, so
        #: the wrapper logs each op under the latch at its apply point —
        #: WAL order therefore matches the physical serialization order
        #: exactly, which is what recovery replays.
        self.wal = wal
        obs = obs if obs is not None else current_obs()
        self.obs = obs
        # The inner index must never query-sort on its own (that would
        # mutate the buffer under a shared lock); the front-end triggers
        # the sort itself after an S→X upgrade.
        self.inner = SortednessAwareIndex(
            backend,
            config=self.config.with_(query_sorting_threshold=1.0),
            meter=meter,
            obs=obs,
        )
        self.locks = BlockingLockManager(obs=obs)
        self._latch = threading.Lock()
        #: Append slots handed out under the buffer-wide lock but not yet
        #: materialized; flush predictions include them so a concurrent
        #: burst of appends can never overfill the buffer.
        self._reserved = 0
        self.upgrade_fallbacks = 0
        self.append_retries = 0
        self._query_sort_trigger = self.config.query_sort_trigger
        if obs is not NULL_OBS:
            obs.register_collector("locks", self.locks.snapshot)
            obs.register_collector("concurrent", self._collector_snapshot)
        if obs.monitors is not None:
            # Contention counters flow into health evaluation alongside the
            # streaming monitors (the lock_contention / lock_timeouts rules).
            obs.monitors.attach_locks(self.locks)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.inner.stats

    @property
    def backend(self):
        return self.inner.backend

    @property
    def buffer(self):
        return self.inner.buffer

    @property
    def meter(self):
        return self.inner.meter

    def _collector_snapshot(self) -> Dict[str, float]:
        return {
            "upgrade_fallbacks": float(self.upgrade_fallbacks),
            "append_retries": float(self.append_retries),
        }

    def _page_resources(self) -> List[str]:
        return [f"page:{page}" for page in range(self.config.n_pages)]

    def _sweep_pages(self, worker: int) -> List[str]:
        """Drain in-flight appenders: acquire every page lock, in order.

        Called while holding the buffer-wide exclusive lock, so no new
        appender can reserve a slot; existing ones either finish first or
        block until the flush completes. Never called under the latch
        (an appender holding a page lock may be waiting for the latch).
        """
        held: List[str] = []
        try:
            for resource in self._page_resources():
                self.locks.acquire(
                    worker, resource, EXCLUSIVE, timeout=self.lock_timeout
                )
                held.append(resource)
        except LockTimeout:
            self._release(worker, held)
            raise
        return held

    def _release(self, worker: int, resources: List[str]) -> None:
        for resource in resources:
            self.locks.release(worker, resource)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> None:
        """Thread-safe upsert following the §IV-D write discipline."""
        if value is None:
            raise ValueError("None values are reserved for 'absent'")
        self._write(key, value, tombstone=False)

    def delete(self, key: int) -> None:
        """Thread-safe delete: buffered tombstone or direct tree delete."""
        self._write(key, None, tombstone=True)

    def _write(self, key: int, value: object, tombstone: bool) -> None:
        # The span carries the tracer's per-thread id, so interleaved
        # writers render as separate rows in the Perfetto view; lock waits
        # and the flush cycle nest under it causally.
        obs = self.obs
        if obs.enabled:
            with obs.span("concurrent.write", key=key, tombstone=tombstone):
                self._write_inner(key, value, tombstone)
        else:
            self._write_inner(key, value, tombstone)

    def _write_inner(self, key: int, value: object, tombstone: bool) -> None:
        worker = threading.get_ident()
        locks = self.locks
        inner = self.inner
        buffer = inner.buffer
        capacity = self.config.buffer_capacity
        page_size = self.config.page_size
        n_pages = self.config.n_pages
        while True:
            # (1) Instantaneous buffer-wide X: route the op and decide
            # whether it triggers a flush.
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
            flush = False
            page: Optional[int] = None
            try:
                with self._latch:
                    if tombstone and (
                        buffer.is_empty or not buffer.zonemap.may_contain(key)
                    ):
                        # Direct tree delete; the buffer-wide lock doubles
                        # as the tree lock (readers search the tree under
                        # S, flushes mutate it under X).
                        if self.wal is not None:
                            self.wal.append_delete(key)
                        inner.delete(key)
                        return
                    if len(buffer) + self._reserved + 1 >= capacity:
                        flush = True
                    else:
                        slot = len(buffer) + self._reserved
                        page = min(slot // page_size, n_pages - 1)
                        self._reserved += 1
                if flush:
                    # (2a) Flush path: keep buffer-wide X, drain in-flight
                    # appenders, then add + flush under everything.
                    held = self._sweep_pages(worker)
                    try:
                        with self._latch:
                            if self.wal is not None:
                                if tombstone:
                                    self.wal.append_delete(key)
                                else:
                                    self.wal.append_put(key, value)
                            if tombstone:
                                inner.delete(key)
                            else:
                                inner.insert(key, value)
                    finally:
                        self._release(worker, held)
                    return
            finally:
                locks.release(worker, BUFFER)
            # (2b) Append path: buffer-wide lock already released; the
            # page lock (protecting that page's Zonemap/BF metadata too)
            # covers the materialization.
            resource = f"page:{page}"
            locks.acquire(worker, resource, EXCLUSIVE, timeout=self.lock_timeout)
            try:
                with self._latch:
                    self._reserved -= 1
                    if buffer.is_full:
                        # A flush ran between the check and this append
                        # and refilled, or predictions drifted; retry the
                        # whole write so the flush check runs again.
                        retry = True
                    else:
                        retry = False
                        if self.wal is not None:
                            if tombstone:
                                self.wal.append_delete(key)
                            else:
                                self.wal.append_put(key, value)
                        if tombstone:
                            inner.stats.deletes += 1
                            buffer.add(key, None, tombstone=True)
                            inner.stats.tombstones_buffered += 1
                        else:
                            inner.stats.inserts += 1
                            buffer.add(key, value)
                            # The fast path bypasses inner.insert, so the
                            # monitor feed happens here (still under the
                            # latch). Deletes are not fed, as in the inner
                            # index.
                            hub = self.obs.monitors
                            if hub is not None:
                                hub.observe_insert(key, buffer)
            finally:
                locks.release(worker, resource)
            if not retry:
                return
            self.append_retries += 1

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """Batch upsert: buffer-wide X per capacity-sized chunk.

        Readers and single-key writers can interleave between chunks; the
        page-lock sweep runs only for chunks that can fill the buffer.
        """
        for _key, value in items:
            if value is None:
                raise ValueError("None values are reserved for 'absent'")
        worker = threading.get_ident()
        locks = self.locks
        inner = self.inner
        buffer = inner.buffer
        capacity = self.config.buffer_capacity
        i, n = 0, len(items)
        while i < n:
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
            try:
                with self._latch:
                    space = capacity - len(buffer) - self._reserved
                if space <= 0 or n - i >= space:
                    # The chunk may fill the buffer: drain appenders so
                    # the flush inside ``put_many`` excludes everyone.
                    held = self._sweep_pages(worker)
                    try:
                        with self._latch:
                            if space <= 0:
                                inner._flush_cycle()
                            else:
                                if self.wal is not None:
                                    self.wal.append_puts(items[i : i + space])
                                inner.put_many(items[i : i + space])
                                i += space
                    finally:
                        self._release(worker, held)
                else:
                    # Strictly below capacity even if every reserved
                    # append lands: no flush possible, no sweep needed.
                    with self._latch:
                        if self.wal is not None:
                            self.wal.append_puts(items[i:n])
                        inner.put_many(items[i:n])
                        i = n
            finally:
                locks.release(worker, BUFFER)

    def flush_all(self) -> None:
        """Drain the buffer into the tree under buffer-wide X."""
        worker = threading.get_ident()
        self.locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            held = self._sweep_pages(worker)
            try:
                with self._latch:
                    self.inner.flush_all()
            finally:
                self._release(worker, held)
        finally:
            self.locks.release(worker, BUFFER)

    def checkpoint(self, store) -> int:
        """Atomic checkpoint + WAL truncation under buffer-wide X.

        The page-lock sweep drains in-flight appenders first, so the saved
        tree and the truncated WAL are a consistent cut: every op either
        made it into the checkpoint or will be re-logged after it.
        """
        worker = threading.get_ident()
        self.locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            held = self._sweep_pages(worker)
            try:
                with self._latch:
                    pages = store.save_index(self.inner)
                    if self.wal is not None:
                        self.wal.reset()
                    return pages
            finally:
                self._release(worker, held)
        finally:
            self.locks.release(worker, BUFFER)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _should_query_sort(self) -> bool:
        return self.inner.buffer.tail_size >= self._query_sort_trigger

    def _begin_read(self, worker: int) -> None:
        """Take buffer-wide S; upgrade to X and query-sort if triggered."""
        locks = self.locks
        locks.acquire(worker, BUFFER, SHARED, timeout=self.lock_timeout)
        if not self._should_query_sort():
            return
        try:
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.upgrade_timeout)
        except LockTimeout:
            # Upgrade field: several readers each waiting for the others
            # to leave. Back off and re-enter exclusively; the trigger is
            # re-checked because whoever won the race sorted already. A
            # timeout on the re-acquire propagates with nothing held.
            self.upgrade_fallbacks += 1
            locks.release(worker, BUFFER)
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            if self._should_query_sort():
                # Query sorting is flush-class — it rewrites the tail — so
                # in-flight appenders (page holders that passed their flush
                # check before this reader took S) must drain first.
                held = self._sweep_pages(worker)
                try:
                    with self._latch:
                        if self._should_query_sort():
                            with self.inner.meter.bucket("sware_ops"):
                                self.inner.buffer.query_sort()
                finally:
                    self._release(worker, held)
            # The read proceeds under X; downgrading buys nothing for the
            # microseconds the latched read takes.
        except BaseException:
            locks.release(worker, BUFFER)
            raise

    def get(self, key: int) -> Optional[object]:
        obs = self.obs
        if obs.enabled:
            with obs.span("concurrent.read", key=key):
                return self._read(self.inner.get, key)
        return self._read(self.inner.get, key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        obs = self.obs
        if obs.enabled:
            with obs.span("concurrent.read_many", n=len(keys)):
                return self._read(self.inner.get_many, keys)
        return self._read(self.inner.get_many, keys)

    def _read(self, read, *args):
        """``read(*args)`` under the §IV-D read discipline (buffer S + latch)."""
        worker = threading.get_ident()
        self._begin_read(worker)
        try:
            with self._latch:
                return read(*args)
        finally:
            self.locks.release(worker, BUFFER)

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        return self._read(self.inner.range_query, lo, hi)

    def range_many(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> List[List[Tuple[int, object]]]:
        range_query = self.inner.range_query
        return self._read(lambda: [range_query(lo, hi) for lo, hi in ranges])

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Tuple[int, object]]:
        return self._read(self.inner.items)

    def describe(self) -> dict:
        with self._latch:
            doc = self.inner.describe()
        doc["locks"] = self.locks.snapshot()
        doc["locks"].update(self._collector_snapshot())
        return doc

    def check_invariants(self) -> None:
        """Structural invariants of the wrapped index (quiesced check)."""
        with self._latch:
            self.inner.buffer.check_invariants()
            check = getattr(self.inner.backend, "check_invariants", None)
            if check is not None:
                check()
