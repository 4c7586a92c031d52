"""A thread-safe front-end for the sortedness-aware index (§IV-D).

:class:`ConcurrentSortednessAwareIndex` is a lock policy over a
:class:`~repro.core.sware.SortednessAwareIndex`: it runs the inner index's
own steps, each under a latch, bracketed by the paper's blocking locks
(:class:`~repro.core.locks.BlockingLockManager`):

* ``_route`` decides each single-key write under an **instantaneous**
  buffer-wide X, counting the slots reserved by appends not yet made so
  flush predictions stay exact. A direct tree delete (``_delete``) runs
  right there: buffer X doubles as the tree lock.
* An append reserves its slot, releases X and runs ``_insert`` /
  ``_delete`` under that slot's **page** lock. It re-routes first, so the
  step never flushes there: a write the buffer no longer admits retries.
* A write whose append fills the buffer, a ``put_many`` chunk that may
  (``_put_many``), ``flush_all`` and ``checkpoint`` keep X and sweep every
  page lock, draining in-flight appenders, before running the step and any
  ``_flush_cycle`` it triggers.
* Reads run the trigger-free bodies (``_get``, ``_get_many``,
  ``_range_query``, ``_items``) under buffer-wide **S**. Past the
  query-sort trigger, the reader first upgrades S→X, sweeps the pages and
  fires ``_maybe_query_sort``. Several readers upgrading at once deadlock;
  a short timeout surfaces that and the reader re-acquires X from scratch.

The steps own the WAL appends, counters and monitor feed, so the WAL lives
on the inner index and WAL order is apply order, which recovery replays.
The latch guards the physical Python structures under the logical locks,
as latches do under page locks in a real system (DESIGN.md §8).
:mod:`repro.core.schedules` replays seeded interleavings of this class and
checks the discipline above.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SWAREConfig
from repro.core.locks import DEFAULT_TIMEOUT_S, EXCLUSIVE, SHARED, BlockingLockManager
from repro.core.sware import APPEND, DIRECT, FLUSH, SortednessAwareIndex, TreeBackend
from repro.errors import LockTimeout
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage.costmodel import Meter
from repro.storage.wal import WriteAheadLog

#: The whole-buffer lock resource; pages are ``page:<index>``.
BUFFER = "buffer"

#: How long an S→X upgrade may wait before it is presumed deadlocked (two
#: readers upgrading wait for each other forever) and falls back to
#: release-and-reacquire: short, as the fallback is always safe, merely unfair.
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
        self.obs = obs = obs if obs is not None else current_obs()
        self.inner = SortednessAwareIndex(backend, self.config, meter=meter, obs=obs, wal=wal)
        self.locks = BlockingLockManager(obs=obs)
        self._latch = threading.Lock()
        #: Append slots handed out under buffer X but not yet materialized:
        #: flush predictions include them, so appenders never overfill.
        self._reserved = 0
        self.upgrade_fallbacks = 0
        self.append_retries = 0
        if obs is not NULL_OBS:
            obs.register_collector("locks", self.locks.snapshot)
            obs.register_collector("concurrent", self._collector_snapshot)
        if obs.monitors is not None:
            # Feeds the lock_contention / lock_timeouts health rules.
            obs.monitors.attach_locks(self.locks)

    # The inner index's state, read through the front-end.
    stats = property(lambda self: self.inner.stats)
    backend = property(lambda self: self.inner.backend)
    buffer = property(lambda self: self.inner.buffer)
    meter = property(lambda self: self.inner.meter)
    wal = property(lambda self: self.inner.wal)

    def _collector_snapshot(self) -> Dict[str, float]:
        return {
            "upgrade_fallbacks": float(self.upgrade_fallbacks),
            "append_retries": float(self.append_retries),
        }

    def _page_resources(self) -> List[str]:
        return [f"page:{page}" for page in range(self.config.n_pages)]

    def _sweep_pages(self, worker: int) -> List[str]:
        """Drain in-flight appenders: every page lock, in order, under buffer X
        (no new reservations) and never the latch (page holders wait on it)."""
        held: List[str] = []
        try:
            for resource in self._page_resources():
                self.locks.acquire(worker, resource, EXCLUSIVE, timeout=self.lock_timeout)
                held.append(resource)
        except LockTimeout:
            self._release(worker, held)
            raise
        return held

    def _release(self, worker: int, resources: List[str]) -> None:
        for resource in resources:
            self.locks.release(worker, resource)

    def _swept(self, worker: int, step, *args):
        """``step(*args)`` under every page lock and the latch; the caller
        holds buffer X. Every flush and query sort runs here."""
        held = self._sweep_pages(worker)
        try:
            with self._latch:
                return step(*args)
        finally:
            self._release(worker, held)

    def _exclusive(self, step, *args):
        """``step(*args)`` under buffer X, every page lock and the latch."""
        worker = threading.get_ident()
        self.locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            return self._swept(worker, step, *args)
        finally:
            self.locks.release(worker, BUFFER)

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
        # The span carries the tracer's per-thread id, so interleaved writers
        # render as separate Perfetto rows with lock waits and flushes nested.
        with self.obs.span("concurrent.write", key=key, tombstone=tombstone):
            while not self._try_write(key, value, tombstone):
                self.append_retries += 1

    def _try_write(self, key: int, value: object, tombstone: bool) -> bool:
        """One pass of the write discipline; False if the append must retry."""
        worker = threading.get_ident()
        locks, inner = self.locks, self.inner
        step, args = (inner._delete, (key,)) if tombstone else (inner._insert, (key, value))
        # (1) Instantaneous buffer-wide X: the inner index routes the op.
        locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            with self._latch:
                route = inner._route(key, tombstone, pending=self._reserved)
                if route == DIRECT:
                    step(*args)  # buffer X doubles as the tree lock
                    return True
                if route == APPEND:
                    slot = len(inner.buffer) + self._reserved
                    resource = f"page:{min(slot // self.config.page_size, self.config.n_pages - 1)}"
                    self._reserved += 1
            if route == FLUSH:
                # (2a) Keep X, drain in-flight appenders, append and flush.
                self._swept(worker, step, *args)
                return True
        finally:
            locks.release(worker, BUFFER)
        # (2b) The page lock (guarding that page's Zonemap/BF too) covers the append.
        locks.acquire(worker, resource, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            with self._latch:
                self._reserved -= 1
                # Re-routed without reservations: a buffer that filled or drained
                # since would have the step flush or go to the tree here.
                if inner._route(key, tombstone) != APPEND:
                    return False
                step(*args)
                return True
        finally:
            locks.release(worker, resource)

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        """Batch upsert, buffer-wide X per chunk: readers and single-key
        writers interleave between chunks, and only a chunk that can fill
        the buffer sweeps the page locks."""
        for _key, value in items:
            if value is None:
                raise ValueError("None values are reserved for 'absent'")
        worker = threading.get_ident()
        locks, inner = self.locks, self.inner
        i, n = 0, len(items)
        while i < n:
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
            try:
                with self._latch:
                    space = inner.buffer.capacity - len(inner.buffer) - self._reserved
                    if n - i < space:
                        # Fits even if every reserved append lands: no flush, no sweep.
                        inner._put_many(items[i:])
                        return
                if space <= 0:
                    self._swept(worker, inner._flush_cycle)
                else:
                    self._swept(worker, inner._put_many, items[i : i + space])
                    i += space
            finally:
                locks.release(worker, BUFFER)

    def flush_all(self) -> None:
        """Drain the buffer into the tree under buffer-wide X."""
        self._exclusive(self.inner.flush_all)

    def checkpoint(self, store) -> int:
        """The inner index's checkpoint + WAL truncation under buffer X and
        every page lock: the saved tree and the truncated WAL are one cut."""
        return self._exclusive(self.inner.checkpoint, store)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _begin_read(self, worker: int) -> None:
        """Take buffer-wide S; upgrade to X and query-sort if triggered."""
        locks = self.locks
        due = self.inner.buffer.should_query_sort
        locks.acquire(worker, BUFFER, SHARED, timeout=self.lock_timeout)
        if not due():
            return
        try:
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.upgrade_timeout)
        except LockTimeout:
            # Upgrade field: readers each waiting for the others to leave.
            # Back off and re-enter exclusively (whoever won may have sorted
            # already); a timeout on the re-acquire propagates, nothing held.
            self.upgrade_fallbacks += 1
            locks.release(worker, BUFFER)
            locks.acquire(worker, BUFFER, EXCLUSIVE, timeout=self.lock_timeout)
        try:
            if due():
                # Query sorting rewrites the tail: drain the appenders admitted
                # before this reader took S. The read then proceeds under X.
                self._swept(worker, self.inner._maybe_query_sort)
        except BaseException:
            locks.release(worker, BUFFER)
            raise

    def _read(self, read, *args):
        """``read(*args)`` under the §IV-D read discipline (buffer S + latch)."""
        worker = threading.get_ident()
        self._begin_read(worker)
        try:
            with self._latch:
                return read(*args)
        finally:
            self.locks.release(worker, BUFFER)

    def get(self, key: int) -> Optional[object]:
        with self.obs.span("concurrent.read", key=key):
            return self._read(self.inner._get, key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        if not keys:  # reads nothing, so takes no lock and fires no trigger
            return []
        with self.obs.span("concurrent.read_many", n=len(keys)):
            return self._read(self.inner._get_many, keys)

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        if lo > hi:  # an empty range, like an empty batch: no lock, no trigger
            return []
        return self._read(self.inner._range_query, lo, hi)

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def items(self) -> List[Tuple[int, object]]:
        return self._read(self.inner._items)

    def describe(self) -> dict:
        with self._latch:
            doc = self.inner.describe()
        doc["locks"] = {**self.locks.snapshot(), **self._collector_snapshot()}
        return doc

    def check_invariants(self) -> None:
        """Structural invariants of the wrapped index (quiesced check)."""
        with self._latch:
            self.inner.buffer.check_invariants()
            getattr(self.inner.backend, "check_invariants", lambda: None)()
