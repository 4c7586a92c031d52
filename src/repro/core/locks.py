"""Blocking reader–writer locks for the §IV-D front-end.

The one lock manager of :class:`~repro.core.concurrent.ConcurrentSortednessAwareIndex`:
an S/X compatibility matrix with a sole-holder upgrade rule, built on
``threading.Condition`` so real threads block until their request is
grantable. :mod:`repro.core.schedules` subclasses the manager to replay
seeded interleavings over the same grant rule (``RWLock._grantable``).

Two pieces:

* :class:`RWLock` — one named shared/exclusive lock. S requests share, X
  excludes, the *sole* holder may upgrade S→X in place, and re-acquiring
  an already-covered mode is a no-op. Waits are bounded by a timeout;
  exceeding it raises :class:`~repro.errors.LockTimeout` (the
  deadlock-surfacing strategy — an upgrade field of two readers each
  waiting for the other can only end this way).
* :class:`BlockingLockManager` — a table of named :class:`RWLock`\\ s keyed
  by worker and resource, plus contention accounting:
  acquisition/wait/timeout/upgrade counters and a wait-time histogram
  published through :mod:`repro.obs`.

Workers are identified by arbitrary hashable tokens (the concurrent index
front-end uses ``threading.get_ident()``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Hashable, Optional, Set

from repro.errors import LockTimeout, ReproError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_NS,
    NULL_OBS,
    Observability,
    current_obs,
)

SHARED = "S"
EXCLUSIVE = "X"

#: Default ceiling on any single blocking acquisition, in seconds. Long
#: enough that contention never trips it, short enough that a genuine
#: deadlock surfaces quickly in tests and benchmarks.
DEFAULT_TIMEOUT_S = 10.0


class RWLock:
    """A blocking shared/exclusive lock with sole-holder upgrade.

    The grant rules:

    * free → granted in the requested mode;
    * held S, request S → granted (readers share);
    * sole holder, request X → upgraded in place;
    * holder re-requesting a covered mode → no-op;
    * anything else waits until the holders change, or until ``timeout``
      seconds elapse (:class:`~repro.errors.LockTimeout`).

    Holds are not counted: releasing a re-entrantly acquired lock releases
    it outright.
    """

    __slots__ = ("name", "_cond", "_mode", "_holders")

    def __init__(self, name: str = ""):
        self.name = name
        self._cond = threading.Condition()
        self._mode: Optional[str] = None
        self._holders: Set[Hashable] = set()

    def _grantable(self, worker: Hashable, mode: str) -> bool:
        if not self._holders:
            return True
        if self._holders == {worker}:
            return True  # re-entry or sole-holder upgrade
        if worker in self._holders and mode == SHARED:
            return True  # already covered by an equal or stronger hold
        if self._mode == SHARED and mode == SHARED:
            return True
        return False

    def acquire(
        self, worker: Hashable, mode: str, timeout: float = DEFAULT_TIMEOUT_S
    ) -> float:
        """Block until granted; returns the wait in nanoseconds.

        Raises :class:`~repro.errors.LockTimeout` when ``timeout`` seconds
        pass without the request becoming grantable.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ReproError(f"unknown lock mode {mode!r}")
        with self._cond:
            if self._grantable(worker, mode):
                self._grant(worker, mode)
                return 0.0
            start = time.perf_counter_ns()
            deadline = time.monotonic() + timeout
            while not self._grantable(worker, mode):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    raise LockTimeout(
                        f"{worker!r} timed out after {timeout:.1f}s waiting for "
                        f"{mode} on {self.name or 'lock'!r} (held {self._mode} "
                        f"by {len(self._holders)} worker(s))"
                    )
            self._grant(worker, mode)
            return float(time.perf_counter_ns() - start)

    def _grant(self, worker: Hashable, mode: str) -> None:
        if worker in self._holders and mode == SHARED:
            return  # keep the existing (possibly exclusive) hold
        if mode == EXCLUSIVE or not self._holders:
            self._mode = mode
        self._holders.add(worker)

    def release(self, worker: Hashable) -> None:
        with self._cond:
            if worker not in self._holders:
                raise ReproError(f"{worker!r} does not hold {self.name or 'lock'!r}")
            self._holders.discard(worker)
            if not self._holders:
                self._mode = None
            self._cond.notify_all()

    @property
    def mode(self) -> Optional[str]:
        with self._cond:
            return self._mode if self._holders else None

    def holders(self) -> Set[Hashable]:
        with self._cond:
            return set(self._holders)


class BlockingLockManager:
    """A table of named :class:`RWLock`\\ s with contention accounting.

    ``acquire``/``release`` take a worker token and a resource name;
    conflicting requests *wait*. ``holders``/``mode`` inspect the table.

    Accounting: every acquisition bumps ``acquires``; an acquisition that
    had to wait bumps ``waits`` and records its wait into the
    ``lock_wait_ns`` histogram of the attached observability (plus a
    per-manager total); timeouts and sole-holder upgrades are counted too.
    ``snapshot()`` exposes the counters as a collector for
    :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, obs: Optional[Observability] = None):
        self.obs = obs if obs is not None else current_obs()
        self._locks: Dict[str, RWLock] = {}
        self._table_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.acquires = 0
        self.waits = 0
        self.wait_ns = 0.0
        self.timeouts = 0
        self.upgrades = 0

    def _lock(self, resource: str) -> RWLock:
        with self._table_lock:
            lock = self._locks.get(resource)
            if lock is None:
                lock = self._locks[resource] = RWLock(resource)
            return lock

    def acquire(
        self,
        worker: Hashable,
        resource: str,
        mode: str,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        lock = self._lock(resource)
        upgrade = (
            mode == EXCLUSIVE and lock.mode == SHARED and worker in lock.holders()
        )
        try:
            waited_ns = lock.acquire(worker, mode, timeout=timeout)
        except LockTimeout:
            with self._stats_lock:
                self.timeouts += 1
            raise
        with self._stats_lock:
            self.acquires += 1
            if upgrade:
                self.upgrades += 1
            if waited_ns:
                self.waits += 1
                self.wait_ns += waited_ns
        if waited_ns and self.obs is not NULL_OBS:
            self.obs.observe_hist(
                "lock_wait_ns", waited_ns, buckets=DEFAULT_LATENCY_BUCKETS_NS
            )

    def release(self, worker: Hashable, resource: str) -> None:
        self._lock(resource).release(worker)

    def holders(self, resource: str) -> Set[Hashable]:
        with self._table_lock:
            lock = self._locks.get(resource)
        return lock.holders() if lock is not None else set()

    def mode(self, resource: str) -> Optional[str]:
        with self._table_lock:
            lock = self._locks.get(resource)
        return lock.mode if lock is not None else None

    def snapshot(self) -> Dict[str, float]:
        """Contention counters (registered as an obs collector)."""
        with self._stats_lock:
            return {
                "acquires": float(self.acquires),
                "waits": float(self.waits),
                "wait_ns": float(self.wait_ns),
                "timeouts": float(self.timeouts),
                "upgrades": float(self.upgrades),
            }
