"""Tests for the blocking reader–writer locks (repro.core.locks)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.locks import (
    EXCLUSIVE,
    SHARED,
    BlockingLockManager,
    RWLock,
)
from repro.errors import LockTimeout, ReproError


class TestRWLockGrants:
    def test_free_lock_grants_immediately(self):
        lock = RWLock("r")
        assert lock.acquire("a", SHARED) == 0.0
        assert lock.mode == SHARED
        lock.release("a")
        assert lock.mode is None

    def test_readers_share(self):
        lock = RWLock("r")
        lock.acquire("a", SHARED)
        lock.acquire("b", SHARED)
        assert lock.holders() == {"a", "b"}
        lock.release("a")
        lock.release("b")

    def test_sole_holder_upgrades_in_place(self):
        lock = RWLock("r")
        lock.acquire("a", SHARED)
        lock.acquire("a", EXCLUSIVE)
        assert lock.mode == EXCLUSIVE
        assert lock.holders() == {"a"}
        lock.release("a")

    def test_reacquire_covered_mode_is_noop(self):
        lock = RWLock("r")
        lock.acquire("a", EXCLUSIVE)
        lock.acquire("a", SHARED)  # covered by the X hold
        assert lock.mode == EXCLUSIVE
        lock.release("a")
        assert lock.mode is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            RWLock("r").acquire("a", "Z")

    def test_release_without_hold_raises(self):
        with pytest.raises(ReproError):
            RWLock("r").release("ghost")


class TestRWLockBlocking:
    def test_writer_waits_for_reader(self):
        lock = RWLock("r")
        lock.acquire("reader", SHARED)
        waited = []

        def writer():
            waited.append(lock.acquire("writer", EXCLUSIVE, timeout=5.0))

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert not waited  # still blocked
        lock.release("reader")
        thread.join(timeout=5.0)
        assert waited and waited[0] > 0
        assert lock.mode == EXCLUSIVE
        lock.release("writer")

    def test_timeout_raises_locktimeout(self):
        lock = RWLock("r")
        lock.acquire("holder", EXCLUSIVE)
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            lock.acquire("other", SHARED, timeout=0.05)
        assert time.monotonic() - start < 2.0
        # The holder is undisturbed and the waiter left nothing behind.
        assert lock.holders() == {"holder"}
        lock.release("holder")

    def test_upgrade_field_times_out(self):
        """Two readers both upgrading is the §IV-D deadlock: each waits
        for the other to leave. The timeout surfaces it."""
        lock = RWLock("r")
        lock.acquire("a", SHARED)
        lock.acquire("b", SHARED)
        results = {}

        def upgrade(worker):
            try:
                lock.acquire(worker, EXCLUSIVE, timeout=0.2)
                results[worker] = "upgraded"
            except LockTimeout:
                results[worker] = "timeout"

        threads = [
            threading.Thread(target=upgrade, args=(worker,)) for worker in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert sorted(results.values()) == ["timeout", "timeout"]

    def test_waiting_reader_joins_after_writer_leaves(self):
        lock = RWLock("r")
        lock.acquire("writer", EXCLUSIVE)
        acquired = threading.Event()

        def reader():
            lock.acquire("reader", SHARED, timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=reader)
        thread.start()
        lock.release("writer")
        assert acquired.wait(timeout=5.0)
        assert lock.mode == SHARED
        lock.release("reader")
        thread.join()


class TestBlockingLockManager:
    def test_counters(self):
        manager = BlockingLockManager()
        manager.acquire("a", "buffer", SHARED)
        manager.acquire("b", "buffer", SHARED)
        manager.acquire("b", "page:0", EXCLUSIVE)
        snap = manager.snapshot()
        assert snap["acquires"] == 3
        assert snap["waits"] == 0
        manager.release("b", "page:0")
        manager.release("a", "buffer")
        # b is now the sole holder: upgrade counts.
        manager.acquire("b", "buffer", EXCLUSIVE)
        assert manager.snapshot()["upgrades"] == 1
        manager.release("b", "buffer")

    def test_timeout_counted(self):
        manager = BlockingLockManager()
        manager.acquire("a", "buffer", EXCLUSIVE)
        with pytest.raises(LockTimeout):
            manager.acquire("b", "buffer", SHARED, timeout=0.05)
        assert manager.snapshot()["timeouts"] == 1
        manager.release("a", "buffer")

    def test_wait_accounting(self):
        manager = BlockingLockManager()
        manager.acquire("a", "buffer", EXCLUSIVE)

        def releaser():
            time.sleep(0.05)
            manager.release("a", "buffer")

        thread = threading.Thread(target=releaser)
        thread.start()
        manager.acquire("b", "buffer", SHARED, timeout=5.0)
        thread.join()
        snap = manager.snapshot()
        assert snap["waits"] == 1
        assert snap["wait_ns"] > 0
        manager.release("b", "buffer")

    def test_mode_and_holders_of_unknown_resource(self):
        manager = BlockingLockManager()
        assert manager.mode("nope") is None
        assert manager.holders("nope") == set()
