"""Tests for the thread-safe SWARE front-end (repro.core.concurrent)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.concurrent import BUFFER, ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.locks import EXCLUSIVE, SHARED
from repro.core.schedules import ScheduleExplorer
from repro.core.sware import SortednessAwareIndex
from repro.errors import LockTimeout
from repro.obs import Observability
from tests.test_concurrency import TWO_READERS_OVER_A_TAIL

SMALL = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)


def make_index(config=SMALL, **kwargs):
    return ConcurrentSortednessAwareIndex(
        BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16)),
        config=config,
        **kwargs,
    )


class TestSingleThreaded:
    def test_basic_crud(self):
        index = make_index()
        for key in range(50):
            index.insert(key, key * 10)
        assert index.get(7) == 70
        assert index.get(999) is None
        index.delete(7)
        assert index.get(7) is None
        assert index.range_query(0, 9) == [
            (k, k * 10) for k in range(10) if k != 7
        ]
        index.flush_all()
        index.check_invariants()

    def test_matches_plain_index(self):
        """Same op stream -> same final state and the same sortedness and
        saturation monitors as the unwrapped index."""
        rng = random.Random(3)
        ops = []
        for _ in range(800):
            roll = rng.random()
            key = rng.randrange(200)
            if roll < 0.7:
                ops.append(("put", key, key * 3 + 1))
            else:
                ops.append(("del", key))

        plain = SortednessAwareIndex(
            BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16)),
            config=SMALL,
            obs=Observability(monitors=True),
        )
        conc = make_index(obs=Observability(monitors=True))
        for op in ops:
            if op[0] == "put":
                plain.insert(op[1], op[2])
                conc.insert(op[1], op[2])
            else:
                plain.delete(op[1])
                conc.delete(op[1])
        monitors = conc.obs.monitors.snapshot()
        del monitors["locks"]
        assert monitors == plain.obs.monitors.snapshot()
        plain.flush_all()
        conc.flush_all()
        assert conc.items() == plain.items()

    def test_put_many_chunks_and_flushes(self):
        index = make_index()
        items = [(key, key) for key in range(100)]
        index.put_many(items)
        assert index.stats.inserts == 100
        assert index.stats.flushes >= 5
        assert index.get(42) == 42
        assert len(index.items()) == 100

    def test_none_value_rejected(self):
        index = make_index()
        with pytest.raises(ValueError):
            index.insert(1, None)
        with pytest.raises(ValueError):
            index.put_many([(1, None)])

    def test_no_locks_leak_after_ops(self):
        index = make_index()
        for key in range(40):
            index.insert(key, key)
        index.get(3)
        index.range_query(0, 20)
        index.delete(5)
        index.flush_all()
        assert index.locks.mode(BUFFER) is None
        for page in range(index.config.n_pages):
            assert index.locks.mode(f"page:{page}") is None

    def test_query_sort_owned_by_front_end(self):
        """The inner index's own trigger is disabled; the front-end
        query-sorts under its upgraded exclusive lock."""
        index = make_index()
        assert index.inner.config.query_sorting_threshold == 1.0
        for key in range(10, 0, -1):  # out of order: grows the tail
            index.insert(key, key)
        assert index.buffer.tail_size > 0
        index.get(5)  # trigger: tail (10) >= 0.25 * 16
        assert index.buffer.tail_size == 0
        assert index.stats.query_sorts >= 1
        assert index.locks.snapshot()["upgrades"] >= 1

    def test_describe_includes_lock_counters(self):
        index = make_index()
        index.insert(1, 1)
        doc = index.describe()
        assert "locks" in doc
        assert doc["locks"]["acquires"] > 0
        assert "upgrade_fallbacks" in doc["locks"]


class TestLockDiscipline:
    def test_reader_blocks_writer_and_surfaces_timeout(self):
        index = make_index(lock_timeout=0.05)
        index.insert(1, 1)
        index.locks.acquire("intruder", BUFFER, SHARED)
        try:
            with pytest.raises(LockTimeout):
                index.insert(2, 2)  # instantaneous X check cannot be granted
        finally:
            index.locks.release("intruder", BUFFER)
        index.insert(2, 2)  # recovers once the reader left
        assert index.get(2) == 2

    def test_writer_blocks_reader(self):
        index = make_index(lock_timeout=0.05, upgrade_timeout=0.01)
        index.insert(1, 1)
        index.locks.acquire("intruder", BUFFER, EXCLUSIVE)
        try:
            with pytest.raises(LockTimeout):
                index.get(1)
        finally:
            index.locks.release("intruder", BUFFER)
        assert index.get(1) == 1
        assert index.locks.mode(BUFFER) is None  # nothing leaked

    def test_upgrade_fallback_when_other_reader_present(self):
        """Two readers upgrading wait for each other; the explorer times one
        upgrade out and that reader falls back to release + exclusive
        re-acquire, with every read still equal to the oracle."""
        fallbacks = 0
        for seed in range(40):
            explorer = ScheduleExplorer(seed, programs=TWO_READERS_OVER_A_TAIL, config=SMALL)
            stats = explorer.run()
            assert explorer.locks.snapshot()["timeouts"] == stats.upgrade_fallbacks
            fallbacks += stats.upgrade_fallbacks
        assert fallbacks > 0


class TestMultiThreaded:
    def test_stress_mixed_ops(self):
        index = make_index(
            config=SWAREConfig(
                buffer_capacity=64, page_size=8, query_sorting_threshold=0.25
            )
        )
        failures = []

        def work(tid):
            rng = random.Random(tid)
            try:
                for _ in range(2500):
                    roll = rng.random()
                    key = rng.randrange(1000)
                    if roll < 0.6:
                        index.insert(key, key * 10 + tid)
                    elif roll < 0.85:
                        value = index.get(key)
                        if value is not None:
                            assert value // 10 == key
                    elif roll < 0.95:
                        for k, v in index.range_query(key, key + 30):
                            assert key <= k <= key + 30
                    else:
                        index.delete(key)
            except Exception as exc:  # propagate to the main thread
                failures.append(repr(exc))

        threads = [threading.Thread(target=work, args=(tid,)) for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        index.flush_all()
        index.check_invariants()
        assert index.locks.mode(BUFFER) is None
        # A lock wait may time out only where an upgrade was attempted.
        snap = index.locks.snapshot()
        assert snap["timeouts"] <= snap["upgrades"] + index.upgrade_fallbacks
        # Every surviving value was written by one of the four workers.
        for key, value in index.items():
            assert value // 10 == key
            assert 0 <= value % 10 < 4

    def test_concurrent_put_many_and_readers(self):
        index = make_index(
            config=SWAREConfig(buffer_capacity=64, page_size=8)
        )
        failures = []

        def writer(tid):
            try:
                items = [(key, key * 10 + tid) for key in range(tid, 3000, 3)]
                for start in range(0, len(items), 100):
                    index.put_many(items[start : start + 100])
            except Exception as exc:
                failures.append(repr(exc))

        def reader():
            rng = random.Random(99)
            try:
                for _ in range(2000):
                    key = rng.randrange(3000)
                    value = index.get(key)
                    if value is not None:
                        assert value // 10 == key
            except Exception as exc:
                failures.append(repr(exc))

        threads = [threading.Thread(target=writer, args=(tid,)) for tid in range(3)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        index.flush_all()
        index.check_invariants()
        assert len(index.items()) == 3000

    def test_flush_exactness_no_append_overfill(self):
        """Concurrent single-key writers must never overfill the buffer
        (the reservation counter keeps flush predictions exact)."""
        index = make_index(
            config=SWAREConfig(buffer_capacity=16, page_size=4)
        )
        failures = []

        def work(tid):
            try:
                for i in range(1500):
                    index.insert(tid * 10_000 + i, i + 1)
            except Exception as exc:
                failures.append(repr(exc))

        threads = [threading.Thread(target=work, args=(tid,)) for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        index.check_invariants()  # would raise had the buffer overfilled
        index.flush_all()
        assert len(index.items()) == 6000
