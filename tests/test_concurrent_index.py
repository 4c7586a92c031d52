"""Tests for the thread-safe SWARE front-end (repro.core.concurrent)."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.obs import Observability
from repro.storage.costmodel import Meter
from repro.storage.wal import WriteAheadLog, replay_wal

SMALL = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)


def make_index(config=SMALL, cls=ConcurrentSortednessAwareIndex, **kwargs):
    return cls(
        BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16)),
        config=config,
        **kwargs,
    )


def run_threads(threads, timeout=60.0):
    """Start ``threads`` under a short switch interval (a preemption point
    every few bytecodes, so an unguarded step would interleave), then join
    each with a timeout and check that it finished."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestSingleThreaded:

    def test_matches_plain_index(self, tmp_path):
        """Same mixed op stream -> the same reads, stats, simulated cost,
        WAL bytes and sortedness and saturation monitors as the unwrapped
        index."""
        rng = random.Random(3)
        ops = []
        for _ in range(800):
            roll = rng.random()
            key = rng.randrange(200)
            if roll < 0.45:
                ops.append(("insert", key, key * 3 + 1))
            elif roll < 0.55:
                batch = rng.sample(range(200), rng.randrange(2, 12))
                ops.append(("put_many", [(k, k * 3 + 2) for k in batch]))
            elif roll < 0.7:
                ops.append(("delete", key))
            elif roll < 0.9:
                ops.append(("get", key))
            else:
                ops.append(("range_query", key, key + rng.randrange(1, 40)))

        def run(index, name):
            reads = [getattr(index, op[0])(*op[1:]) for op in ops]
            monitors = index.obs.monitors.snapshot()
            index.flush_all()
            reads.append(index.items())
            index.wal.close()
            ops_logged = replay_wal(str(tmp_path / name)).ops
            logged = (tmp_path / name).read_bytes()
            stats, meter = index.stats.snapshot(), index.meter.snapshot()
            return reads, stats, meter, ops_logged, logged, monitors

        def parts(name):
            wal = WriteAheadLog(str(tmp_path / name), fsync_policy="never")
            return {"meter": Meter(), "obs": Observability(monitors=True), "wal": wal}

        plain = make_index(cls=SortednessAwareIndex, **parts("plain.wal"))
        conc = make_index(**parts("conc.wal"))
        expected, actual = run(plain, "plain.wal"), run(conc, "conc.wal")
        names = ("reads", "stats", "meter", "wal ops", "wal bytes", "monitors")
        for name, want, got in zip(names, expected, actual):
            assert got == want, name
        assert expected[2]["sort_comparison"] > 0 and expected[3]

    def test_put_many_chunks_and_flushes(self):
        index = make_index()
        items = [(key, key) for key in range(100)]
        index.put_many(items)
        assert index.stats.inserts == 100
        assert index.stats.flushes >= 5
        assert index.get(42) == 42
        assert len(index.items()) == 100

    def test_put_many_logs_one_frame(self, tmp_path):
        """A batch bigger than the buffer is one WAL frame, as on the plain
        index: a crash mid-batch keeps all of it or none."""

        def logged(cls):
            path = tmp_path / f"{cls.__name__}.wal"
            index = make_index(cls=cls, wal=WriteAheadLog(str(path), fsync_policy="never"))
            index.insert(0, 0)
            index.put_many([(key, key) for key in range(1, 101)])
            assert index.stats.flushes >= 6
            index.wal.close()
            return path.read_bytes()

        plain = logged(SortednessAwareIndex)
        assert logged(ConcurrentSortednessAwareIndex) == plain
        assert len(replay_wal(str(tmp_path / "SortednessAwareIndex.wal")).ops) == 101

    def test_none_value_rejected(self):
        index = make_index()
        with pytest.raises(ValueError):
            index.insert(1, None)
        with pytest.raises(ValueError):
            index.put_many([(1, None)])

    def test_no_locks_leak_after_ops(self):
        """Every call releases the mutex, a refused one too."""
        index = make_index()
        for key in range(40):
            index.insert(key, key)
        index.get(3)
        index.range_query(0, 20)
        index.delete(5)
        index.flush_all()
        assert not index._mutex.locked()
        with pytest.raises(ValueError):
            index.put_many([(1, 1), (2, None)])
        assert not index._mutex.locked()

    @pytest.mark.parametrize("cls", [SortednessAwareIndex, ConcurrentSortednessAwareIndex])
    def test_empty_get_many_is_a_no_op(self, cls):
        """A zero-key batch reads nothing: with the tail past the trigger it
        fires no query sort and charges nothing, on either front-end."""
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16))
        index = cls(tree, config=SMALL, meter=Meter())
        for key in range(10, 0, -1):  # out of order: grows the tail
            index.insert(key, key)
        tail = index.buffer.tail_size
        assert tail >= index.buffer.query_sort_at
        charged = index.meter.snapshot()
        assert index.get_many([]) == []
        assert (index.stats.query_sorts, index.buffer.tail_size) == (0, tail)
        assert index.meter.snapshot() == charged

    @pytest.mark.parametrize("cls", [SortednessAwareIndex, ConcurrentSortednessAwareIndex])
    def test_inverted_range_is_a_no_op(self, cls):
        """``lo > hi`` reads nothing: with a tail below the trigger it bills
        no tail sort, and with one past it fires no query sort; it counts
        nothing either, on either front-end."""
        for n_keys in (4, 10):  # tails of 3 and of 9 against a trigger of 4
            tree = BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16))
            index = cls(tree, config=SMALL, meter=Meter())
            for key in range(n_keys, 0, -1):  # out of order: grows the tail
                index.insert(key, key)
            assert index.buffer.tail_size == n_keys - 1
            charged = index.meter.snapshot()
            stats = index.stats.snapshot()
            sizes = index.buffer.component_sizes()
            assert index.range_query(30, 10) == []
            assert index.meter.snapshot() == charged
            assert index.stats.snapshot() == stats
            assert index.buffer.component_sizes() == sizes


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
        run_threads(threads)
        assert failures == []
        index.flush_all()
        index.check_invariants()
        assert not index._mutex.locked()
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
        run_threads(threads)
        assert failures == []
        index.flush_all()
        index.check_invariants()
        assert len(index.items()) == 3000

    def test_flush_exactness_no_append_overfill(self):
        """Concurrent single-key writers must never overfill the buffer:
        each append and the flush it triggers are one atomic call."""
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
        run_threads(threads)
        assert failures == []
        index.check_invariants()  # would raise had the buffer overfilled
        index.flush_all()
        assert len(index.items()) == 6000
