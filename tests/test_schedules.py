"""Tests for the seeded schedule explorer (repro.core.schedules), which
drives the real ConcurrentSortednessAwareIndex."""

from __future__ import annotations

import itertools
import os
import threading

import pytest

from repro.core.schedules import ScheduleExplorer, ScheduleStats, ScheduleViolation
from repro.core.schedules import explore, generate_programs, run_schedule
from repro.storage.wal import WriteAheadLog, replay_wal

#: The acceptance bar: this many seeded interleavings must replay with
#: zero invariant or linearizability violations.
N_SCHEDULES = 1000


@pytest.fixture
def one_cpu():
    """Pin this thread, and so the schedule threads it starts, to one CPU.
    Only one of them runs at a time, and a same-CPU handoff is cheaper than
    a cross-CPU wakeup: 1,000 seeds take 3.5 s pinned and 6.6-7.2 s
    unpinned on a 2-CPU host."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    yield
    if cpus:
        os.sched_setaffinity(0, cpus)


class TestExploration:
    def test_thousand_seeded_interleavings(self, one_cpu):
        stats = explore(n_schedules=N_SCHEDULES)
        # Every schedule committed its full program.
        assert len(stats) == N_SCHEDULES and all(s.commits == 36 for s in stats)
        # The exploration actually exercised the interesting regimes:
        for regime in ("conflicts", "flushes", "query_sorts", "upgrades", "upgrade_fallbacks"):
            assert sum(getattr(s, regime) for s in stats) > 0, f"no {regime} explored"

    def test_deterministic_replay(self):
        first = run_schedule(1234)
        assert first == run_schedule(1234)
        assert isinstance(first, ScheduleStats)

    def test_different_seeds_differ(self):
        assert run_schedule(1) != run_schedule(2)


class TestPrograms:
    def test_generation_is_seeded(self):
        assert generate_programs(5) == generate_programs(5)
        assert generate_programs(5) != generate_programs(6)
        ops = [op for seed in range(5) for program in generate_programs(seed) for op in program]
        assert {op[0] for op in ops} == {"insert", "put_many", "delete", "get", "range"}

    def test_explicit_program_final_state(self):
        programs = [
            [("insert", 1, 10), ("insert", 2, 20), ("delete", 1)],
            [("insert", 3, 30), ("get", 2), ("range", 0, 10)],
        ]
        explorer = ScheduleExplorer(7, programs=programs)
        explorer.run()
        assert explorer.oracle == {2: 20, 3: 30}
        assert explorer.index.items() == [(2, 20), (3, 30)]

    def test_delete_of_missing_key(self):
        programs = [[("delete", 42), ("get", 42), ("insert", 1, 11), ("delete", 99)]]
        explorer = ScheduleExplorer(3, programs=programs)
        assert explorer.run().commits == 4
        assert explorer.index.items() == [(1, 11)]


def test_wal_order_is_commit_order(tmp_path):
    """The front-end logs each write under the latch where it applies it,
    so the WAL replays the schedule's writes in commit order."""
    for seed in range(100):
        path = str(tmp_path / f"{seed}.wal")
        wal = WriteAheadLog(path, fsync_policy="never")
        explorer = ScheduleExplorer(seed, wal=wal)
        explorer.run()
        wal.close()
        assert explorer.writes and replay_wal(path).ops == explorer.writes


def test_put_many_and_readers_schedules():
    """Three writers' chunked put_many batches interleave with a reader
    under seeded schedules; every read and the final state match the
    oracle."""
    items = [[(k, k * 10 + tid) for k in range(tid, 300, 3)] for tid in range(3)]
    programs = [[("put_many", batch[s : s + 20]) for s in range(0, 100, 20)] for batch in items]
    programs.append([("get", k) for k in range(0, 300, 15)])
    for seed in range(10):
        explorer = ScheduleExplorer(seed, programs=programs)
        assert explorer.run().reads_checked == 20
        assert len(explorer.oracle) == 300


def test_no_overfill_schedules():
    """Single-key writers beside a put_many writer: the reservation counter
    keeps flush predictions exact, so no chunk flushes without sweeping
    the in-flight appenders, and the explorer checks the buffer's
    invariants at every latch exit."""
    programs = [[("insert", tid * 1000 + i, i + 1) for i in range(40)] for tid in range(3)]
    batches = [[(5000 + i, i + 1) for i in range(s, s + 5)] for s in range(0, 40, 5)]
    programs.append([("put_many", batch) for batch in batches])
    for seed in range(10):
        explorer = ScheduleExplorer(seed, programs=programs)
        assert explorer.run().flushes > 0
        assert len(explorer.oracle) == 160


def lossy_add(explorer):
    """Every third buffer append is silently dropped."""
    add, calls = explorer.index.buffer.add, itertools.count(1)
    explorer.index.buffer.add = lambda *args, **kw: next(calls) % 3 and add(*args, **kw)


def stale_get(explorer):
    """Lookups ignore both the buffer and the tree."""
    explorer.index.inner._get = lambda key: None


def leaky_pages(explorer):
    """Page locks are never released."""
    release = explorer.locks.release
    explorer.locks.release = lambda w, r: r.startswith("page:") or release(w, r)


def unswept_flush(explorer):
    """Flushes and query sorts do not drain in-flight appenders."""
    explorer.index._sweep_pages = lambda worker: []


class TestHarnessHasTeeth:
    def _check(self, sabotage, match=None, programs=None, seed=11):
        explorer = ScheduleExplorer(seed, programs=programs)
        sabotage(explorer)
        with pytest.raises(ScheduleViolation, match=match):
            explorer.run()

    def test_lost_write_is_detected(self):
        self._check(lossy_add)

    def test_stale_read_is_detected(self):
        self._check(stale_get, "gave None")

    def test_leaked_lock_is_detected(self):
        self._check(leaky_pages, "lock leaked", programs=[[("insert", 1, 1)]], seed=0)

    def test_unswept_flush_is_detected(self):
        self._check(unswept_flush, "without X \\+ every page")

    @pytest.mark.parametrize("sabotage", [lossy_add, stale_get, leaky_pages, unswept_flush])
    def test_no_worker_outlives_a_failing_schedule(self, sabotage):
        before, failures = threading.active_count(), 0
        for seed in range(10):
            explorer = ScheduleExplorer(seed)
            sabotage(explorer)
            try:
                explorer.run()
            except ScheduleViolation:
                failures += 1
            assert threading.active_count() == before
        assert failures
