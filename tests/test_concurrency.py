"""The §IV-D lock discipline of ConcurrentSortednessAwareIndex on explicit
programs, replayed by the seeded schedule explorer. ``explorer.waits``
holds ``(worker, resource, mode, holders)`` per request that had to wait."""

from __future__ import annotations

import dataclasses
import functools
import threading

import pytest

from repro.core.concurrent import BUFFER
from repro.core.config import SWAREConfig
from repro.core.locks import EXCLUSIVE
from repro.core.schedules import DEFAULT_CONFIG, ScheduleExplorer
from repro.errors import ConfigError, ReproError

NO_QUERY_SORT = dataclasses.replace(DEFAULT_CONFIG, query_sorting_threshold=1.0)
#: Out-of-order inserts that leave a tail past the query-sort trigger (4).
DESCENDING = [("insert", key, key) for key in range(10, 0, -1)]
#: Two workers reading back descending inserts: their reads keep crossing
#: the trigger and often upgrade at once (an upgrade field).
TWO_READERS_OVER_A_TAIL = [
    [op for key in range(top, top - 16, -2) for op in (("insert", key, key), ("get", key))]
    for top in (100, 99)
]


def explore_program(programs, seeds=range(40), config=DEFAULT_CONFIG, spy=None):
    """Run ``programs`` under each seed; returns the finished explorers.
    ``spy = (buffer method, f)`` wraps that method as ``f(explorer, real, *args)``."""
    explorers = [ScheduleExplorer(seed, programs=programs, config=config) for seed in seeds]
    for explorer in explorers:
        if spy:
            buffer, (method, wrapper) = explorer.index.buffer, spy
            setattr(buffer, method, functools.partial(wrapper, explorer, getattr(buffer, method)))
        explorer.run()
    return explorers


def waits(programs, **kwargs):
    return {wait for e in explore_program(programs, **kwargs) for wait in e.waits}


class TestLockManager:
    """The lock table's grant rules, as applied to the front-end's requests."""

    def test_shared_locks_coexist(self):
        explorers = explore_program([[("get", 1)], [("range", 0, 9)]], config=NO_QUERY_SORT)
        assert all(e.stats.conflicts == 0 and e.stats.reads_checked == 2 for e in explorers)

    def test_exclusive_excludes(self):
        """A put_many that fills the buffer flushes under buffer X; a reader waits."""
        programs = [[("put_many", [(key, key) for key in range(16)])], [("get", 3)]]
        assert ("w1", "buffer", "S", ("w0",)) in waits(programs)

    def test_shared_blocks_exclusive_from_other(self):
        """A direct tree delete needs buffer X, so it waits for a reader."""
        assert ("w1", "buffer", "X", ("w0",)) in waits([[("get", 1)], [("delete", 99)]])

    def test_sole_holder_upgrades(self):
        [explorer] = explore_program([DESCENDING + [("get", 4)]], seeds=[0])
        s = explorer.stats
        assert (s.upgrades, s.upgrade_fallbacks, s.query_sorts, s.conflicts) == (1, 0, 1, 0)

    def test_upgrade_with_other_readers_conflicts(self):
        """An upgrade waits for the other readers to leave."""
        upgrades = {w for w in waits(TWO_READERS_OVER_A_TAIL) if w[2] == "S->X"}
        assert upgrades == {("w0", BUFFER, "S->X", ("w1",)), ("w1", BUFFER, "S->X", ("w0",))}

    def test_release_frees(self):
        """Every lock is free after a schedule; the index serves plain calls."""
        for explorer in explore_program(TWO_READERS_OVER_A_TAIL, seeds=range(5)):
            assert explorer.locks.held() == []
            explorer.index.insert(500, 5)
            assert explorer.index.get(500) == 5

    def test_release_unheld_raises(self):
        """A front-end that releases a lock twice fails its schedule."""
        explorer = ScheduleExplorer(0, programs=[[("insert", 1, 1)]])
        release = explorer.locks.release
        explorer.locks.release = lambda w, r: [release(w, r), release(w, r)]
        with pytest.raises(ReproError, match="does not hold"):
            explorer.run()

    def test_trace_recorded(self):
        """Each wait is recorded once, naming the other workers that held
        the resource, and the trace replays with its seed."""
        first, second = ScheduleExplorer(5), ScheduleExplorer(5)
        assert first.run().conflicts == len(first.waits) > 0
        second.run()
        assert (first.waits, first.writes) == (second.waits, second.writes)
        assert all(holders and worker not in holders for worker, _, _, holders in first.waits)


class TestProtocol:
    """The §IV-D discipline, on explicit programs."""

    def test_append_path_releases_buffer_lock(self):
        """A non-flushing append holds its page lock, not the buffer lock."""
        held = []

        def spy(explorer, add, *args, **kwargs):
            me = threading.get_ident()
            held.append((explorer.locks.holds(me, BUFFER), explorer.locks.holds(me, "page:0")))
            add(*args, **kwargs)

        explore_program([[("insert", 1, 1)], [("insert", 2, 2)]], seeds=range(20), spy=("add", spy))
        assert held and set(held) == {(False, True)}

    def test_same_page_appends_conflict(self):
        """Two appenders to one page serialise."""
        found = waits([[("insert", 1, 1)], [("insert", 2, 2)]])
        assert {("w0", "page:0", "X", ("w1",)), ("w1", "page:0", "X", ("w0",))} & found

    def test_flush_blocks_everything(self):
        """A flush's page sweep waits for an in-flight appender."""
        programs = [[("insert", 1, 1)], [("put_many", [(10, 10), (11, 11), (12, 12)])]]
        config = SWAREConfig(buffer_capacity=4, page_size=2)
        assert ("w1", "page:0", "X", ("w0",)) in waits(programs, config=config)

    def test_queries_share(self):
        """Readers never wait for each other, even beside a writer."""
        programs = [[("insert", k, k) for k in range(12)], [("get", 2)] * 2, [("range", 0, 9)] * 2]
        found = waits(programs, config=NO_QUERY_SORT)
        assert found and all(w[0] == "w0" or "w0" in w[3] for w in found)

    def test_query_blocks_flush_check(self):
        """A reader blocks a writer's instantaneous flush check."""
        assert ("w1", "buffer", "X", ("w0",)) in waits([[("get", 1)], [("insert", 2, 2)]])

    def test_query_sort_upgrade_requires_sole_reader(self):
        """Every query sort runs with its reader as the sole buffer holder."""
        sorts = []

        def spy(explorer, query_sort):
            holders = explorer.locks.holders(BUFFER)
            sorts.append((explorer.locks.mode(BUFFER), holders == {threading.get_ident()}))
            return query_sort()

        explore_program(TWO_READERS_OVER_A_TAIL, seeds=range(30), spy=("query_sort", spy))
        assert sorts and set(sorts) == {(EXCLUSIVE, True)}

    def test_upgrade_requires_active_query(self):
        """Only readers upgrade: writers with flushes and tree deletes take
        buffer X from no hold."""
        evens = [("insert", k, k) for k in range(0, 40, 2)] + [("delete", 999)]
        odds = [("put_many", [(k, k) for k in range(1, 40, 2)])]
        explorers = explore_program([evens, odds], seeds=range(20))
        assert all(e.stats.upgrades == 0 and e.stats.flushes > 0 for e in explorers)

    def test_page_bounds(self):
        """Slots past the last whole page lock the last page."""
        config = SWAREConfig(buffer_capacity=10, page_size=4)
        programs = [[("insert", k, k) for k in range(5)], [("insert", k, k) for k in range(10, 15)]]
        for explorer in explore_program(programs, seeds=range(10), config=config):
            assert sorted(explorer.locks._locks) == [BUFFER, "page:0", "page:1"]

    def test_rejects_zero_pages(self):
        """The smallest buffer has one page: every append and every flush
        sweep takes ``page:0``, and the schedules still commit."""
        with pytest.raises(ConfigError):
            SWAREConfig(buffer_capacity=4, page_size=8)
        config = SWAREConfig(buffer_capacity=4, page_size=4)
        programs = [[("insert", k, k) for k in range(first, 12, 2)] for first in (0, 1)]
        for explorer in explore_program(programs, seeds=range(10), config=config):
            assert explorer.stats.flushes > 0 and explorer.stats.commits == 12
            assert sorted(explorer.locks._locks) == [BUFFER, "page:0"]

    def test_full_schedule(self):
        """A mixed program commits every op under every seed."""
        programs = [[("insert", 1, 10), ("put_many", [(2, 20), (3, 30)]), ("delete", 1)],
                    [("insert", 4, 40), ("get", 2), ("range", 0, 10)],
                    [("delete", 3), ("get", 4), ("insert", 5, 50)]]
        for explorer in explore_program(programs):
            assert (explorer.stats.commits, explorer.stats.reads_checked) == (9, 3)
            assert {2, 4, 5} <= set(explorer.oracle) <= {2, 3, 4, 5}
