"""Seeded schedule exploration of the §IV-D lock discipline (DESIGN.md §8).

Replays seeded interleavings of the real
:class:`~repro.core.concurrent.ConcurrentSortednessAwareIndex`: one thread
per worker program, but only the baton holder runs. The baton passes at
every lock request and latch entry, to a seeded pick among the parked
workers whose request ``RWLock._grantable`` admits. When none can run, a
waiting S→X upgrade times out into the front-end's own fallback, or else
the schedule is a deadlock. The explorer is its instance's latch, and at
every latch exit checks §IV-D on the real lock table, the structural
invariants, and each committed write and read against a dict oracle.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.concurrent import BUFFER, ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.locks import DEFAULT_TIMEOUT_S, EXCLUSIVE, BlockingLockManager
from repro.errors import LockTimeout, ReproError
from repro.obs import NULL_OBS
from repro.storage.wal import WriteAheadLog

#: ("insert", k, v) | ("delete", k) | ("put_many", [(k, v), ...]) | ("get", k) |
#: ("range", lo, hi): the like-named front-end method (range_query) on op[1:]
Op = Tuple

#: A buffer of four 4-entry pages whose reads query-sort a 4-entry tail.
DEFAULT_CONFIG = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)

#: Wall-clock seconds one whole schedule may take before it counts as
#: stalled (a worker blocked outside the baton never hands it back), and
#: baton passes per program op (an op takes under ten) before it counts as
#: a livelock.
STALL_TIMEOUT_S, _STEPS_PER_OP = 30.0, 64

_GO, _TIMEOUT, _ABORT = "go", "timeout", "abort"


class ScheduleViolation(ReproError, AssertionError):
    """A schedule broke §IV-D or linearizability, or deadlocked."""


class _Abort(BaseException):
    """Unwinds a parked worker once its schedule has failed."""


@dataclass
class ScheduleStats:
    """What one seeded schedule did (returned by :func:`run_schedule`)."""

    seed: int
    steps: int = 0
    commits: int = 0
    conflicts: int = 0
    flushes: int = 0
    query_sorts: int = 0
    upgrades: int = 0
    upgrade_fallbacks: int = 0
    reads_checked: int = 0


@dataclass(eq=False)
class _Worker:
    name: str
    program: List[Op]
    baton: threading.Lock = field(default_factory=threading.Lock)
    ident: Optional[int] = None
    request: Optional[Tuple[str, str]] = None  # None: a latch entry or the start
    verdict: str = _GO
    done: bool = False
    op: Op = ()
    writes: List[Tuple] = field(default_factory=list)  # the op's WAL-shaped writes
    applied: int = 0  # of ``writes``, committed so far
    expected: object = None  # the oracle's answer at the read's latest latch exit


def generate_programs(
    seed: int, n_workers: int = 3, ops_per_worker: int = 12, key_space: int = 64
) -> List[List[Op]]:
    """Seeded mixed-op programs: inserts, batch puts, deletes, gets, ranges."""
    rng = random.Random(seed)

    def op(worker: int) -> Op:
        roll, key = rng.random(), rng.randrange(key_space)
        if roll < 0.45:
            return ("insert", key, key * 10 + worker + 1)
        if roll < 0.55:
            keys = [rng.randrange(key_space) for _ in range(rng.randrange(2, 8))]
            return ("put_many", [(k, k * 10 + worker + 1) for k in keys])
        if roll < 0.80:
            return ("get", key)
        if roll < 0.90:
            lo = rng.randrange(key_space)
            return ("range", lo, lo + rng.randrange(1, key_space // 4))
        return ("delete", key)

    return [[op(worker) for _ in range(ops_per_worker)] for worker in range(n_workers)]


def _write_units(op: Op) -> List[Tuple]:
    """``op``'s writes as WAL replays them: ("put", k, v) / ("delete", k, None)."""
    if op[0] == "insert":
        return [("put", op[1], op[2])]
    if op[0] == "delete":
        return [("delete", op[1], None)]
    return [("put", key, value) for key, value in op[1]] if op[0] == "put_many" else []


class _ParkingLockManager(BlockingLockManager):
    """Parks the caller before every ``acquire`` until the explorer picks it."""

    def __init__(self, explorer: "ScheduleExplorer"):
        super().__init__(obs=NULL_OBS)
        self.explorer = explorer

    def acquire(self, worker, resource, mode, timeout=DEFAULT_TIMEOUT_S) -> None:
        self.explorer._check_unlatched(f"acquire {mode} on {resource!r}")
        if self.explorer._park((resource, mode)) == _TIMEOUT:
            with self._stats_lock:
                self.timeouts += 1
            raise LockTimeout(f"{worker!r}: S->X upgrade on {resource!r} timed out")
        super().acquire(worker, resource, mode, timeout=timeout)

    def release(self, worker, resource) -> None:
        self.explorer._check_unlatched(f"release {resource!r}")
        super().release(worker, resource)

    def holds(self, worker, resource: str) -> bool:  # lock-free: only the baton holder runs
        lock = self._locks.get(resource)
        return lock is not None and worker in lock._holders

    def held(self) -> List[str]:
        return sorted(name for name, lock in self._locks.items() if lock._holders)


class ScheduleExplorer:
    """Runs one seeded interleaving of the real front-end; see module docstring."""

    def __init__(
        self,
        seed: int,
        programs: Optional[List[List[Op]]] = None,
        config: Optional[SWAREConfig] = None,
        wal: Optional[WriteAheadLog] = None,
        **program_kwargs,
    ):
        self.seed = seed
        self.rng = random.Random(seed ^ 0x5EED)
        self.config = config or DEFAULT_CONFIG
        programs = programs if programs is not None else generate_programs(seed, **program_kwargs)
        self.workers = [_Worker(f"w{i}", list(p)) for i, p in enumerate(programs)]
        for w in self.workers:
            w.baton.acquire()  # a worker runs only once the baton is passed to it
        self._max_steps = _STEPS_PER_OP * (1 + sum(map(len, programs)))
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=16))
        self.index = ConcurrentSortednessAwareIndex(tree, self.config, obs=NULL_OBS, wal=wal)
        self.locks = self.index.locks = _ParkingLockManager(self)
        self.index._latch = self
        self.oracle: Dict[int, object] = {}
        #: Every committed write, in commit order (WAL-shaped).
        self.writes: List[Tuple] = []
        #: (worker, resource, mode or "S->X", holders) per request that waited.
        self.waits: List[Tuple[str, str, str, Tuple[str, ...]]] = []
        self.stats = ScheduleStats(seed=seed)
        self._running: Optional[_Worker] = None
        self._latched = False
        self._before = (0, 0, 0)
        self._error: Optional[BaseException] = None
        self._finished = threading.Lock()

    def _violation(self, message: str) -> ScheduleViolation:
        return ScheduleViolation(f"seed {self.seed}: {message}")

    # -- the baton -----------------------------------------------------------
    def _ready(self, w: _Worker) -> bool:
        lock = w.request and self.locks._locks.get(w.request[0])
        return lock is None or lock._grantable(w.ident, w.request[1])

    def _upgrading(self, w: _Worker) -> bool:
        return w.request[1] == EXCLUSIVE and self.locks.holds(w.ident, w.request[0])

    def _park(self, request: Optional[Tuple[str, str]]) -> str:
        """Hand the baton on; returns the verdict the caller resumes with."""
        w = self._running
        if w is None:  # outside a schedule: the plain blocking manager
            return _GO
        w.request = request
        if not self._ready(w):
            names = {other.ident: other.name for other in self.workers}
            holders = self.locks.holders(request[0]) - {w.ident}
            mode = "S->X" if self._upgrading(w) else request[1]
            blockers = tuple(sorted(names.get(h, repr(h)) for h in holders))
            self.waits.append((w.name, request[0], mode, blockers))
        self._pass_baton()
        w.baton.acquire()
        if w.verdict == _ABORT:
            raise _Abort()
        return w.verdict

    def _pass_baton(self) -> None:
        """Resume the next worker (a seeded pick), or wake :meth:`run`."""
        live = [w for w in self.workers if not w.done]
        if not live:
            self._running = None
            self._finished.release()
            return
        ready = [w for w in live if self._ready(w)]
        upgrades = [w for w in live if not ready and self._upgrading(w)]
        if self._error is None and self.stats.steps >= self._max_steps:
            self._error = self._violation(f"livelock ({self.stats.steps} baton passes)")
        elif self._error is None and not ready and not upgrades:
            waiting = ", ".join(f"{w.name} on {w.request}" for w in live)
            self._error = self._violation(f"deadlock ({waiting})")
        if self._error is not None:
            nxt, verdict = live[0], _ABORT
        elif ready:
            nxt, verdict = self.rng.choice(ready), _GO
        else:
            nxt, verdict = self.rng.choice(upgrades), _TIMEOUT
        self.stats.steps += 1
        nxt.verdict = verdict
        self._running = nxt
        nxt.baton.release()

    def _work(self, w: _Worker) -> None:
        try:
            w.baton.acquire()
            if w.verdict == _ABORT:
                raise _Abort()
            for op in w.program:
                self._run_op(w, op)
        except _Abort:
            pass
        except BaseException as exc:  # re-raised by run() in the caller's thread
            self._error = self._error or exc
        w.done = True
        self._pass_baton()

    def _run_op(self, w: _Worker, op: Op) -> None:
        w.op, w.writes, w.applied = op, _write_units(op), 0
        method = "range_query" if op[0] == "range" else op[0]
        result = getattr(self.index, method)(*op[1:])
        if w.applied != len(w.writes):
            raise self._violation(f"{w.name}'s {op!r} committed {w.applied} writes")
        if op[0] in ("get", "range"):
            if result != w.expected:
                raise self._violation(f"{w.name}'s {op!r} gave {result!r}, not {w.expected!r}")
            self.stats.reads_checked += 1
        self.stats.commits += 1

    # -- the latch -----------------------------------------------------------
    def _check_unlatched(self, what: str) -> None:
        if self._latched and self._running is not None:
            raise self._violation(f"{self._running.name} called {what} under the latch")

    def __enter__(self) -> "ScheduleExplorer":
        if self._running is not None:
            self._park(None)
            s, buffer = self.index.stats, self.index.buffer
            self._before = (s.flushes + s.query_sorts, buffer._seq, s.inserts + s.deletes)
        self._latched = True
        return self

    def __exit__(self, exc_type, *_) -> None:
        self._latched = False
        w = self._running
        if w is None or exc_type is not None:
            return
        index, locks = self.index, self.locks
        stats, buffer = index.stats, index.buffer
        restructures, seq, writes = self._before
        restructured = stats.flushes + stats.query_sorts != restructures
        if restructured or buffer._seq != seq:
            exclusive = locks.holds(w.ident, BUFFER) and locks.mode(BUFFER) == EXCLUSIVE
            pages = [locks.holds(w.ident, page) for page in index._page_resources()]
            if restructured and not (exclusive and all(pages)):
                raise self._violation(f"{w.name} flushed or sorted without X + every page")
            if not (exclusive or any(pages)):
                raise self._violation(f"{w.name} appended without a page lock or buffer X")
        buffer.check_invariants()
        index.backend.check_invariants()
        moved = stats.inserts + stats.deletes - writes
        for kind, key, value in w.writes[w.applied : w.applied + moved]:
            if kind == "put":
                self.oracle[key] = value
            else:
                self.oracle.pop(key, None)
            self.writes.append((kind, key, value))
        w.applied += moved
        if w.op[0] == "get":
            w.expected = self.oracle.get(w.op[1])
        elif w.op[0] == "range":
            lo, hi = w.op[1], w.op[2]
            w.expected = [(k, self.oracle[k]) for k in sorted(self.oracle) if lo <= k <= hi]

    # -- one schedule --------------------------------------------------------
    def run(self) -> ScheduleStats:
        threads = [threading.Thread(target=self._work, args=(w,)) for w in self.workers]
        for thread, w in zip(threads, self.workers):
            thread.daemon = True
            thread.start()
            w.ident = thread.ident
        self._finished.acquire()  # released by whoever finishes last
        self._pass_baton()
        finished = self._finished.acquire(timeout=STALL_TIMEOUT_S)
        if not finished:
            raise self._violation("stalled")
        for thread in threads:
            thread.join()
        if self._error is not None:
            raise self._error
        inner, stats = self.index.inner, self.stats
        stats.conflicts = len(self.waits)
        stats.flushes, stats.query_sorts = inner.stats.flushes, inner.stats.query_sorts
        stats.upgrades, stats.upgrade_fallbacks = self.locks.upgrades, self.index.upgrade_fallbacks
        if self.locks.held():
            raise self._violation(f"lock leaked: {self.locks.held()}")
        inner.flush_all()
        actual, expected = inner.items(), sorted(self.oracle.items())
        if actual != expected:
            raise self._violation(f"final state diverged from the oracle: {actual} != {expected}")
        return stats


def run_schedule(seed: int, **kwargs) -> ScheduleStats:
    """Run one seeded interleaving (``kwargs`` as :class:`ScheduleExplorer`);
    raises :class:`ScheduleViolation`, or the error a worker hit, on failure."""
    return ScheduleExplorer(seed, **kwargs).run()


def explore(n_schedules: int = 1000, base_seed: int = 0, **kwargs) -> List[ScheduleStats]:
    """Each schedule's stats over ``n_schedules`` seeds; raises on the first violation."""
    return [run_schedule(base_seed + offset, **kwargs) for offset in range(n_schedules)]
