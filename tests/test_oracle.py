"""One oracle: every backend and deployment shape against one dict model.

SWARE only changes how fast data gets in (§IV): every backend, wrapper and
deployment shape must answer like one ordered map, whatever the flush
timing. :class:`OracleMachine` drives a *subject* with the rules put,
put_many, delete, get, get_many, range, flush, query_sort, checkpoint,
crash, recover, rebuild, split, via and burst, and checks every answer
against a dict.

Shapes (one subject class each) × the ``core.factory`` registry × the key
domains of ``tests/key_domains.py``:

* :class:`Bare` — the backend alone. A sorted batch is a
  ``bulk_load_append``, refused with a duplicate or at or below the max key;
  any other batch is the B+-tree's ``insert_many``, or a loop of inserts on
  the trees without one. (The registry's ``sa_btree`` is the SWARE shape
  over its own tree.)
* :class:`Sware` — ``SortednessAwareIndex`` under a drawn ``SWAREConfig``,
  beside a *twin* that takes every batch as a loop of single ops and
  indexes its tail at every append (``_EagerBuffer``). Both must show the
  same stats and charges (a batch read may coalesce the tree's own
  probes), and the subject's buffer, fully synced, must hold the twin's
  filters and Zonemaps bit for bit.
* :class:`Concurrent` — ``ConcurrentSortednessAwareIndex``, driven from
  one thread; ``burst`` sends a list of puts and deletes from ``CLIENTS``
  threads at once.
* :class:`Sharded` — ``ShardedSortednessAwareIndex``: two WAL-backed
  shards that split at 12 entries, I/O through a ``FaultyEnv`` until the
  first restart, so ``crash`` kills it at a drawn I/O boundary.
* :class:`Served` — the same index behind an ``IndexServer`` with group
  commit, driven over loopback through ``CLIENTS`` ``SyncIndexClient``
  connections. ``via`` picks the connection the other verbs use, so a
  write on one socket is read back through another; ``burst`` sends a
  list of puts and deletes over all of them at once.

The ``Sware`` and ``Concurrent`` subjects carry a ``Meter``, so their
lookups also run the paper's billed searches and check them against the
answer; after every step each also looks up every tail key, in the open
segment or a query-sorted block, on a metered copy of its buffer
(:func:`_probe_tail`), so a filter or block search that turns a buffered key
away fails whether or not a drawn GET asked for it.

A rule a shape cannot run is off by precondition (``Subject.rules``). The
durable and served shapes draw int64 keys only (the WAL, page and wire
formats are s64). After every step each subject also checks what only it
can: ``check_invariants``, watermarks, the twin, shard-map order.

To add a shape, subclass :class:`Subject` (it forwards the verbs to
``index``) and list it in :func:`_shapes`. To pin a regression, add a row
to ``PROGRAMS``: a fixed op sequence replayed through the same ``apply``.
"""

import asyncio
import copy
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import kernels
from repro.core.buffer import DELETED, HIT, TOMBSTONE, MeteredSWAREBuffer
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.betree.betree import BeTree, BeTreeConfig
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.factory import make_sa_btree
from repro.core.stats import SWAREStats
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.errors import BulkLoadError, CheckpointUnsupportedError
from repro.lsm import LSMConfig, LSMTree
from repro.net.client import ServerError, SyncIndexClient
from repro.net.server import IndexServer
from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex, recover_sharded
from repro.storage.costmodel import Meter
from repro.storage.faults import FaultyEnv, SimulatedCrash
from repro.storage.pagefile import CheckpointStore, rebuild_index
from tests.key_domains import INT64, WIDE, KeyDomain

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
FULL = (-(2**80), 2**80)  # wider than every drawn key
SMALL = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)
CLIENTS = 3  # connections the served shape opens to its one server

#: The registry backends, one name per constructor shape.
BACKEND_NAMES = ("sa_btree", "btree", "betree", "lsm")

#: The registry at test sizes: a few dozen ops cross node splits, flushes
#: and compactions.
BACKENDS = {
    "sa_btree": lambda leaf: make_sa_btree(SMALL, leaf_capacity=leaf, internal_capacity=4),
    "btree": lambda leaf: BPlusTree(BPlusTreeConfig(leaf_capacity=leaf, internal_capacity=4)),
    "betree": lambda leaf: BeTree(BeTreeConfig(node_size=8, leaf_capacity=leaf)),
    "lsm": lambda leaf: LSMTree(LSMConfig(memtable_capacity=2 * leaf)),
}
PAGED = ("sa_btree", "btree")  # a page image: checkpoints, shard splits


def tree(name, leaf=4):
    """Registry backend ``name`` as a bare tree (``sa_btree``: its B+-tree)."""
    backend = BACKENDS[name](leaf)
    return backend.backend if isinstance(backend, SortednessAwareIndex) else backend


def _fits_int64(*keys):
    return all(INT64_MIN <= key <= INT64_MAX for key in keys)


def _sync_every_level(buffer):
    buffer._sync_tail_index()
    for page in range(len(buffer._page_bfs)):
        buffer._sync_page_filter(page, min((page + 1) * buffer.config.page_size, buffer.tail_size))


class _EagerBuffer(MeteredSWAREBuffer):
    """Indexes every append, at every level, before returning."""

    def add(self, key, value, tombstone=False):
        full = super().add(key, value, tombstone)
        _sync_every_level(self)
        return full

    def add_many(self, pairs):
        super().add_many(pairs)
        _sync_every_level(self)


def _tail_index(buffer):
    bits = lambda bf: bf and (bytes(bf._bits), bf.n_added)  # noqa: E731
    zones = [(zone.min_key, zone.max_key) for zone in buffer.page_zonemaps._zones]
    return bits(buffer.global_bf), [bits(bf) for bf in buffer._page_bfs], zones


def _probe_tail(buffer):
    """Look every tail key up on a copy of metered ``buffer`` (fresh meter
    and counters, its own filters and slot index), those of the open
    segment and those only in query-sorted blocks: ``lookup`` raises if
    §IV-A's billed filter walk or §IV-B's billed search of a block misses
    the slot it answers with, and the answer is the key's newest version."""
    probe = copy.copy(buffer)
    probe.meter, probe.stats, probe._slot_of = Meter(), SWAREStats(), dict(buffer._slot_of)
    probe.page_zonemaps, probe.global_bf, probe._page_bfs = copy.deepcopy(
        (buffer.page_zonemaps, buffer.global_bf, buffer._page_bfs)
    )
    newest = dict(zip(buffer._tail_keys, buffer._tail_vals))
    for key, value in newest.items():
        assert probe.lookup(key) == ((TOMBSTONE, None) if value is DELETED else (HIT, value))


def _items(index):
    """``index.items()`` with the query-sort trigger held off: sorting the
    tail is the read rules' business, not the check's."""
    buffer = index.buffer
    trigger, buffer._query_sort_len = buffer._query_sort_len, math.inf
    try:
        return index.items()
    finally:
        buffer._query_sort_len = trigger


def _burst(ops, targets):
    """Each op through ``targets[key % CLIENTS]`` in list order, one thread
    per target, all at once: every op on a key rides one lane, in order."""

    def drive(target, lane):
        for kind, *args in lane:
            getattr(target, kind)(*args)

    lanes = [[op for op in ops if op[1] % CLIENTS == c] for c in range(CLIENTS)]
    with ThreadPoolExecutor(CLIENTS) as pool:
        for done in [pool.submit(drive, *pair) for pair in zip(targets, lanes)]:
            done.result(timeout=30)


def _charges(meter):
    """Every charge but the tree's own probes (bucket ``tree_search``)."""
    probes = meter.bucket_counts.get("tree_search", {})
    counts = {kind: n - probes.get(kind, 0) for kind, n in meter.counts.items()}
    buckets = {name: dict(c) for name, c in meter.bucket_counts.items() if name != "tree_search"}
    return {k: n for k, n in counts.items() if n}, {k: c for k, c in buckets.items() if c}


# ----------------------------------------------------------------------
# subjects
# ----------------------------------------------------------------------
class Subject:
    """Forwards the machine's verbs to ``index``; a shape overrides the rest."""

    rules = frozenset()
    errors = ValueError

    def __init__(self, backend, domain, tmp, leaf, config):
        self.backend, self.domain, self.tmp, self.leaf = backend, domain, tmp, leaf

    def rejects(self, items):
        """The error the subject must raise for batch ``items``, or None."""
        return self.errors if any(v is None for _k, v in items) else None

    def put(self, key, value):
        return (getattr(self.index, "put", None) or self.index.insert)(key, value)

    def put_many(self, items):
        return self.index.put_many(items)

    def delete(self, key):
        return self.index.delete(key)

    def get(self, key):
        return self.index.get(key)

    def get_many(self, keys):
        return self.index.get_many(keys)

    def range(self, spans):
        return [self.index.range_query(lo, hi) for lo, hi in spans]

    def check(self, machine):
        pass

    def close(self):
        pass


class Bare(Subject):
    """A registry backend on its own."""

    rules = frozenset({"checkpoint"})

    def __init__(self, *args):
        super().__init__(*args)
        self.index = tree(self.backend, self.leaf)
        self.restored = False
        assert isinstance(self.index, TreeBackend)

    def _bulk(self, items):
        return len(items) > 1 and all(a <= b for (a, _x), (b, _y) in zip(items, items[1:]))

    def rejects(self, items):
        top = self.index.max_key
        if self._bulk(items) and (
            not kernels.column_strictly_increasing([k for k, _v in items]) or top is not None and items[0][0] <= top
        ):
            return BulkLoadError
        return None

    def put_many(self, items):
        if self._bulk(items):  # what a SWARE flush hands the tree: a key column
            keys = self.domain.column([k for k, _v in items])
            return self.index.bulk_load_append(kernels.ItemColumns(keys, [v for _k, v in items]))
        insert_many = getattr(self.index, "insert_many", None)  # the B+-tree's alone
        if insert_many is not None:
            return insert_many(items)
        for key, value in items:
            self.index.insert(key, value)

    def get_many(self, keys):
        if hasattr(self.index, "get_many"):
            return self.index.get_many(keys)
        return [self.index.get(k) for k in keys]

    def checkpoint(self):
        store = CheckpointStore(str(self.tmp / "ck.db"))
        if self.backend not in PAGED:
            with pytest.raises(CheckpointUnsupportedError, match="B\\+-tree") as error:
                store.save_btree(self.index)
            assert isinstance(error.value, TypeError)
            return None
        store.save_btree(self.index)
        self.index, self.restored = store.load_btree(), True  # the restored tree carries on
        return list(self.index.iter_items())

    def contents(self):
        rows = self.index.range_query(*FULL)
        assert sorted(self.index.iter_items()) == rows and len(self.index) == len(rows)
        return rows

    def check(self, machine):
        self.index.check_invariants()
        # Watermarks bound the live keys (the SWARE read path and items()
        # trust them), and until a restore, which starts them from the pages,
        # every key ever stored: they never shrink.
        low, high = self.index.min_key, self.index.max_key
        if not self.restored:
            assert (low, high) == (machine.low, machine.high)
        elif machine.model:
            assert low <= min(machine.model) and high >= max(machine.model)


class _Front(Subject):
    """The verbs of ``SortednessAwareIndex`` and its concurrent front-end."""

    rules = frozenset({"flush", "query_sort", "checkpoint"})

    def flush(self):
        self.index.flush_all()

    def query_sort(self):
        self.inner.buffer.query_sort()

    def checkpoint(self):
        store = CheckpointStore(str(self.tmp / "ck.db"))
        if self.backend not in PAGED:
            with pytest.raises(CheckpointUnsupportedError):
                self.index.checkpoint(store)
            return None
        self.index.checkpoint(store)
        return list(store.load_btree().iter_items())

    def contents(self):
        return _items(self.inner)


class Sware(_Front):
    """``SortednessAwareIndex`` beside its eager, loop-batched twin."""

    def __init__(self, backend, domain, tmp, leaf, config):
        super().__init__(backend, domain, tmp, leaf, config)
        self.index = self.inner = SortednessAwareIndex(tree(backend, leaf), config, meter=Meter())
        self.twin = SortednessAwareIndex(tree(backend, leaf), config, meter=Meter())
        self.twin.buffer = _EagerBuffer(config, meter=self.twin.meter, stats=self.twin.stats)

    def mirror(self, op):
        """``op`` on the twin, batches as loops."""
        kind, *args = op
        twin = self.twin
        if kind in ("put", "delete", "get"):
            getattr(twin, "insert" if kind == "put" else kind)(*args)
        elif kind == "put_many":
            for key, value in args[0]:
                twin.insert(key, value)
        elif kind == "get_many":
            for key in args[0]:
                twin.get(key)
        elif kind == "range":
            for lo, hi in args[0]:
                twin.range_query(lo, hi)
        elif kind in ("flush", "checkpoint"):
            twin.flush_all()
        elif kind == "query_sort":
            twin.buffer.query_sort()

    def contents(self):
        rows = super().contents()
        assert _items(self.twin) == rows
        return rows

    def check(self, machine):
        index, twin = self.index, self.twin
        assert index.stats.snapshot() == twin.stats.snapshot()
        assert _charges(index.meter) == _charges(twin.meter)
        for side in (index, twin):  # a tree's check may charge the meter
            side.buffer.check_invariants()
            getattr(side.backend, "check_invariants", lambda: None)()
        # Sync a copy: the subject must meet its own probes unsynced.
        synced = copy.copy(index.buffer)
        state = index.buffer.page_zonemaps, index.buffer.global_bf, index.buffer._page_bfs
        synced.page_zonemaps, synced.global_bf, synced._page_bfs = copy.deepcopy(state)
        _sync_every_level(synced)
        assert _tail_index(synced) == _tail_index(twin.buffer)
        _probe_tail(index.buffer)


class Concurrent(_Front):
    """``ConcurrentSortednessAwareIndex``: one thread, or ``CLIENTS`` at once."""

    rules = _Front.rules | {"burst"}

    def __init__(self, backend, domain, tmp, leaf, config):
        super().__init__(backend, domain, tmp, leaf, config)
        self.index = ConcurrentSortednessAwareIndex(tree(backend, leaf), config, meter=Meter())
        self.inner = self.index.inner

    def burst(self, ops):
        _burst(ops, [self] * CLIENTS)

    def check(self, machine):
        self.index.check_invariants()
        assert not self.index._mutex.locked()
        _probe_tail(self.inner.buffer)


def _sharded_config(config, fsync_policy):
    """Two shards over (0, 100), split at 12 live entries."""
    return ShardedConfig(n_shards=2, split_threshold=12, fsync_policy=fsync_policy,
                         initial_key_range=(0, 100), index_config=config)


class Sharded(Subject):
    """Two WAL-backed shards, all I/O through a ``FaultyEnv`` until the
    first restart."""

    rules = frozenset({"flush", "checkpoint", "crash", "recover", "rebuild", "split"})

    def __init__(self, *args):
        super().__init__(*args)
        self.root = str(self.tmp / "db")
        self.backend_factory = partial(tree, self.backend, self.leaf)
        self.env, self.files = FaultyEnv(), []
        self.index = ShardedSortednessAwareIndex(
            self.root,
            _sharded_config(args[-1], "always"),
            backend_factory=self.backend_factory,
            opener=self._open,
            replace=self.env.replace,
        )

    @property
    def crashable(self):
        return self.index._opener == self._open

    def _open(self, path, mode="rb"):
        self.files.append(self.env.open(path, mode))
        return self.files[-1]

    def rejects(self, items):
        return self.errors if any(v is None or not _fits_int64(k) for k, v in items) else None

    def flush(self):
        for shard in self.index._shards:
            shard.index.flush_all()

    def checkpoint(self):
        self.index.checkpoint_all()

    def split(self, key):
        self.index._split_shard(self.index._route(key))

    def crash(self, op, at):
        """Run ``op`` with a crash armed ``at`` I/O operations ahead, kill the
        process whether or not it fired, and recover; True if ``op`` finished."""
        self.env.crash_at = self.env.ops + at
        try:
            getattr(self, op[0])(*op[1:])
            finished = True
        except SimulatedCrash:
            finished = False
        self.env.crash_at = None
        for fobj in self.files:
            fobj._file.close()
        self.index = recover_sharded(self.root, self.backend_factory)[0]
        return finished

    def recover(self):
        self.index.close()
        self.index = recover_sharded(self.root, self.backend_factory)[0]

    def rebuild(self):
        """Every shard's checkpoint + WAL rebuilt, clamped to its range."""
        rows = []
        for position, shard in enumerate(self.index._shards):
            lower, upper = self.index._assigned_range(position)
            rebuilt, _report = rebuild_index(shard.store.path, shard.wal.path)
            rows += [
                (k, v) for k, v in rebuilt.items()
                if (lower is None or k >= lower) and (upper is None or k < upper)
            ]
        return rows

    def contents(self):
        rows = self.index.range_query(INT64_MIN, INT64_MAX)
        assert self.index.items() == rows
        return rows

    def check(self, machine):
        lowers = [lower for lower, _id in self.index.shard_map()]
        assert lowers[0] is None and lowers[1:] == sorted(set(lowers[1:]))
        # Every shard — first built, split off, or recovered with or without
        # a checkpoint — runs the small-page tree the shape was built with.
        tree_config = self.backend_factory().config
        for shard in self.index._shards:
            assert shard.index.backend.config == tree_config
            shard.index.buffer.check_invariants()
            shard.index.backend.check_invariants()

    def close(self):
        self.index.close()


class Served(Subject):
    """The sharded index behind an ``IndexServer``, ``CLIENTS`` connections
    to it; ``recover`` restarts it."""

    rules = frozenset({"recover", "via", "burst"})
    errors = ServerError

    def __init__(self, *args):
        super().__init__(*args)
        self.root = str(self.tmp / "db")
        self.backend_factory = partial(tree, self.backend, self.leaf)
        self._start(ShardedSortednessAwareIndex(
            self.root, _sharded_config(args[-1], "batch"), backend_factory=self.backend_factory
        ))

    def _start(self, index):
        self.server = IndexServer(index, commit_interval=0.001)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.thread.start()
        self.clients = [SyncIndexClient(port=self.server.port) for _ in range(CLIENTS)]
        for client in self.clients:  # one round trip each: the server has accepted it
            client.stats()
        self.index = self.clients[0]

    def via(self, client):
        self.index = self.clients[client]

    def burst(self, ops):
        """Each op over connection ``key % CLIENTS``, all at once."""
        _burst(ops, self.clients)

    def close(self):
        for client in self.clients:
            client.close()
        try:
            asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout=30)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            assert not self.thread.is_alive()
            self.loop.close()

    def recover(self):
        self.close()  # the server closes the index
        self._start(recover_sharded(self.root, self.backend_factory)[0])

    def contents(self):
        return self.index.range_query(INT64_MIN, INT64_MAX)

    def check(self, machine):
        stats = self.index.stats()
        assert stats["n_shards"] == len(stats["shard_map"]) >= 2
        assert stats["server"]["connections"] == CLIENTS
        assert stats["server"]["group_commit"] is True
        tree_config = self.backend_factory().config
        assert all(shard.index.backend.config == tree_config for shard in self.server.index._shards)


class Shape(NamedTuple):
    subject: type
    backend: str
    domain: KeyDomain

    @property
    def id(self):
        domain = "python" if self.domain.extra_keys else "numpy"
        return f"{self.subject.__name__.lower()}-{self.backend}-{domain}"


def _shapes():
    shapes = []
    for backend in BACKEND_NAMES:
        for domain in (INT64, WIDE):
            subjects = (Sware, Concurrent) if backend == "sa_btree" else (Bare, Sware, Concurrent)
            shapes += [Shape(subject, backend, domain) for subject in subjects]
        if backend in PAGED:
            shapes += [Shape(Sharded, backend, INT64), Shape(Served, backend, INT64)]
    return shapes


SHAPES = _shapes()
#: (max_examples, stateful_step_count) per subject.
BUDGET = {Bare: (10, 30), Sware: (10, 30), Concurrent: (5, 25), Sharded: (20, 30), Served: (5, 25)}


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------
keys = st.runner().flatmap(lambda machine: machine.keys)
values = st.integers(0, 10**6) | st.text(max_size=3) | st.tuples(st.integers(0, 9))
items = st.lists(st.tuples(keys, values), max_size=12)
writes = st.tuples(st.just("put"), keys, values) | st.tuples(st.just("delete"), keys)


class OracleMachine(RuleBasedStateMachine):
    """The subject of ``shape`` against a dict."""

    def __init__(self, shape, tmp_path_factory):
        super().__init__()
        self.shape, self.tmp_path_factory = shape, tmp_path_factory
        edges = st.sampled_from([INT64_MIN, INT64_MAX - 1, INT64_MAX])
        self.keys = shape.domain.keys(st.integers(-4, 64) | edges)
        self.subject = None
        self.model = {}
        self.low = self.high = None  # watermarks: the extremes of every key put

    def build(self, leaf=4, config=SMALL):
        tmp = self.tmp_path_factory.mktemp("oracle")
        self.subject = self.shape.subject(self.shape.backend, self.shape.domain, tmp, leaf, config)

    def _stored(self, keys):
        keys = [*keys, *(k for k in (self.low, self.high) if k is not None)]
        if keys:
            self.low, self.high = min(keys), max(keys)

    @staticmethod
    def effect(model, op):
        """``model`` after ``op``, and the keys ``op`` writes."""
        after = dict(model)
        if op[0] == "put":
            after[op[1]] = op[2]
            return after, {op[1]}
        if op[0] == "put_many":
            after.update(op[1])
            return after, {k for k, _v in op[1]}
        if op[0] == "delete":
            after.pop(op[1], None)
            return after, {op[1]}
        written = set()
        if op[0] == "burst":  # every op on a key rides one connection, in order
            for write in op[1]:
                after, keys = OracleMachine.effect(after, write)
                written |= keys
        return after, written

    def apply(self, op):
        """Run ``op`` on the subject and the model; assert they agree."""
        kind, model, subject = op[0], self.model, self.subject
        if kind == "put_many" and subject.rejects(op[1]):
            with pytest.raises(subject.rejects(op[1])):  # and nothing changes
                subject.put_many(op[1])
            return
        if kind == "crash":
            after, written = self.effect(model, op[1])
            finished = subject.crash(*op[1:])
            rows = dict(subject.contents())
            for key in set(rows) | set(after) | written:  # the op in flight: each key old or new
                landed = (after.get(key),) if finished else (model.get(key), after.get(key))
                assert rows.get(key) in landed, key
            self._stored(rows)
            self.model = rows
            return
        result = getattr(subject, kind)(*op[1:])
        if hasattr(subject, "mirror"):
            subject.mirror(op)
        if kind == "put":
            assert result in (None, op[1] not in model)
            self._stored([op[1]])
        elif kind == "put_many":
            assert result in (None, len({k for k, _v in op[1]} - set(model)))
            self._stored(k for k, _v in op[1])
        elif kind == "delete":
            assert result in (None, op[1] in model)
        elif kind == "burst":
            self._stored(write[1] for write in op[1] if write[0] == "put")
        elif kind == "get":
            assert result == model.get(op[1])
        elif kind == "get_many":
            assert result == [model.get(k) for k in op[1]]
        elif kind == "range":
            rows = sorted(model.items())
            assert result == [[(k, v) for k, v in rows if lo <= k <= hi] for lo, hi in op[1]]
            for returned in result:
                returned.clear()  # a caller owns what it was handed
        elif result is not None:  # checkpoint, rebuild: what a restart would read
            assert result == sorted(model.items())
        self.model = self.effect(model, op)[0]

    def verify(self):
        self.subject.check(self)
        assert self.subject.contents() == sorted(self.model.items())

    @initialize(
        leaf=st.sampled_from([4, 5, 8]),
        config=st.builds(
            SWAREConfig,
            buffer_capacity=st.sampled_from([8, 16, 48]),
            page_size=st.just(4),
            query_sorting_threshold=st.sampled_from([0.1, 0.25, 1.0]),
            enable_global_bf=st.booleans(),
            enable_page_bf=st.booleans(),
            enable_read_zonemaps=st.booleans(),
        ),
    )
    def setup(self, leaf, config):
        self.build(leaf, config)

    def teardown(self):
        if self.subject is not None:
            self.subject.close()

    def can(self, name):
        return name in self.subject.rules

    def paged_keys(self):
        """Whether every key put fits a page's s64 key column."""
        return self.low is None or _fits_int64(self.low, self.high)

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.apply(("put", key, value))

    @rule(batch=items, ascending=st.booleans(), bad=st.booleans())
    def put_many(self, batch, ascending, bad):
        if ascending:  # a sorted run above every key put
            start = 0 if self.high is None else self.high + 1
            batch = [(start + i, v) for i, (_k, v) in enumerate(batch)]
            if self.shape.domain is INT64 and not _fits_int64(*(k for k, _v in batch)):
                batch = []
        if bad and batch and self.shape.subject is not Bare:
            # One record the subject refuses: it must refuse the whole batch.
            key = batch[-1][0] if self.shape.subject is Served else 2**63
            batch = [*batch[:-1], (key, None)]
        self.apply(("put_many", batch))

    @rule(key=keys)
    def delete(self, key):
        self.apply(("delete", key))

    @rule(key=keys)
    def get(self, key):
        self.apply(("get", key))

    @rule(keys=st.lists(keys, max_size=8))
    def get_many(self, keys):
        self.apply(("get_many", keys))

    @rule(spans=st.lists(st.tuples(keys, keys).map(sorted), max_size=3))
    def range(self, spans):
        self.apply(("range", spans))

    @precondition(lambda self: self.can("flush"))
    @rule()
    def flush(self):
        self.apply(("flush",))

    @precondition(lambda self: self.can("query_sort"))
    @rule()
    def query_sort(self):
        self.apply(("query_sort",))

    @precondition(lambda self: self.can("checkpoint") and self.paged_keys())
    @rule()
    def checkpoint(self):
        self.apply(("checkpoint",))

    @precondition(lambda self: self.can("crash") and self.subject.crashable)
    @rule(
        what=st.sampled_from(["put", "put_many", "delete", "checkpoint", "split"]),
        key=keys,
        value=values,
        batch=items,
        at=st.integers(0, 48),
    )
    def crash(self, what, key, value, batch, at):
        args = {"put": (key, value), "put_many": (batch,), "delete": (key,), "split": (key,)}
        self.apply(("crash", (what, *args.get(what, ())), at))

    @precondition(lambda self: self.can("recover"))
    @rule()
    def recover(self):
        self.apply(("recover",))

    @precondition(lambda self: self.can("rebuild"))
    @rule()
    def rebuild(self):
        self.apply(("rebuild",))

    @precondition(lambda self: self.can("split"))
    @rule(key=keys)
    def split(self, key):
        self.apply(("split", key))

    @precondition(lambda self: self.can("via"))
    @rule(client=st.integers(0, CLIENTS - 1))
    def via(self, client):
        self.apply(("via", client))

    @precondition(lambda self: self.can("burst"))
    @rule(ops=st.lists(writes, max_size=12))
    def burst(self, ops):
        self.apply(("burst", ops))

    @invariant()
    def agrees(self):
        self.verify()


@pytest.mark.parametrize("shape", SHAPES, ids=[shape.id for shape in SHAPES])
def test_oracle(shape, tmp_path_factory):
    examples, steps = BUDGET[shape.subject]
    run_state_machine_as_test(
        lambda: OracleMachine(shape, tmp_path_factory),
        settings=settings(
            max_examples=examples,
            stateful_step_count=steps,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_every_registry_backend_is_a_shape():
    assert set(BACKENDS) == set(BACKEND_NAMES) == {shape.backend for shape in SHAPES}


# ----------------------------------------------------------------------
# regression programs: fixed op sequences through the same apply
# ----------------------------------------------------------------------
#: Twelve out-of-order puts: a tail past ``SMALL``'s query-sort trigger.
HOT = [("put", k, k) for k in (50, 10, 40, 20, 30, 25, 35, 15, 45, 5, 60, 55)]


def _items_programs(backend):
    """``items()`` scans between tree watermarks that go stale on deletes
    and a buffer Zonemap wider than the tree: both must stay supersets."""
    return {
        f"{backend}-items-after-stale-watermarks": (Sware, backend, [
            *[("put", k, k * 10) for k in range(0, 40, 2)], ("flush",),
            ("delete", 0), ("delete", 2), ("delete", 36), ("delete", 38),
            ("put", 100, 1), ("put", -100, 2), ("flush",), ("delete", 100),
        ]),
        f"{backend}-items-after-deleting-everything": (Sware, backend, [
            *[("put", k, k) for k in range(10)], ("flush",), *[("delete", k) for k in range(10)],
        ]),
        f"{backend}-items-with-tombstones-outside-the-tree": (Sware, backend, [
            ("put", 10, 10), ("put", 12, 12), ("put", 14, 14), ("flush",),
            ("put", 5, 50), ("put", 30, 300), ("delete", 12), ("delete", 5), ("flush",),
        ]),
    }


def _through_the_tail(keys, freeze=False):
    """Each of ``keys`` put into the unsorted tail under ``SMALL``: eight at
    a time, descending, below a sentinel above them all, then a flush; with
    ``freeze``, four at a time, each four closed into a query-sorted block
    first, so every key also sits only in a block at some check."""
    keys, top = sorted(keys, reverse=True), max(keys) + 1
    step = 4 if freeze else 8
    ops = []
    for start in range(0, len(keys), step):
        ops += [("put", top, 0), *[("put", k, k) for k in keys[start:start + step]]]
        ops += [("query_sort",), ("put", top, 1)] if freeze else []
        ops.append(("flush",))
    return ops


#: Writes from three lanes at once: puts, overwrites and deletes.
WRITERS = [
    ("put", 0, "a"), ("put", 1, "b"), ("put", 2, "c"), ("put", 3, "d"),
    ("put", 4, "e"), ("put", 5, "f"), ("put", 0, "g"), ("put", 4, "h"),
    ("delete", 5), ("put", 2, "i"), ("delete", 3), ("delete", 1),
]

#: name -> (subject, backend, ops), run on int64 keys under ``SMALL``.
PROGRAMS = {
    # An older tombstone past max_key must not shadow a newer bulk-loaded
    # version of its key.
    "lsm-tombstone-then-bulk-load": (Bare, "lsm", [
        ("put", 10, "a"), ("delete", 50), ("put_many", [(50, "b"), (51, "c")]), ("get", 50),
    ]),
    "lsm-memtable-survives-bulk-load": (Bare, "lsm", [
        ("put", 10, "a"), ("put", 20, "b"), ("delete", 50),
        ("put_many", [(50, "c"), (60, "d")]), ("get_many", [10, 20, 50, 60]),
    ]),
    "betree-tombstone-then-bulk-load": (Bare, "betree", [
        ("put_many", [(0, 0), (1, 0), (2, 0), (3, 0)]), ("delete", 4),
        ("put_many", [(4, 0), (5, 0)]), ("get", 4),
    ]),
    # A restored tree keeps the separators of deleted keys: its max
    # watermark must reach them, or a bulk load lands where no descent looks.
    "btree-bulk-load-after-restoring-deleted-keys": (Bare, "btree", [
        *[("put", k, k) for k in range(5)], *[("delete", k) for k in range(1, 5)],
        ("checkpoint",), ("put_many", [(1, "x"), (2, "y")]), ("get", 1),
    ]),
    **{
        f"sware-{backend}-direct-delete-then-bulk-load": (Sware, backend, [
            ("put", 10, "a"), ("flush",), ("delete", 50), ("put", 50, "b"), ("flush",),
            ("get", 50), ("get_many", [10, 50]),
        ])
        for backend in ("lsm", "betree")
    },
    **_items_programs("btree"),
    **_items_programs("betree"),
    **_items_programs("lsm"),
    "items-of-an-emptied-index": (Sware, "btree", [("put", 1, 1), ("delete", 1)]),
    # Batch reads fire the query-sort trigger at most once, an empty batch
    # not at all: the twin's loops see the same stats and charges.
    "empty-get-many-is-a-no-op": (Sware, "btree", [*HOT, ("get_many", [])]),
    "get-many-charges-like-a-loop": (Sware, "btree", [*HOT, ("get_many", [5, 10, 99, 25, 60, 42])]),
    # Every small key the machine draws sits in the tail at some check, so
    # a filter that turns one away fails _probe_tail in both metered shapes;
    # and in a query-sorted block, so a billed block search that misses it does.
    **{
        f"{name}-every-drawn-key-through-the-tail": (subject, "btree", _through_the_tail(range(-4, 65)))
        for name, subject in (("sware", Sware), ("concurrent", Concurrent))
    },
    **{
        f"{name}-every-drawn-key-through-a-block": (
            subject, "btree", _through_the_tail(range(-4, 65), freeze=True))
        for name, subject in (("sware", Sware), ("concurrent", Concurrent))
    },
    # A batch is one WAL frame; a restart replays it.
    "sharded-batch-survives-a-restart": (Sharded, "btree", [
        ("put_many", [(1, "a"), (2, "b"), (70, "c")]), ("recover",),
    ]),
    # A crash after the split's manifest commit, amid the donor's cleanup,
    # leaves stale copies there: every read must stay clamped to the map.
    "sharded-crash-amid-split-cleanup": (Sharded, "btree", [
        *[("put", k, k) for k in range(0, 20, 2)], ("crash", ("split", 0), 24),
        ("range", [(0, 30), (INT64_MIN, INT64_MAX)]), ("get_many", [10, 12, 18]),
    ]),
    # A refused batch changes no shard, in memory or in its WAL.
    "sharded-refused-put-many-changes-nothing": (Sharded, "btree", [
        ("put_many", [(1, "a"), (99, None)]), ("get", 1), ("recover",),
    ]),
    "served-refused-put-many-changes-nothing": (Served, "btree", [
        ("put_many", [(1, "a"), (99, None)]), ("get", 1),
    ]),
    # Three writers at once, each key on one connection: every put,
    # overwrite and delete lands, in list order per key, read back
    # through another connection.
    "served-concurrent-writers-agree": (Served, "btree", [
        ("burst", WRITERS), ("via", 2), ("range", [(INT64_MIN, INT64_MAX)]),
    ]),
    # The same from three threads on the thread-safe front-end, then a
    # descending burst past the buffer: tail appends, query sorts, flushes
    # and buffered tombstones land whole, each key's ops in list order.
    "concurrent-threads-agree": (Concurrent, "btree", [
        ("burst", WRITERS),
        ("burst", [*[("put", k, -k) for k in range(40, 0, -1)],
                   *[("delete", k) for k in range(0, 40, 3)]]),
        ("get", 7), ("range", [(INT64_MIN, INT64_MAX)]), ("get_many", [0, 1, 2, 39]),
    ]),
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_program(name, tmp_path_factory):
    subject, backend, ops = PROGRAMS[name]
    machine = OracleMachine(Shape(subject, backend, INT64), tmp_path_factory)
    machine.build()
    try:
        for op in ops:
            machine.apply(op)
            machine.verify()
    finally:
        machine.teardown()
