"""Crash-recovery acceptance tests (the durability contract).

The sweep in :class:`TestCrashInjectionSweep` kills the "process" at every
mutating I/O boundary the WAL + checkpoint paths cross — several hundred
seeded crash points — then recovers from the on-disk wreckage and asserts:

* **no acknowledged write is ever lost**: every operation whose call
  returned before the crash is visible after recovery;
* **no torn record is ever served**: the recovered state contains nothing
  except the acknowledged operations' effects, plus at most the one
  *in-flight* operation (which may legally survive in full — e.g. the
  crash hit the fsync after its frame was completely written — but never
  as a partial/corrupt value).
"""

import os
import random
import threading

import pytest

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.storage.faults import FaultyEnv, SimulatedCrash
from repro.storage.pagefile import CheckpointStore
from repro.storage.wal import WriteAheadLog, replay_wal

SLOT_SIZE = 256
CONFIG = SWAREConfig(buffer_capacity=16, page_size=4)
TREE_CONFIG = BPlusTreeConfig(leaf_capacity=8, internal_capacity=8)
N_OPS = 80
CHECKPOINT_EVERY = 25
SEEDS = (1, 2, 3)


def _ops_for(seed):
    """The deterministic logical workload for one seed."""
    rng = random.Random(seed)
    ops = []
    for i in range(N_OPS):
        if i and i % CHECKPOINT_EVERY == 0:
            ops.append(("checkpoint", None, None))
        elif rng.random() < 0.15:
            ops.append(("delete", rng.randrange(100), None))
        else:
            key = rng.randrange(100)
            ops.append(("put", key, (key, i)))
    return ops


def _run_workload(workdir, crash_at, seed):
    """Run the seeded workload under fault injection.

    Returns ``(acked, in_flight, total_io_ops, crashed)`` where ``acked``
    is every op whose call returned and ``in_flight`` is the op being
    applied when the crash hit (None when the run completed).
    """
    env = FaultyEnv(crash_at=crash_at, seed=seed)
    ckpt = os.path.join(workdir, "ck.db")
    walp = os.path.join(workdir, "log.wal")
    acked = []
    in_flight = None
    try:
        wal = WriteAheadLog(walp, opener=env.open)
        store = CheckpointStore(
            ckpt, slot_size=SLOT_SIZE, opener=env.open, replace=env.replace
        )
        index = SortednessAwareIndex(
            BPlusTree(TREE_CONFIG), config=CONFIG, wal=wal
        )
        for op in _ops_for(seed):
            kind, key, value = op
            in_flight = op
            if kind == "checkpoint":
                index.checkpoint(store)
            elif kind == "delete":
                index.delete(key)
            else:
                index.insert(key, value)
            acked.append(op)
            in_flight = None
        wal.close()  # a crash closes every file itself
        return acked, None, env.ops, False
    except SimulatedCrash:
        return acked, in_flight, env.ops, True


def _apply(state, op):
    kind, key, value = op
    if kind == "put":
        state[key] = value
    elif kind == "delete":
        state.pop(key, None)
    return state


def _expected_state(acked):
    state = {}
    for op in acked:
        _apply(state, op)
    return state


def _recover(workdir):
    store = CheckpointStore(os.path.join(workdir, "ck.db"), slot_size=SLOT_SIZE)
    return store.recover(
        wal_path=os.path.join(workdir, "log.wal"), config=CONFIG
    )


class TestCrashInjectionSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_io_boundary(self, tmp_path, seed):
        """Crash at every mutating I/O op of the workload; recover; verify."""
        full = tmp_path / "full"
        full.mkdir()
        _acked, _inf, total_ops, crashed = _run_workload(str(full), None, seed)
        assert not crashed
        assert total_ops >= 170, "workload too small to be a meaningful sweep"

        for crash_at in range(total_ops):
            workdir = tmp_path / f"crash{crash_at}"
            workdir.mkdir()
            acked, in_flight, _ops, crashed = _run_workload(
                str(workdir), crash_at, seed
            )
            assert crashed, f"crash_at={crash_at} did not crash"
            index, report = _recover(str(workdir))
            got = dict(index.items())
            expected = _expected_state(acked)
            if got != expected:
                # The only other legal state: the in-flight op survived in
                # full (its WAL frame was durable before the crash point).
                assert in_flight is not None, (
                    f"crash_at={crash_at}: unacknowledged divergence {got} "
                    f"vs {expected}"
                )
                with_in_flight = _apply(dict(expected), in_flight)
                assert got == with_in_flight, (
                    f"crash_at={crash_at}: torn or lost data; "
                    f"got={got} expected={expected} in_flight={in_flight}"
                )
            index.backend.check_invariants()

    def test_sweep_covers_at_least_500_crash_points(self, tmp_path):
        """The acceptance sweep spans >= 500 distinct seeded crash points."""
        total = 0
        for seed in SEEDS:
            workdir = tmp_path / f"seed{seed}"
            workdir.mkdir()
            _a, _i, ops, crashed = _run_workload(str(workdir), None, seed)
            assert not crashed
            total += ops
        assert total >= 500, f"only {total} crash points across seeds {SEEDS}"


class TestRecoveryPaths:
    def test_recover_with_no_files_is_fresh(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.db"), slot_size=SLOT_SIZE)
        index, report = store.recover(wal_path=str(tmp_path / "log.wal"))
        assert not report.checkpoint_found
        assert report.wal_records_replayed == 0
        assert index.items() == []
        index.insert(1, "post-recovery")
        assert index.get(1) == "post-recovery"

    def test_recover_wal_only(self, tmp_path):
        walp = str(tmp_path / "log.wal")
        with WriteAheadLog(walp) as wal:
            index = SortednessAwareIndex(BPlusTree(), config=CONFIG, wal=wal)
            for k in range(40):
                index.insert(k, k * 3)
            index.delete(7)
        store = CheckpointStore(str(tmp_path / "ck.db"), slot_size=SLOT_SIZE)
        recovered, report = store.recover(wal_path=walp, config=CONFIG)
        assert not report.checkpoint_found
        assert report.wal_records_replayed == 41
        assert recovered.get(7) is None
        assert recovered.get(13) == 39

    def test_recover_checkpoint_only(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.db"), slot_size=SLOT_SIZE)
        index = SortednessAwareIndex(BPlusTree(TREE_CONFIG), config=CONFIG)
        for k in range(60):
            index.insert(k, k)
        index.checkpoint(store)
        recovered, report = CheckpointStore(
            str(tmp_path / "ck.db"), slot_size=SLOT_SIZE
        ).recover()
        assert report.checkpoint_found
        assert report.checkpoint_epoch == 1
        assert dict(recovered.items()) == {k: k for k in range(60)}

    def test_stale_tmp_removed(self, tmp_path):
        ckpt = str(tmp_path / "ck.db")
        store = CheckpointStore(ckpt, slot_size=SLOT_SIZE)
        with open(store.tmp_path, "wb") as handle:
            handle.write(b"half-written checkpoint wreckage")
        _index, report = store.recover()
        assert report.stale_tmp_removed
        assert not os.path.exists(store.tmp_path)

    def test_crash_mid_checkpoint_preserves_previous(self, tmp_path):
        """Atomicity: a torn second checkpoint never shadows the first."""
        ckpt = str(tmp_path / "ck.db")
        store = CheckpointStore(ckpt, slot_size=SLOT_SIZE)
        index = SortednessAwareIndex(BPlusTree(TREE_CONFIG), config=CONFIG)
        for k in range(50):
            index.insert(k, "gen1")
        index.checkpoint(store)

        for k in range(50, 90):
            index.insert(k, "gen2")
        # Crash at each of the first 40 I/O ops of the second save.
        for crash_at in range(40):
            env = FaultyEnv(crash_at=crash_at, seed=crash_at)
            faulty = CheckpointStore(
                ckpt, slot_size=SLOT_SIZE, opener=env.open, replace=env.replace
            )
            try:
                faulty.save_index(index)
            except SimulatedCrash:
                pass
            restored = CheckpointStore(ckpt, slot_size=SLOT_SIZE).load_btree()
            items = dict(restored.iter_items())
            assert set(items.values()) in ({"gen1"}, {"gen1", "gen2"})
            # Either the old checkpoint (crash before rename) or the new
            # one (crash after) — never a mix of directories.
            assert len(items) in (50, 90)

    def test_multi_generation_crash_recover_cycle(self, tmp_path):
        """Recover, resume with a reopened WAL, crash again, recover again."""
        ckpt = str(tmp_path / "ck.db")
        walp = str(tmp_path / "log.wal")
        expected = {}

        index = SortednessAwareIndex(
            BPlusTree(TREE_CONFIG), config=CONFIG, wal=WriteAheadLog(walp)
        )
        store = CheckpointStore(ckpt, slot_size=SLOT_SIZE)
        for k in range(30):
            index.insert(k, ("gen0", k))
            expected[k] = ("gen0", k)
        index.checkpoint(store)
        for k in range(30, 45):
            index.insert(k, ("gen0", k))
            expected[k] = ("gen0", k)
        index.wal.close()  # simulate crash: buffer contents lost

        for generation in range(1, 4):
            store = CheckpointStore(ckpt, slot_size=SLOT_SIZE)
            index, report = store.recover(wal_path=walp, config=CONFIG)
            assert dict(index.items()) == expected
            index.wal = WriteAheadLog(walp)  # reopen and resume
            for k in range(10):
                key = 100 * generation + k
                index.insert(key, ("gen", generation, k))
                expected[key] = ("gen", generation, k)
            if generation == 2:
                index.checkpoint(store)
            index.wal.close()

        index, _report = CheckpointStore(ckpt, slot_size=SLOT_SIZE).recover(
            wal_path=walp, config=CONFIG
        )
        assert dict(index.items()) == expected


class TestConcurrentWAL:
    def test_threaded_writes_recover_to_live_state(self, tmp_path):
        """WAL order matches the latch apply order: recovery reproduces
        exactly the state the live concurrent index reached."""
        walp = str(tmp_path / "log.wal")
        wal = WriteAheadLog(walp, fsync_policy="batch")
        index = ConcurrentSortednessAwareIndex(
            BPlusTree(TREE_CONFIG),
            config=SWAREConfig(
                buffer_capacity=64, page_size=8, query_sorting_threshold=0.25
            ),
            wal=wal,
        )

        def work(tid):
            rng = random.Random(tid)
            for i in range(300):
                key = rng.randrange(200)
                if rng.random() < 0.15:
                    index.delete(key)
                else:
                    index.insert(key, (tid, i))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        index.flush_all()
        live = dict(index.items())
        wal.sync()
        wal.close()

        store = CheckpointStore(str(tmp_path / "ck.db"), slot_size=SLOT_SIZE)
        recovered, report = store.recover(
            wal_path=walp, config=SWAREConfig(buffer_capacity=64, page_size=8)
        )
        assert report.wal_records_replayed == 1200
        assert dict(recovered.items()) == live

    def test_concurrent_checkpoint_truncates_wal(self, tmp_path):
        walp = str(tmp_path / "log.wal")
        wal = WriteAheadLog(walp, fsync_policy="batch")
        index = ConcurrentSortednessAwareIndex(
            BPlusTree(TREE_CONFIG),
            config=SWAREConfig(buffer_capacity=32, page_size=8),
            wal=wal,
        )
        store = CheckpointStore(str(tmp_path / "ck.db"), slot_size=SLOT_SIZE)
        index.put_many([(k, k) for k in range(100)])
        index.checkpoint(store)
        assert wal.tail_bytes() == 0
        index.insert(500, "after-checkpoint")
        wal.sync()
        wal.close()
        recovered, report = CheckpointStore(
            str(tmp_path / "ck.db"), slot_size=SLOT_SIZE
        ).recover(wal_path=walp, config=SWAREConfig(buffer_capacity=32, page_size=8))
        assert report.checkpoint_found
        assert report.wal_records_replayed == 1
        assert dict(recovered.items()) == {**{k: k for k in range(100)}, 500: "after-checkpoint"}


def _batch_ops_for(seed):
    """A put_many / delete workload with checkpoints between the batches."""
    rng = random.Random(seed)
    ops = []
    for i in range(40):
        if i and i % 15 == 0:
            ops.append(("checkpoint", None))
        elif rng.random() < 0.2:
            ops.append(("delete", rng.randrange(100)))
        else:
            n = rng.randrange(2, 7)
            ops.append(("put_many", [(rng.randrange(100), (i, j)) for j in range(n)]))
    return ops


def _apply_batch_op(state, op):
    kind, arg = op
    if kind == "put_many":
        state.update(arg)
    elif kind == "delete":
        state.pop(arg, None)
    return state


def _run_batch_workload(workdir, crash_at, seed):
    env = FaultyEnv(crash_at=crash_at, seed=seed)
    acked, in_flight = [], None
    try:
        wal = WriteAheadLog(os.path.join(workdir, "log.wal"), opener=env.open)
        store = CheckpointStore(
            os.path.join(workdir, "ck.db"), slot_size=SLOT_SIZE,
            opener=env.open, replace=env.replace,
        )
        index = SortednessAwareIndex(BPlusTree(TREE_CONFIG), config=CONFIG, wal=wal)
        for op in _batch_ops_for(seed):
            in_flight = op
            kind, arg = op
            if kind == "checkpoint":
                index.checkpoint(store)
            elif kind == "delete":
                index.delete(arg)
            else:
                index.put_many(arg)
            acked.append(op)
            in_flight = None
        wal.close()  # a crash closes every file itself
        return acked, None, env.ops, False
    except SimulatedCrash:
        return acked, in_flight, env.ops, True


class TestBatchAtomicity:
    @pytest.mark.parametrize("seed", (4, 5))
    def test_a_batch_survives_whole_or_not_at_all(self, tmp_path, seed):
        """Crash at every I/O op under fsync "always": the recovered state is
        the acknowledged one, or that plus the *whole* in-flight batch."""
        full = tmp_path / "full"
        full.mkdir()
        _acked, _inf, total_ops, crashed = _run_batch_workload(str(full), None, seed)
        assert not crashed
        for crash_at in range(total_ops):
            workdir = tmp_path / f"crash{crash_at}"
            workdir.mkdir()
            acked, in_flight, _ops, crashed = _run_batch_workload(str(workdir), crash_at, seed)
            assert crashed
            index, _report = _recover(str(workdir))
            got = dict(index.items())
            expected = {}
            for op in acked:
                _apply_batch_op(expected, op)
            allowed = [expected]
            if in_flight is not None:
                allowed.append(_apply_batch_op(dict(expected), in_flight))
            assert got in allowed, f"crash_at={crash_at}: partial batch {in_flight}"
            index.backend.check_invariants()


def _mixed_log(path, seed=5):
    """A near-sorted log of single puts, batches and deletes."""
    rng = random.Random(seed)
    next_key = 0
    with WriteAheadLog(path, fsync_policy="never") as wal:
        for i in range(60):
            roll = rng.random()
            if roll < 0.15:
                wal.append_delete(rng.randrange(max(next_key, 1)))
            elif roll < 0.4:
                wal.append_put(next_key - rng.randrange(8), ("one", i))
                next_key += 1
            else:
                batch = []
                for j in range(rng.randrange(2, 12)):
                    batch.append((next_key - rng.randrange(8), ("many", i, j)))
                    next_key += 1
                wal.append_puts(batch)


class TestReplayThroughPutMany:
    def test_matches_a_per_op_insert_replay(self, tmp_path):
        walp = str(tmp_path / "log.wal")
        _mixed_log(walp)
        recovered, report = CheckpointStore(str(tmp_path / "ck.db")).recover(
            wal_path=walp, config=CONFIG
        )
        reference = SortednessAwareIndex(BPlusTree(), config=CONFIG)
        for kind, key, value in replay_wal(walp).ops:
            if kind == "put":
                reference.insert(key, value)
            else:
                reference.delete(key)
        assert recovered.stats.flushes > 3
        assert recovered.buffer.all_entries() == reference.buffer.all_entries()
        assert recovered.buffer.component_sizes() == reference.buffer.component_sizes()
        assert recovered.stats.snapshot() == reference.stats.snapshot()
        assert recovered.items() == reference.items()

    def test_open_log_is_replayed_and_attached(self, tmp_path):
        walp = str(tmp_path / "log.wal")
        _mixed_log(walp)
        expected, _ = CheckpointStore(str(tmp_path / "ck.db")).recover(
            wal_path=walp, config=CONFIG
        )
        with open(walp, "ab") as handle:
            handle.write(b"torn")
        wal = WriteAheadLog(walp)
        index, report = CheckpointStore(str(tmp_path / "ck.db")).recover(
            wal=wal, config=CONFIG
        )
        assert index.wal is wal and wal.recovered.ops == []
        assert report.wal_records_replayed == wal.recovered_records
        assert report.wal_torn_tail
        assert index.items() == expected.items()
        index.insert(10_000, "resumed")
        wal.close()
        again, _ = CheckpointStore(str(tmp_path / "ck.db")).recover(
            wal_path=walp, config=CONFIG
        )
        assert again.items() == expected.items() + [(10_000, "resumed")]

    def test_wal_and_wal_path_are_exclusive(self, tmp_path):
        walp = str(tmp_path / "log.wal")
        with WriteAheadLog(walp) as wal:
            with pytest.raises(ValueError):
                CheckpointStore(str(tmp_path / "ck.db")).recover(wal_path=walp, wal=wal)
