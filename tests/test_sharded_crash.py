"""Crash-injection acceptance tests for the sharded service layer.

Three layers of the same invariant — *an acknowledged write is never lost*:

1. **Deterministic I/O sweep** (:class:`FaultyEnv`): drive a scripted
   workload (puts, deletes, group commits, a checkpoint, and enough
   volume to force a shard split) through the fault harness, crashing at
   every mutating I/O boundary the sharded stack crosses — WAL appends,
   fsyncs, checkpoint writes, manifest renames, split cleanup. After each
   crash, ``recover_sharded`` must reproduce a state that (a) reflects
   every operation acknowledged before the crash and (b) is a legal
   per-key prefix of the operation log (no invented data, no reordering).

2. **Ack-after-fsync instrumentation**: under ``fsync_policy="batch"``
   the server parks mutating acks until the covering group commit. The
   test spies on every shard WAL's ``sync()`` and asserts, at the moment
   each client ``put`` future resolves, that the records it appended were
   already covered by a sync — the wire-level statement of the invariant.
   The same is asserted against each WAL's ``durable_records`` watermark
   with pipelining connections, where commits run off the event loop, and
   a simulated crash inside such an off-loop fsync must ack nothing.

3. **Real SIGKILL**: boot ``python -m repro serve`` as a subprocess, ack
   a batch of writes over the real socket, ``SIGKILL -9`` the server, and
   recover the root in-process. Every acknowledged key must be there.
"""

import asyncio
import os
import random
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.config import SWAREConfig
from repro.net.client import IndexClient
from repro.net.server import CommitFailed, IndexServer
from repro.net.sharded import (
    ShardedConfig,
    ShardedIndexError,
    ShardedSortednessAwareIndex,
    recover_sharded,
)
from repro.storage.faults import FaultyEnv, SimulatedCrash
from tests.slow_fsync import SlowFsync

TOMBSTONE = object()
SMALL = SWAREConfig(buffer_capacity=16, page_size=4)


class _OpLog:
    """Per-key operation history + the ack frontier, for crash validation."""

    def __init__(self):
        self.seq = 0
        self.history = {}  # key -> [(seq, value | TOMBSTONE)]
        self.acked_seq = 0  # everything with seq <= this was acknowledged

    def applied(self, key, value):
        self.seq += 1
        self.history.setdefault(key, []).append((self.seq, value))

    def ack(self):
        self.acked_seq = self.seq

    def check(self, recovered: dict) -> None:
        """``recovered`` must be a per-key prefix covering the ack frontier."""
        for key, ops in self.history.items():
            got = recovered.get(key, TOMBSTONE)
            # Prefixes that include every acked op on this key:
            valid = set()
            n_acked = sum(1 for s, _ in ops if s <= self.acked_seq)
            for j in range(n_acked, len(ops) + 1):
                valid.add(TOMBSTONE if j == 0 else ops[j - 1][1])
            assert got in valid, (
                f"key {key}: recovered {got!r}, acked frontier requires one of "
                f"{valid!r} (acked_seq={self.acked_seq}, ops={ops})"
            )
        for key in recovered:
            assert key in self.history, f"recovered invented key {key}"


def _drive(root: str, opener, replace, fsync_policy: str, log: _OpLog) -> None:
    """The scripted workload. Raises SimulatedCrash at the env's boundary."""
    idx = ShardedSortednessAwareIndex(
        root,
        config=ShardedConfig(
            n_shards=2,
            split_threshold=45,  # forces a split mid-script
            fsync_policy=fsync_policy,
            initial_key_range=(0, 200),
            index_config=SMALL,
        ),
        opener=opener,
        replace=replace,
    )
    always = fsync_policy == "always"
    if always:
        log.ack()  # manifest + empty shards are durable once created
    step = 0

    def put(key, value):
        nonlocal step
        # Log the *attempt* before issuing it: a crash mid-append may still
        # persist a complete frame, so an in-flight op is a legal survivor.
        log.applied(key, value)
        idx.put(key, value)
        if always:
            log.ack()  # WAL append fsynced inline -> acked on return
        step += 1

    def delete(key):
        nonlocal step
        log.applied(key, TOMBSTONE)
        idx.delete(key)
        if always:
            log.ack()
        step += 1

    def commit():
        idx.commit()
        log.ack()  # group commit returned -> everything so far is acked

    for k in range(0, 60):
        put(k * 3 % 200, f"a{k}")
        if step % 7 == 0:
            commit()
    commit()
    for k in range(0, 20, 2):
        delete(k * 3 % 200)
    commit()
    idx.checkpoint_all()
    log.ack()
    for k in range(60, 90):
        put(k * 3 % 200, f"b{k}")
    commit()
    idx.close()


class TestCrashSweep:
    @pytest.mark.parametrize("fsync_policy", ["batch", "always"])
    def test_every_io_boundary(self, tmp_path, fsync_policy):
        # Pass 1: count the workload's mutating I/O ops without crashing.
        probe = FaultyEnv(crash_at=None)
        base_log = _OpLog()
        _drive(
            str(tmp_path / "base"), probe.open, probe.replace, fsync_policy, base_log
        )
        total = probe.ops
        assert total > 50, "workload too small to be a meaningful sweep"
        base = recover_sharded(str(tmp_path / "base"))[0]
        base_log.check(dict(base.items()))
        # The split is persisted as extra manifest rows (the in-memory
        # counter does not survive recovery).
        assert base.n_shards > 2, "sweep workload must cross a shard split"
        base.close()

        # Pass 2: crash at every boundary (strided to bound runtime, with
        # both endpoints always included).
        stride = max(1, total // 60)
        crash_points = sorted(set(range(0, total, stride)) | {total - 1})
        for crash_at in crash_points:
            env = FaultyEnv(crash_at=crash_at, seed=crash_at)
            root = str(tmp_path / f"crash{crash_at}")
            log = _OpLog()
            try:
                _drive(root, env.open, env.replace, fsync_policy, log)
            except SimulatedCrash:
                pass
            else:  # pragma: no cover - only if stride math drifts
                continue
            try:
                recovered, _reports = recover_sharded(root)
            except ShardedIndexError:
                # Crashed before the root was ever committed: acceptable
                # only if nothing had been acknowledged yet.
                assert log.acked_seq == 0, "acked writes lost with the root"
                continue
            try:
                log.check(dict(recovered.items()))
                for shard in recovered._shards:
                    check = getattr(shard.index.backend, "check_invariants", None)
                    if check is not None:
                        check()
            finally:
                recovered.close()


class TestAckAfterFsync:
    def test_put_ack_implies_covering_sync(self, tmp_path):
        async def run():
            index = ShardedSortednessAwareIndex(
                str(tmp_path / "db"),
                config=ShardedConfig(
                    n_shards=4,
                    split_threshold=0,
                    fsync_policy="batch",
                    initial_key_range=(0, 4000),
                    index_config=SMALL,
                ),
            )
            # Spy on every shard WAL: record how many appended records the
            # latest sync() covered.
            covered = {}

            def spy(shard):
                original = shard.wal.sync

                def synced():
                    original()
                    covered[shard.shard_id] = shard.wal.records

                return synced

            for shard in index._shards:
                shard.wal.sync = spy(shard)

            server = IndexServer(index, commit_interval=0.001)
            await server.start()
            async with await IndexClient.connect(port=server.port) as client:
                for i in range(120):
                    key = (i * 37) % 4000
                    shard = index._route(key)
                    await client.put(key, i)
                    appended = shard.wal.records
                    # The ack just resolved: the append it covers must have
                    # been fsynced already, else the server leaked an ack
                    # ahead of its group commit.
                    assert covered.get(shard.shard_id, 0) >= appended, (
                        f"ack for key {key} arrived before sync covered its "
                        f"WAL append ({covered.get(shard.shard_id, 0)} < {appended})"
                    )
            await server.stop()

        asyncio.run(run())

    def test_pipelined_batch_acks_also_wait(self, tmp_path):
        async def run():
            index = ShardedSortednessAwareIndex(
                str(tmp_path / "db"),
                config=ShardedConfig(
                    n_shards=2,
                    split_threshold=0,
                    fsync_policy="batch",
                    initial_key_range=(0, 1000),
                    index_config=SMALL,
                ),
            )
            syncs_before_acks = []
            sync_count = 0

            for shard in index._shards:
                original = shard.wal.sync

                def spy(orig=original):
                    def synced():
                        nonlocal sync_count
                        orig()
                        sync_count += 1

                    return synced

                shard.wal.sync = spy()

            server = IndexServer(index, commit_interval=0.001)
            await server.start()
            async with await IndexClient.connect(port=server.port) as client:
                await asyncio.gather(
                    *[client.put_many([(i * 10 + j, j) for j in range(5)])
                      for i in range(20)]
                )
                syncs_before_acks.append(sync_count)
            await server.stop()
            assert syncs_before_acks[0] >= 1  # at least one covering commit

        asyncio.run(run())


    def test_off_loop_commits_never_ack_ahead_of_the_watermark(self, tmp_path):
        async def run():
            disk = SlowFsync()
            index = ShardedSortednessAwareIndex(
                str(tmp_path / "db"),
                config=ShardedConfig(
                    n_shards=4,
                    split_threshold=0,
                    fsync_policy="batch",
                    initial_key_range=(0, 4000),
                    index_config=SMALL,
                ),
                opener=disk,
            )
            # A disk slow enough that writes keep landing mid-fsync.
            disk.delay = 0.002
            # The LSN each put got, noted on the loop thread as it is applied.
            lsn = {}
            real_put = index.put

            def put(key, value):
                real_put(key, value)
                lsn[key] = index._route(key).wal.records

            index.put = put
            server = IndexServer(index, commit_interval=0.001)
            await server.start()
            clients = [await IndexClient.connect(port=server.port) for _ in range(3)]

            async def acked(client, key):
                await client.put(key, key)
                wal = index._route(key).wal
                assert wal.durable_records >= lsn[key], (
                    f"ack for key {key} (lsn {lsn[key]}) ahead of the durable "
                    f"watermark {wal.durable_records}"
                )

            async def worker(cid, client):
                rng = random.Random(cid)
                for burst in range(20):
                    # Out of step with the other connections, so bursts land
                    # while a commit they are not part of is in flight.
                    await asyncio.sleep(rng.random() * 0.004)
                    keys = [(burst * 97 + j * 1009) % 1333 * 3 + cid for j in range(4)]
                    await asyncio.gather(*[acked(client, key) for key in set(keys)])

            await asyncio.wait_for(
                asyncio.gather(*[worker(i, c) for i, c in enumerate(clients)]), 30.0
            )
            assert server.commits_quiescent > 0, "the off-loop path never ran"
            for client in clients:
                await client.close()
            await server.stop()

        asyncio.run(run())


class TestOffLoopFsyncCrash:
    def test_crash_inside_off_loop_fsync_acks_nothing_uncovered(self, tmp_path):
        root = str(tmp_path / "db")
        env = FaultyEnv(crash_at=None)
        armed = threading.Event()
        crashed_on = []

        def opener(path, mode="rb"):
            fobj = env.open(path, mode)
            real_fsync = fobj.fsync

            def fsync():
                if armed.is_set():
                    env.crash_at = env.ops  # this very fsync is the crash point
                    crashed_on.append(threading.current_thread().name)
                real_fsync()

            fobj.fsync = fsync
            return fobj

        async def run():
            index = ShardedSortednessAwareIndex(
                root,
                config=ShardedConfig(
                    n_shards=2,
                    split_threshold=0,
                    fsync_policy="batch",
                    initial_key_range=(0, 1000),
                    index_config=SMALL,
                ),
                opener=opener,
                replace=env.replace,
            )
            server = IndexServer(index, commit_interval=30.0)
            await server.start()
            client = await IndexClient.connect(port=server.port)
            acked = {}
            for key in range(0, 1000, 50):
                await asyncio.wait_for(client.put(key, f"v{key}"), 5.0)
                acked[key] = f"v{key}"
            armed.set()
            with pytest.raises(ConnectionError):  # dropped, never acked
                await asyncio.wait_for(client.put(7, "uncovered"), 5.0)
            assert crashed_on and crashed_on[0].startswith("repro-commit")
            await client.close()
            with pytest.raises(CommitFailed) as failed:  # the server fail-stopped
                await server.stop()
            assert isinstance(failed.value.__cause__, SimulatedCrash)
            return acked

        acked = asyncio.run(run())
        recovered, _reports = recover_sharded(root)
        try:
            items = dict(recovered.items())
            assert {k: items.get(k) for k in acked} == acked
        finally:
            recovered.close()


SERVE_READY = re.compile(r"serving \d+ shards on [\d.]+:(\d+)")


@pytest.mark.slow
class TestRealSigkill:
    def test_acked_writes_survive_sigkill(self, tmp_path):
        root = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                root,
                "--port",
                "0",
                "--shards",
                "4",
                "--fsync",
                "batch",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            match = SERVE_READY.search(line)
            assert match, f"server did not come up: {line!r}"
            port = int(match.group(1))

            async def load():
                acked = {}
                async with await IndexClient.connect(port=port) as client:
                    for i in range(300):
                        key = (i * 13) % 2000
                        await client.put(key, f"v{i}")
                        acked[key] = f"v{i}"  # future resolved == acked
                    # Fire a tail burst we do NOT await — these may or may
                    # not land; only the awaited ones above must survive.
                    tail = [
                        asyncio.ensure_future(client.put(5000 + j, j))
                        for j in range(50)
                    ]
                    await asyncio.sleep(0)  # let the frames hit the socket
                    os.kill(proc.pid, signal.SIGKILL)
                    for fut in tail:
                        fut.cancel()
                    await asyncio.gather(*tail, return_exceptions=True)
                return acked

            acked = asyncio.run(load())
            proc.wait(timeout=10)
            assert len(acked) > 0

            recovered, reports = recover_sharded(root)
            try:
                assert len(reports) == 4
                items = dict(recovered.items())
                missing = {
                    k: v for k, v in acked.items() if items.get(k) != v
                }
                assert not missing, (
                    f"{len(missing)} acknowledged writes lost after SIGKILL: "
                    f"{dict(list(missing.items())[:5])}"
                )
            finally:
                recovered.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
