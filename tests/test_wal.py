"""Tests for the write-ahead log: framing, replay, policies, torn tails."""

import os
import sys
import threading

import pytest

from repro.errors import WALError
from repro.storage.faults import FaultyEnv
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    WriteAheadLog,
    replay_wal,
)
from tests.slow_fsync import SlowFsync


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "log.wal")


class TestAppendReplay:
    def test_roundtrip_put_delete(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "one")
            wal.append_put(2, {"rich": ["value", 2]})
            wal.append_delete(1)
        replay = replay_wal(path)
        assert replay.ops == [
            ("put", 1, "one"),
            ("put", 2, {"rich": ["value", 2]}),
            ("delete", 1, None),
        ]
        assert replay.records == 3
        assert not replay.torn_tail

    def test_append_puts_batch(self, path):
        items = [(k, k * 10) for k in range(50)]
        with WriteAheadLog(path) as wal:
            lsn = wal.append_puts(items)
        assert lsn == 50
        replay = replay_wal(path)
        assert [(k, v) for _op, k, v in replay.ops] == items

    def test_negative_keys(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(-(2**40), "low")
            wal.append_delete(-1)
        replay = replay_wal(path)
        assert replay.ops[0] == ("put", -(2**40), "low")
        assert replay.ops[1] == ("delete", -1, None)

    def test_missing_file_replays_empty(self, tmp_path):
        replay = replay_wal(str(tmp_path / "nope.wal"))
        assert replay.ops == []
        assert not replay.torn_tail

    def test_empty_log_replays_empty(self, path):
        WriteAheadLog(path).close()
        replay = replay_wal(path)
        assert replay.records == 0 and not replay.torn_tail

    def test_lsn_monotonic(self, path):
        with WriteAheadLog(path) as wal:
            assert wal.append_put(1, "a") == 1
            assert wal.append_delete(1) == 2
            assert wal.append_puts([(2, "b"), (3, "c")]) == 4


class TestTornTails:
    def test_garbage_tail_tolerated(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "a")
            wal.append_put(2, "b")
        with open(path, "ab") as handle:
            handle.write(os.urandom(37))
        replay = replay_wal(path)
        assert [op[1] for op in replay.ops] == [1, 2]
        assert replay.torn_tail

    def test_truncated_final_frame_dropped(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "a")
            wal.append_put(2, "b")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        replay = replay_wal(path)
        assert [op[1] for op in replay.ops] == [1]
        assert replay.torn_tail

    def test_corrupted_payload_stops_replay(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "aaaa")
            wal.append_put(2, "bbbb")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 2)  # inside the last frame's pickled value
            handle.write(b"\xff")
        replay = replay_wal(path)
        assert [op[1] for op in replay.ops] == [1]
        assert replay.torn_tail

    def test_reopen_truncates_torn_tail_then_appends(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "a")
        with open(path, "ab") as handle:
            handle.write(b"torn-frame-fragment")
        wal = WriteAheadLog(path)
        assert wal.recovered_records == 1
        assert wal.recovered_torn_tail
        wal.append_put(2, "b")
        wal.close()
        replay = replay_wal(path)
        assert [op[1] for op in replay.ops] == [1, 2]
        assert not replay.torn_tail

    def test_short_read_during_replay_is_torn_tail(self, path):
        with WriteAheadLog(path) as wal:
            for k in range(5):
                wal.append_put(k, f"v{k}")
        env = FaultyEnv(seed=3, short_read_at=4)
        replay = replay_wal(path, opener=env.open)
        assert replay.records < 5
        assert replay.torn_tail
        # A plain reader still sees everything: the file itself is intact.
        assert replay_wal(path).records == 5


class TestPoliciesAndLifecycle:
    def test_always_fsyncs_every_append(self, path):
        with WriteAheadLog(path, fsync_policy=FSYNC_ALWAYS) as wal:
            wal.append_put(1, "a")
            wal.append_put(2, "b")
            assert wal.syncs == 2

    def test_batch_fsyncs_only_on_sync(self, path):
        with WriteAheadLog(path, fsync_policy=FSYNC_BATCH) as wal:
            wal.append_put(1, "a")
            wal.append_put(2, "b")
            assert wal.syncs == 0
            wal.sync()
            assert wal.syncs == 1
        assert replay_wal(path).records == 2

    def test_never_still_replayable_after_close(self, path):
        with WriteAheadLog(path, fsync_policy=FSYNC_NEVER) as wal:
            wal.append_put(1, "a")
            assert wal.syncs == 0
        assert replay_wal(path).records == 1

    def test_unknown_policy_rejected(self, path):
        with pytest.raises(WALError):
            WriteAheadLog(path, fsync_policy="yolo")

    def test_closed_log_rejects_appends(self, path):
        wal = WriteAheadLog(path)
        wal.close()
        with pytest.raises(WALError):
            wal.append_put(1, "a")
        with pytest.raises(WALError):
            wal.sync()
        with pytest.raises(WALError):
            wal.reset()

    def test_reset_truncates(self, path):
        wal = WriteAheadLog(path)
        wal.append_put(1, "a")
        assert wal.tail_bytes() > 0
        wal.reset()
        assert wal.tail_bytes() == 0
        assert wal.resets == 1
        wal.append_put(2, "b")
        wal.close()
        assert [op[1] for op in replay_wal(path).ops] == [2]

    def test_snapshot_counters(self, path):
        wal = WriteAheadLog(path)
        wal.append_put(1, "a")
        wal.append_delete(1)
        snap = wal.snapshot()
        assert snap["records"] == 2.0
        assert snap["bytes"] > 0
        assert snap["syncs"] == 2.0
        wal.close()

    def test_concurrent_appends_all_survive(self, path):
        wal = WriteAheadLog(path, fsync_policy=FSYNC_BATCH)

        def work(tid):
            for i in range(200):
                wal.append_put(tid * 1000 + i, tid)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.sync()
        wal.close()
        replay = replay_wal(path)
        assert replay.records == 800
        assert not replay.torn_tail
        assert {op[1] for op in replay.ops} == {
            t * 1000 + i for t in range(4) for i in range(200)
        }


def _in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    return thread


def _joined(thread, timeout=5.0):
    thread.join(timeout)
    return not thread.is_alive()


class TestSyncOffThread:
    """``sync()`` holds the append lock only to flush and take its watermark:
    another thread keeps appending while the disk works."""

    def test_appends_proceed_during_sync_and_are_not_covered(self, path):
        disk = SlowFsync()
        wal = WriteAheadLog(path, fsync_policy=FSYNC_BATCH, opener=disk)
        wal.append_put(1, "a")
        wal.append_put(2, "b")
        disk.delay = 0.2
        syncer = _in_thread(wal.sync)
        assert disk.started.wait(5.0)
        for key in (3, 4, 5):
            wal.append_put(key, "late")
        # The appends returned while the fsync was still sleeping.
        assert disk.in_flight == 1 and wal.syncs == 0
        assert wal.snapshot()["durable_records"] == 0.0
        assert _joined(syncer)
        assert (wal.records, wal.durable_records, wal.syncs) == (5, 2, 1)
        disk.delay = 0.0
        wal.sync()
        assert (wal.records, wal.durable_records, wal.syncs) == (5, 5, 2)
        wal.close()
        assert replay_wal(path).records == 5

    def test_counters_stay_exact_under_contention(self, path):
        wal = WriteAheadLog(path, fsync_policy=FSYNC_BATCH)
        n_appenders, per_thread, n_syncers, syncs_each = 4, 300, 2, 40
        watermarks = []

        def append(tid):
            for i in range(per_thread):
                wal.append_put(tid * 10_000 + i, tid)

        def sync():
            for _ in range(syncs_each):
                wal.sync()
                watermarks.append((wal.durable_records, wal.records))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=append, args=(t,)) for t in range(n_appenders)
            ] + [threading.Thread(target=sync) for _ in range(n_syncers)]
            for thread in threads:
                thread.start()
            assert all(_joined(thread, 30.0) for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wal.syncs == n_syncers * syncs_each
        assert all(durable <= records for durable, records in watermarks)
        wal.sync()
        assert wal.durable_records == wal.records == n_appenders * per_thread
        wal.close()
        replay = replay_wal(path)
        assert replay.records == n_appenders * per_thread and not replay.torn_tail

    @pytest.mark.parametrize("racer", ["close", "reset"])
    def test_close_and_reset_wait_for_a_sync_in_flight(self, path, racer):
        disk = SlowFsync()
        wal = WriteAheadLog(path, fsync_policy=FSYNC_BATCH, opener=disk)
        wal.append_put(1, "a")
        disk.delay = 0.2
        outcome = []

        def sync():
            try:
                wal.sync()  # a closed descriptor would raise out of os.fsync
                outcome.append("synced")
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome.append(exc)

        syncer = _in_thread(sync)
        assert disk.started.wait(5.0)
        other = _in_thread(getattr(wal, racer))
        other.join(0.05)
        assert other.is_alive(), f"{racer}() did not wait for the fsync in flight"
        assert _joined(syncer) and _joined(other)
        assert outcome == ["synced"]
        if racer == "close":
            with pytest.raises(WALError):
                wal.sync()
        else:
            assert wal.durable_records == wal.records == 1
            assert wal.tail_bytes() == 0
            wal.close()
