"""Tests for the write-ahead log: framing, replay, policies, torn tails."""

import os
import pickle
import struct
import sys
import threading
import zlib

import pytest

from repro.btree.btree import BPlusTree
from repro.core.sware import SortednessAwareIndex
from repro.errors import WALError
from repro.storage.faults import FaultyEnv
from repro.storage.pages import encode_leaf
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    KIND_DELETE,
    KIND_PUT,
    KIND_PUT_BATCH,
    WriteAheadLog,
    encode_frame,
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


def _v1_frame(kind, payload):
    """A per-record frame as the log has always framed it: the CRC chains
    the packed (kind, flags, length) into the payload's."""
    crc = zlib.crc32(payload, zlib.crc32(struct.pack("<BBI", kind, 0, len(payload))))
    return struct.pack("<HBBII", 0x57A1, kind, 0, len(payload), crc) + payload


def _put_payload(key, value):
    return struct.pack("<q", key) + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class _Vanishing:
    """A value class the test deletes before the log is read back."""


class TestBatchFrames:
    def test_batch_is_one_frame_of_logical_records(self, path):
        items = [(k, f"v{k}") for k in range(100, 150)]
        with WriteAheadLog(path) as wal:
            assert wal.append_puts(items) == 50
            assert (wal.records, wal.durable_records, wal.syncs) == (50, 50, 1)
        page = encode_leaf([k for k, _ in items], [v for _, v in items], compress=True)
        with open(path, "rb") as handle:
            assert handle.read() == encode_frame(KIND_PUT_BATCH, page)
        replay = replay_wal(path)
        assert replay.ops == [("put", k, v) for k, v in items]
        assert replay.records == 50 and not replay.torn_tail

    def test_per_record_frames_are_byte_identical(self, path):
        with WriteAheadLog(path) as wal:
            wal.append_put(7, "x")
            wal.append_delete(7)
            wal.append_puts([(8, {"y": 1})])  # a one-record batch
        expected = (
            _v1_frame(KIND_PUT, _put_payload(7, "x"))
            + _v1_frame(KIND_DELETE, struct.pack("<q", 7))
            + _v1_frame(KIND_PUT, _put_payload(8, {"y": 1}))
        )
        with open(path, "rb") as handle:
            assert handle.read() == expected
        assert encode_frame(KIND_PUT, _put_payload(1, "a")) == _v1_frame(
            KIND_PUT, _put_payload(1, "a")
        )

    def test_batch_pickles_once_not_per_value(self, path):
        items = [(1_000 + k, bytes([k]) * 16) for k in range(64)]
        with WriteAheadLog(path) as wal:
            wal.append_puts(items)
            per_record = wal.bytes_written / len(items)
        assert per_record <= 30
        # The per-record framing the batch replaces: 12 + 8 + 31 bytes.
        assert len(_v1_frame(KIND_PUT, _put_payload(*items[0]))) == 51

    def test_int_values_take_the_delta_column(self, path):
        items = [(k, k * 10) for k in range(200)]
        with WriteAheadLog(path) as wal:
            wal.append_puts(items)
            assert wal.bytes_written < 200
        assert replay_wal(path).ops == [("put", k, v) for k, v in items]

    def test_empty_put_many_writes_and_syncs_nothing(self, path):
        wal = WriteAheadLog(path, fsync_policy=FSYNC_ALWAYS)
        index = SortednessAwareIndex(BPlusTree(), wal=wal)
        index.put_many([(1, "a"), (2, "b")])
        before = (wal.syncs, wal.records, wal.bytes_written, os.path.getsize(path))
        index.put_many([])
        assert (wal.syncs, wal.records, wal.bytes_written, os.path.getsize(path)) == before
        wal.close()


class TestMixedFormatLog:
    """Per-record frames from older logs, batch frames, single puts and
    deletes in one file replay in order, and a torn batch drops whole."""

    def _write(self, path):
        model, ops = {}, []

        def record(kind, key, value=None):
            ops.append((kind, key, value))
            if kind == "put":
                model[key] = value
            else:
                model.pop(key, None)

        with open(path, "wb") as handle:
            for key in (5, 3, 9):
                handle.write(encode_frame(KIND_PUT, _put_payload(key, ("old", key))))
                record("put", key, ("old", key))
        with WriteAheadLog(path) as wal:
            batch = [(key, ("batch", key)) for key in (3, 10, 11, 4)]
            wal.append_puts(batch)
            for key, value in batch:
                record("put", key, value)
            wal.append_put(12, "single")
            record("put", 12, "single")
            wal.append_delete(5)
            record("delete", 5)
            prefix = os.path.getsize(path)
            last = [(key, ("last", key)) for key in (20, 3, 21)]
            wal.append_puts(last)
        return model, ops, prefix, last

    def test_replays_in_order_then_accepts_appends(self, path):
        model, ops, _prefix, last = self._write(path)
        for key, value in last:
            model[key] = value
        replay = replay_wal(path)
        assert replay.ops == ops + [("put", k, v) for k, v in last]
        assert replay.records == len(ops) + len(last) and not replay.torn_tail
        state = {}
        for kind, key, value in replay.ops:
            if kind == "put":
                state[key] = value
            else:
                state.pop(key, None)
        assert state == model
        with WriteAheadLog(path) as wal:
            assert wal.recovered_records == replay.records
            wal.append_delete(3)
        assert replay_wal(path).ops[-1] == ("delete", 3, None)

    def test_cut_anywhere_in_the_last_batch_drops_it_whole(self, path):
        _model, ops, prefix, _last = self._write(path)
        with open(path, "rb") as handle:
            data = handle.read()
        for cut in range(prefix + 1, len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            replay = replay_wal(path)
            assert replay.ops == ops and replay.torn_tail, cut
            with WriteAheadLog(path) as wal:
                assert wal.recovered_records == len(ops)
                assert wal.recovered_torn_tail
            assert os.path.getsize(path) == prefix


class TestDecodeErrors:
    """A CRC-valid frame was written whole: failing to decode it is an
    error, never a torn tail that truncates acknowledged records after it."""

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_value_that_cannot_be_unpickled(self, path, monkeypatch, batched):
        with WriteAheadLog(path) as wal:
            wal.append_puts([(1, "a"), (2, "b")])
            if batched:
                wal.append_puts([(3, "c"), (4, _Vanishing())])
            else:
                wal.append_put(4, _Vanishing())
            wal.append_puts([(5, "e"), (6, "f")])
            wal.append_put(7, "g")
        size = os.path.getsize(path)
        monkeypatch.delattr(sys.modules[__name__], "_Vanishing")
        with pytest.raises(WALError, match="at byte") as caught:
            WriteAheadLog(path)
        assert caught.value.__cause__ is not None
        assert os.path.getsize(path) == size
        with pytest.raises(WALError):
            replay_wal(path)

    @pytest.mark.parametrize(
        "frame",
        [encode_frame(9, b"payload"), encode_frame(KIND_DELETE, b"\x00" * 5),
         encode_frame(KIND_PUT, b"\x01\x02"), encode_frame(KIND_PUT_BATCH, b"not a page")],
        ids=["unknown-kind", "short-delete", "short-put", "bad-page"],
    )
    def test_malformed_frame(self, path, frame):
        with WriteAheadLog(path) as wal:
            wal.append_put(1, "a")
        with open(path, "ab") as handle:
            handle.write(frame + encode_frame(KIND_DELETE, struct.pack("<q", 1)))
        size = os.path.getsize(path)
        with pytest.raises(WALError, match=f"at byte {size - len(frame) - 20}"):
            WriteAheadLog(path)
        assert os.path.getsize(path) == size
