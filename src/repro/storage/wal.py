"""Write-ahead log: crash durability for the SWARE front-end (§IV).

The SWARE design keeps recently ingested data in a volatile in-memory
buffer in front of the tree — exactly the data a crash loses. The
:class:`WriteAheadLog` closes that window: every logical ``put``/``delete``
is appended (and, under the default policy, fsynced) *before* it enters the
buffer, so an acknowledged write survives a crash even though it may sit in
the buffer for thousands of operations before a flush cycle moves it into
the tree.

Frame format (all little-endian)::

    magic   u16   0x57A1
    kind    u8    1=put, 2=delete, 3=batch of puts
    flags   u8    reserved
    length  u32   payload length in bytes
    crc     u32   CRC32 over header bytes [2:8] (kind, flags, length),
                  then the payload
    payload ...   put:    key s64 + pickled value (``pages.encode_record``)
                  delete: key s64
                  batch:  the puts in append order as one v2 leaf page
                          (``pages.encode_records``)

The put payloads are :mod:`repro.storage.pages`' record codec, the same
bytes as the wire's PUT and PUT_MANY payloads, decoded here with full
pickle so any importable value class round-trips.
:meth:`WriteAheadLog.append_puts` writes a batch of two or more records as
one kind-3 frame, durable **all or nothing** (a torn frame drops the whole
batch); one-record batches keep kind 1. ``records``, the LSNs and
:attr:`WALReplay.records` count logical records, not frames.

Replay (:func:`replay_wal`) walks frames from the start of the file and
stops at the first torn one — a short header, bad magic, short payload, or
CRC mismatch. That is *torn-tail tolerance*: the frame being written when
the process died is, by construction, the last one in the file, so a torn
frame marks the crash point and everything before it is intact. A torn
record is therefore never surfaced as data; it is reported through
:attr:`WALReplay.torn_tail` and truncated away the next time the log is
opened for appending. A frame that passes its CRC was written whole, so one
that then fails to decode (an unknown kind, a malformed payload, a value
whose class cannot be imported here) is not a crash: replay raises
:class:`~repro.errors.WALError` with its byte offset and leaves the file
untouched.

Opening an existing log scans it once; the scan stays on the log as
:attr:`WriteAheadLog.recovered`, so recovery
(:meth:`~repro.storage.pagefile.CheckpointStore.recover` with ``wal=``)
replays the same pass that found the append offset instead of decoding the
file again.

The log is safe to share between threads: appends serialize on an internal
lock, and :meth:`WriteAheadLog.sync` holds that lock only to flush and note
how many records it covers — the fsync itself runs outside it, so a second
thread keeps appending while the disk works (the server's off-loop group
commit relies on this). The log is truncated by :meth:`WriteAheadLog.reset`
once a checkpoint has made its contents redundant (see
:class:`~repro.storage.pagefile.CheckpointStore`).
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import WALError
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage import pages

WAL_MAGIC = 0x57A1
KIND_PUT = 1
KIND_DELETE = 2
KIND_PUT_BATCH = 3

#: fsync policies: every append / only on explicit ``sync()`` / never
#: automatically (``sync()`` still forces one when called).
FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_NEVER)

_FRAME_HEADER = struct.Struct("<HBBII")  # magic, kind, flags, length, crc
_FRAME_PREFIX = struct.Struct("<HBBI")  # the header up to the crc
_CRC = struct.Struct("<I")
_KEY = struct.Struct("<q")

#: A replayed logical operation: ("put", key, value) or ("delete", key, None).
WALOp = Tuple[str, int, object]


def fsync_file(fobj) -> None:
    """fsync a file object, honouring a fault-injection wrapper's hook.

    Wrappers (e.g. :class:`~repro.storage.faults.FaultyFile`) expose their
    own ``fsync`` method so the syscall passes through the injection
    counter; plain files fall back to ``os.fsync`` on the descriptor.
    """
    hook = getattr(fobj, "fsync", None)
    if hook is not None:
        hook()
    else:
        fobj.flush()
        os.fsync(fobj.fileno())


def encode_frame(kind: int, payload: bytes) -> bytes:
    """One CRC-framed WAL record."""
    prefix = _FRAME_PREFIX.pack(WAL_MAGIC, kind, 0, len(payload))
    return prefix + _CRC.pack(zlib.crc32(payload, zlib.crc32(prefix[2:]))) + payload


def _decode_into(ops: List[WALOp], kind: int, payload: bytes) -> int:
    """Append a CRC-valid frame's logical ops to ``ops``; returns how many.
    Raises :class:`~repro.storage.pages.PageCorruptionError` if it does not decode."""
    if kind == KIND_PUT_BATCH:
        records = pages.decode_records(payload)
        ops.extend([("put", key, value) for key, value in records])
        return len(records)
    if kind == KIND_PUT:
        ops.append(("put", *pages.decode_record(payload)))
    elif kind != KIND_DELETE:
        raise pages.PageCorruptionError(f"unknown frame kind {kind}")
    elif len(payload) != _KEY.size:
        raise pages.PageCorruptionError(f"malformed delete payload of {len(payload)} bytes")
    else:
        ops.append(("delete", _KEY.unpack(payload)[0], None))
    return 1


@dataclass
class WALReplay:
    """The outcome of scanning a WAL file.

    ``valid_bytes`` is the length of the intact prefix — reopening the log
    truncates to exactly this offset before appending again. ``records``
    counts logical records (a batch frame contributes one per put).
    """

    ops: List[WALOp] = field(default_factory=list)
    records: int = 0
    valid_bytes: int = 0
    torn_tail: bool = False


def _scan(fobj) -> WALReplay:
    """Walk frames from offset 0; stop at the first torn frame.

    A short header or payload, bad magic or a CRC mismatch is a torn tail.
    A CRC-valid frame that does not decode raises :class:`WALError`.
    """
    replay = WALReplay()
    read = fobj.read
    fobj.seek(0)
    while True:
        header = read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            replay.torn_tail = len(header) > 0
            return replay
        magic, kind, _flags, length, crc = _FRAME_HEADER.unpack(header)
        if magic != WAL_MAGIC:
            replay.torn_tail = True
            return replay
        payload = read(length)
        if len(payload) < length or zlib.crc32(payload, zlib.crc32(header[2:8])) != crc:
            replay.torn_tail = True
            return replay
        try:
            replay.records += _decode_into(replay.ops, kind, payload)
        except pages.PageCorruptionError as exc:
            raise WALError(
                f"WAL frame at byte {replay.valid_bytes} passes its CRC "
                f"but does not decode: {exc!r}"
            ) from exc
        replay.valid_bytes += _FRAME_HEADER.size + length


def replay_wal(path: str, opener: Callable = open) -> WALReplay:
    """Scan ``path`` and return its intact logical operations, in order.

    A missing file replays as empty (a fresh log that never saw a write);
    torn tails are tolerated per the module docstring.
    """
    if not os.path.exists(path):
        return WALReplay()
    fobj = opener(path, "rb")
    try:
        return _scan(fobj)
    finally:
        fobj.close()


class WriteAheadLog:
    """Append-only, CRC-framed log of logical index operations.

    Parameters
    ----------
    path:
        Log file; created if absent. An existing file is scanned on open
        and any torn tail left by a crash is truncated away so new appends
        start at the intact prefix.
    fsync_policy:
        ``"always"`` (default) fsyncs every append — an acknowledged write
        is durable; ``"batch"`` flushes to the OS per append but fsyncs only
        on :meth:`sync`; ``"never"`` leaves syncing entirely to the caller.
    opener:
        File factory (``open``-compatible); the fault-injection harness
        substitutes one that wraps files in :class:`FaultyFile`.
    """

    def __init__(
        self,
        path: str,
        fsync_policy: str = FSYNC_ALWAYS,
        opener: Callable = open,
        obs: Optional[Observability] = None,
    ):
        if fsync_policy not in FSYNC_POLICIES:
            raise WALError(f"unknown fsync policy {fsync_policy!r}")
        self.path = path
        self.fsync_policy = fsync_policy
        self.obs = obs if obs is not None else current_obs()
        # ``_lock`` guards the file position and every counter. ``_sync_lock``
        # is held across a whole sync()/reset()/close() so the descriptor
        # cannot be closed or truncated under an fsync in flight; it is
        # always taken before ``_lock``.
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._closed = False
        self.records = 0  # appended through this handle
        #: Watermark: the first ``durable_records`` of ``records`` are on
        #: stable storage (covered by a completed fsync, or by a reset).
        self.durable_records = 0
        self.bytes_written = 0
        self.syncs = 0
        self.resets = 0
        #: The open-time scan of an existing log: its intact prefix, which
        #: ``CheckpointStore.recover(wal=...)`` replays and then empties.
        self.recovered = WALReplay()
        existing = os.path.exists(path)
        self._file = opener(path, "r+b" if existing else "w+b")
        if existing:
            try:
                self.recovered = replay = _scan(self._file)
            except BaseException:
                self._file.close()
                raise
            if replay.torn_tail:
                self._file.truncate(replay.valid_bytes)
            self._file.seek(replay.valid_bytes)
        self.recovered_records = self.recovered.records  # intact records found at open
        self.recovered_torn_tail = self.recovered.torn_tail
        if self.obs is not NULL_OBS:
            self.obs.register_collector("wal", self.snapshot)

    # -- appends -----------------------------------------------------------
    def append_put(self, key: int, value: object) -> int:
        """Log an upsert; returns the record's LSN (1-based append count).
        A key outside int64 raises :class:`KeyRangeError`, logging nothing."""
        return self._append(encode_frame(KIND_PUT, pages.encode_record(key, value)), 1)

    def append_delete(self, key: int) -> int:
        """Log a delete; returns the record's LSN."""
        try:
            record = _KEY.pack(key)
        except struct.error:
            pages.check_keys(key, key)
            raise
        return self._append(encode_frame(KIND_DELETE, record), 1)

    def append_puts(self, items: Sequence[Tuple[int, object]]) -> int:
        """Log a batch of upserts as one all-or-nothing frame (one fsync
        under "always"); returns the LSN of its last record.

        An empty batch writes and syncs nothing; a one-record batch is an
        :meth:`append_put`.
        """
        if len(items) < 2:
            return self.append_put(*items[0]) if items else self.records
        return self._append(encode_frame(KIND_PUT_BATCH, pages.encode_records(items)), len(items))

    def _append(self, frame: bytes, records: int) -> int:
        with self.obs.span("wal.append", records=records):
            with self._lock:
                if self._closed:
                    raise WALError("write-ahead log is closed")
                self._file.write(frame)
                self.bytes_written += len(frame)
                self.records += records
                if self.fsync_policy == FSYNC_ALWAYS:
                    self._synced(self.records, self._timed_fsync())
                elif self.fsync_policy == FSYNC_BATCH:
                    self._file.flush()
                return self.records

    def _timed_fsync(self) -> int:
        """fsync the log file; returns the syscall's latency in ns.

        Takes no lock itself: the inline ``"always"`` append and
        :meth:`reset` call it under ``_lock`` (nothing may append between
        their write and their fsync), :meth:`sync` calls it holding only
        ``_sync_lock`` so appends proceed meanwhile. Either way the caller
        passes the result to :meth:`_synced` under ``_lock``.
        """
        start = time.perf_counter_ns()
        fsync_file(self._file)
        return time.perf_counter_ns() - start

    def _synced(self, covered: int, elapsed: int) -> None:
        """Account one completed fsync covering the first ``covered`` records.

        Callers hold ``_lock``. The latency feeds both the ``wal_fsync_ns``
        histogram (p99 drives the ``wal_fsync_slow`` health rule) and the
        monitor hub's fsync totals.
        """
        self.syncs += 1
        if covered > self.durable_records:
            self.durable_records = covered
        obs = self.obs
        if obs is not NULL_OBS:
            obs.observe_hist("wal_fsync_ns", elapsed)
            hub = obs.monitors
            if hub is not None:
                hub.observe_fsync(elapsed)

    # -- lifecycle ---------------------------------------------------------
    def sync(self) -> None:
        """Force everything appended so far to stable storage.

        Safe to call from one thread while another appends: records that
        land during the fsync are simply not covered by it
        (``durable_records`` says how far this sync reached).
        """
        with self._sync_lock:
            with self._lock:
                if self._closed:
                    raise WALError("write-ahead log is closed")
                self._file.flush()
                covered = self.records
            elapsed = self._timed_fsync()
            with self._lock:
                self._synced(covered, elapsed)

    def reset(self) -> None:
        """Truncate the log to empty (called once a checkpoint is durable).

        Every logged operation is now redundant with the checkpoint; a
        crash between the checkpoint rename and this truncation merely
        replays idempotent upserts/deletes onto state that already
        contains them.
        """
        with self.obs.span("wal.reset"):
            with self._sync_lock, self._lock:
                if self._closed:
                    raise WALError("write-ahead log is closed")
                self._file.seek(0)
                self._file.truncate(0)
                self._synced(self.records, self._timed_fsync())
                self.resets += 1

    def tail_bytes(self) -> int:
        """Bytes currently in the log (since the last reset)."""
        with self._lock:
            return self._file.tell()

    def close(self) -> None:
        with self._sync_lock, self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters for the ``wal`` obs collector."""
        return {
            "records": float(self.records),
            "bytes": float(self.bytes_written),
            "syncs": float(self.syncs),
            "durable_records": float(self.durable_records),
            "resets": float(self.resets),
            "recovered_records": float(self.recovered_records),
            "recovered_torn_tail": float(self.recovered_torn_tail),
        }
