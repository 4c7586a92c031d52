"""A file-backed page store and crash-safe index checkpointing.

:class:`PageFile` manages a single file of fixed-size slots (4 KB by
default, the paper's page size), with a free-list for reuse and CRC-checked
page payloads (via :mod:`repro.storage.pages`). :class:`CheckpointStore`
persists a whole B+-tree into a page file and restores it, and together
with the write-ahead log (:mod:`repro.storage.wal`) forms the durability
subsystem: checkpoint + WAL-tail replay is the restart path
(:meth:`CheckpointStore.recover`).

Checkpoints are **atomic**. A save writes data slots, a pickled directory
(logical page id → slot chain, root id, tree config) and a fixed-size,
CRC-protected footer carrying a monotonically increasing epoch into a
temporary file, fsyncs it, and commits with an atomic ``os.replace``; the
containing directory is fsynced so the rename itself is durable. A reader
therefore always sees either the previous checkpoint or the new one in
full — never a torn mix — and the highest epoch stamp identifies the
newest. A crash mid-save leaves only a stale ``*.tmp`` file, which
recovery removes.

File layout::

    [ slot 0 | slot 1 | ... | slot N-1 | directory pickle | footer ]

    footer (little-endian, fixed size, last bytes of the file):
        magic       u32   0x53574346 ("SWCF")
        version     u16   1
        flags       u16   reserved
        epoch       u64   checkpoint epoch (monotonic per store path)
        dir_offset  u64   byte offset of the directory pickle
        dir_length  u64   directory pickle length
        dir_crc     u32   CRC32 of the directory pickle
        footer_crc  u32   CRC32 of all preceding footer bytes

Covered failure modes (torn footer, truncated file, payload corruption,
garbage files, crash at any I/O boundary during save) are exercised by the
module tests and the seeded crash-injection harness
(:mod:`repro.storage.faults`).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from repro.errors import CheckpointUnsupportedError, ConfigError, ReproError
from repro.obs import current_obs
from repro.storage.pages import PageCorruptionError, decode_value, encode_value
from repro.storage.pages import deserialize_btree, serialize_btree
from repro.storage.wal import WriteAheadLog, fsync_file, replay_wal

DEFAULT_SLOT_SIZE = 4096

_SLOT_HEADER = struct.Struct("<I")  # payload length within the slot chain

FOOTER_MAGIC = 0x53574346  # "SWCF": SWARE checkpoint footer
FOOTER_VERSION = 1
_FOOTER = struct.Struct("<IHHQQQII")
_CRC = struct.Struct("<I")


class PageFileError(ReproError):
    """The page file is structurally unusable (bad directory, missing slots)."""


class PageFile:
    """Fixed-size-slot page storage over one OS file.

    Payloads larger than a slot spill into a chain of continuation slots;
    each stored page records its payload length so reads are exact.

    Reopening an existing file resumes slot allocation *after* the slots
    already on disk (``file size // slot_size``), so appends to a reopened
    file never silently overwrite existing data.
    """

    def __init__(
        self,
        path: str,
        slot_size: int = DEFAULT_SLOT_SIZE,
        opener: Callable = open,
    ):
        if slot_size < 64:
            raise ConfigError("slot_size must be >= 64")
        self.path = path
        self.slot_size = slot_size
        self._free: List[int] = []
        self._chains: Dict[int, List[int]] = {}  # logical id -> slot chain
        exists = os.path.exists(path)
        self._file = opener(path, "r+b" if exists else "w+b")
        # Slots already on disk stay allocated: a fresh file starts at slot
        # 0, a reopened one appends after its existing content.
        self._n_slots = os.path.getsize(path) // slot_size if exists else 0

    # -- slot primitives ---------------------------------------------------
    def _allocate_slot(self) -> int:
        if self._free:
            return self._free.pop()
        slot = self._n_slots
        self._n_slots += 1
        return slot

    def _write_slot(self, slot: int, payload: bytes) -> None:
        assert len(payload) <= self.slot_size
        self._file.seek(slot * self.slot_size)
        self._file.write(payload.ljust(self.slot_size, b"\x00"))

    def _read_slot(self, slot: int) -> bytes:
        self._file.seek(slot * self.slot_size)
        data = self._file.read(self.slot_size)
        if len(data) < self.slot_size:
            raise PageFileError(f"slot {slot} truncated")
        return data

    # -- page API ---------------------------------------------------------
    def write_page(self, page_id: int, payload: bytes) -> None:
        """Store ``payload`` under logical ``page_id`` (replacing any old)."""
        self.free_page(page_id)
        body = _SLOT_HEADER.pack(len(payload)) + payload
        usable = self.slot_size
        chain: List[int] = []
        for offset in range(0, len(body), usable):
            chain.append(self._allocate_slot())
        for index, slot in enumerate(chain):
            self._write_slot(slot, body[index * usable : (index + 1) * usable])
        self._chains[page_id] = chain

    def read_page(self, page_id: int) -> bytes:
        chain = self._chains.get(page_id)
        if chain is None:
            raise PageFileError(f"unknown page {page_id}")
        body = b"".join(self._read_slot(slot) for slot in chain)
        (length,) = _SLOT_HEADER.unpack_from(body)
        payload = body[_SLOT_HEADER.size : _SLOT_HEADER.size + length]
        if len(payload) != length:
            raise PageFileError(f"page {page_id} payload truncated")
        return payload

    def free_page(self, page_id: int) -> None:
        chain = self._chains.pop(page_id, None)
        if chain:
            self._free.extend(chain)

    @property
    def n_slots(self) -> int:
        return self._n_slots

    # -- lifecycle ----------------------------------------------------------
    def truncate(self) -> None:
        """Discard every slot and reset allocation to an empty file."""
        self._file.seek(0)
        self._file.truncate(0)
        self._free.clear()
        self._chains.clear()
        self._n_slots = 0

    def sync(self) -> None:
        fsync_file(self._file)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class RecoveryReport:
    """What :meth:`CheckpointStore.recover` (or :func:`rebuild_index`) found
    and rebuilt. It holds no entry count: counting the live entries is a
    full merged scan, which a restart does not need; :meth:`describe` takes
    the count from a caller that made one."""

    checkpoint_found: bool = False
    checkpoint_epoch: int = 0
    checkpoint_pages: int = 0
    wal_records_replayed: int = 0
    wal_torn_tail: bool = False
    stale_tmp_removed: bool = False
    out_path: Optional[str] = None  #: where a rebuild saved its bulk-loaded tree

    def describe(self, entries: int) -> str:
        """The report as text, with ``entries`` live entries counted by the caller."""
        if self.checkpoint_found:
            found = f"epoch {self.checkpoint_epoch}, {self.checkpoint_pages} pages"
        else:
            found = "none found (fresh index)"
        lines = [
            f"checkpoint : {found}",
            f"wal replay : {self.wal_records_replayed} records"
            + (" (torn tail truncated)" if self.wal_torn_tail else ""),
            f"entries    : {entries}",
        ]
        if self.out_path is not None:
            lines.append(f"rebuilt    : {self.out_path} (bulk-loaded)")
        if self.stale_tmp_removed:
            lines.append("cleanup    : removed stale checkpoint temp file")
        return "\n".join(lines)


class CheckpointStore:
    """Persist/restore whole indexes atomically through a :class:`PageFile`.

    Parameters
    ----------
    path:
        Checkpoint file. Saves are committed by writing ``path + ".tmp"``
        in full and atomically renaming it over ``path``.
    opener / replace:
        Injection seams for the crash harness; default to ``open`` and
        ``os.replace``.
    """

    TMP_SUFFIX = ".tmp"

    def __init__(
        self,
        path: str,
        slot_size: int = DEFAULT_SLOT_SIZE,
        opener: Callable = open,
        replace: Optional[Callable] = None,
        compress: bool = True,
    ):
        self.path = path
        self.slot_size = slot_size
        self.compress = compress
        self._opener = opener
        self._replace = replace if replace is not None else os.replace
        self._epoch: Optional[int] = None  # last epoch written/read

    @property
    def tmp_path(self) -> str:
        return self.path + self.TMP_SUFFIX

    @property
    def last_epoch(self) -> Optional[int]:
        """Epoch of the last checkpoint saved or loaded through this store."""
        return self._epoch

    # -- save ---------------------------------------------------------------
    def _next_epoch(self) -> int:
        if self._epoch is not None:
            return self._epoch + 1
        # First save through this handle: resume after any epoch already
        # committed at this path so the stamp stays monotonic across
        # process restarts ("epoch stamp wins" on load).
        if os.path.exists(self.path):
            try:
                with self._opener(self.path, "rb") as fobj:
                    _directory, epoch = self._read_footer(
                        fobj, os.path.getsize(self.path)
                    )
                return epoch + 1
            except (PageFileError, OSError):
                pass
        return 1

    def save_btree(self, tree) -> int:
        """Atomically checkpoint ``tree``; returns the number of pages written.

        The previous checkpoint at :attr:`path` stays intact (and loadable)
        until the new one is durably committed; a crash at any point during
        the save leaves at most a stale temp file.
        """
        from repro.btree.btree import BPlusTree

        if not isinstance(tree, BPlusTree):
            # The page format serializes B+-tree nodes; the Bε-tree's buffered
            # nodes and the LSM-tree's sorted runs have no such image.
            raise CheckpointUnsupportedError(
                f"{type(tree).__name__} has no page-serializable node "
                "structure; checkpointing supports B+-tree backends only"
            )
        blob = serialize_btree(tree, compress=self.compress)
        epoch = self._next_epoch()
        tmp = self.tmp_path
        if os.path.exists(tmp):
            os.unlink(tmp)
        pagefile = PageFile(tmp, self.slot_size, opener=self._opener)
        try:
            for page_id, payload in blob["pages"].items():
                pagefile.write_page(page_id, payload)
            directory = {
                "root": blob["root"],
                "config": blob["config"],
                "chains": dict(pagefile._chains),
                "epoch": epoch,
                # v1 = raw key columns, v2 = delta-compressed where smaller.
                # Pages self-describe via their flags byte, so loaders never
                # branch on this — it is metadata for reporting.
                "page_format": 2 if self.compress else 1,
            }
            dir_payload = encode_value(directory)
            dir_offset = pagefile.n_slots * self.slot_size
            fobj = pagefile._file
            fobj.seek(dir_offset)
            fobj.write(dir_payload)
            footer = _FOOTER.pack(
                FOOTER_MAGIC, FOOTER_VERSION, 0, epoch, dir_offset, len(dir_payload),
                zlib.crc32(dir_payload), 0,
            )[:-4]
            fobj.write(footer + _CRC.pack(zlib.crc32(footer)))
            pagefile.sync()
        finally:
            pagefile.close()
        self._replace(tmp, self.path)
        self._sync_parent_dir()
        self._epoch = epoch
        return len(blob["pages"])

    def _sync_parent_dir(self) -> None:
        """fsync the directory entry so the rename survives power loss."""
        parent = os.path.dirname(os.path.abspath(self.path))
        try:
            fd = os.open(parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- load ---------------------------------------------------------------
    def _read_footer(self, fobj, file_size: int):
        """Validate and return (directory, epoch) from the file's footer."""
        if file_size < _FOOTER.size:
            raise PageFileError("file too small for a checkpoint footer")
        fobj.seek(file_size - _FOOTER.size)
        raw = fobj.read(_FOOTER.size)
        if len(raw) < _FOOTER.size:
            raise PageFileError("checkpoint footer truncated")
        magic, version, _flags, epoch, dir_offset, dir_length, dir_crc, footer_crc = (
            _FOOTER.unpack(raw)
        )
        if magic != FOOTER_MAGIC:
            raise PageFileError(f"bad checkpoint footer magic 0x{magic:08X}")
        if zlib.crc32(raw[:-4]) != footer_crc:
            raise PageFileError("checkpoint footer checksum mismatch")
        if version != FOOTER_VERSION:
            raise PageFileError(f"unsupported checkpoint version {version}")
        if dir_offset + dir_length > file_size - _FOOTER.size:
            raise PageFileError("checkpoint directory extends past the footer")
        fobj.seek(dir_offset)
        dir_payload = fobj.read(dir_length)
        if len(dir_payload) < dir_length:
            raise PageFileError("checkpoint directory truncated")
        if zlib.crc32(dir_payload) != dir_crc:
            raise PageFileError("checkpoint directory checksum mismatch")
        try:
            directory = decode_value(dir_payload)
        except PageCorruptionError as exc:
            raise PageFileError(f"checkpoint directory unreadable: {exc!r}") from exc
        if not isinstance(directory, dict) or not {"root", "chains", "config"} <= set(
            directory
        ):
            raise PageFileError("checkpoint directory malformed")
        return directory, epoch

    def load_btree(self):
        """Restore the checkpointed B+-tree from the newest valid footer."""
        pagefile = PageFile(self.path, self.slot_size, opener=self._opener)
        try:
            directory, epoch = self._read_footer(
                pagefile._file, os.path.getsize(self.path)
            )
            chains = directory["chains"]
            pagefile._chains = dict(chains)
            pages = {page_id: pagefile.read_page(page_id) for page_id in chains}
        finally:
            pagefile.close()
        tree = deserialize_btree(
            {"root": directory["root"], "config": directory["config"], "pages": pages}
        )
        tree.check_invariants()
        self._epoch = epoch
        return tree

    # -- index-level helpers --------------------------------------------------
    def save_index(self, index) -> int:
        """Checkpoint a :class:`~repro.core.sware.SortednessAwareIndex`.

        The SWARE buffer is volatile by design (its contents are covered by
        the WAL, when one is attached); checkpointing drains it into the
        tree first, then persists the tree atomically. Returns the number
        of pages written.
        """
        index.flush_all()
        return self.save_btree(index.backend)

    def load_index(self, config=None):
        """Restore a checkpoint as a fresh SA B+-tree (empty buffer)."""
        from repro.core.sware import SortednessAwareIndex

        return SortednessAwareIndex(self.load_btree(), config=config)

    # -- recovery -------------------------------------------------------------
    def recover(
        self,
        wal_path: Optional[str] = None,
        config=None,
        backend_factory: Optional[Callable] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        """Rebuild an index from the newest checkpoint plus the WAL tail.

        Returns ``(index, report)``. The restart sequence is:

        1. remove any stale ``*.tmp`` left by a crash mid-checkpoint;
        2. load the checkpoint at :attr:`path` (a missing file means the
           system crashed before its first checkpoint: start fresh, with
           ``backend_factory()`` — default a bare B+-tree — as the tree);
        3. replay the WAL's intact prefix, in order, through the index's
           batch write path: each run of consecutive puts goes through one
           ``put_many`` (observably a loop of ``insert``), each delete
           through ``delete``. Upserts and deletes are idempotent, so a WAL
           that overlaps the checkpoint re-applies harmlessly.

        The log comes in one of two forms. ``wal`` is a log opened for
        appending: its open-time scan (:attr:`WriteAheadLog.recovered`,
        which also truncated any torn tail) is the prefix replayed, so the
        file is decoded once; its ops are dropped once applied, and the
        index comes back with ``wal`` attached, ready to resume durable
        operation. ``wal_path`` is the read-only form: the file is scanned
        here, left untouched, and the index comes back with **no WAL
        attached**.

        This is the one recovery path; :func:`rebuild_index` is this plus
        one bulk load. It reads nothing it does not rebuild: the report
        counts no entries (a full scan of the recovered index).
        """
        from repro.core.sware import SortednessAwareIndex

        if wal is not None:
            if wal_path is not None:
                raise ValueError("pass wal_path or wal, not both")
            wal_path = wal.path
        obs = current_obs()
        report = RecoveryReport()
        if os.path.exists(self.tmp_path):
            os.unlink(self.tmp_path)
            report.stale_tmp_removed = True
        with obs.span("recovery.load_checkpoint") as span:
            if os.path.exists(self.path):
                index = self.load_index(config=config)
                report.checkpoint_found = True
                report.checkpoint_epoch = self._epoch or 0
                report.checkpoint_pages = (
                    index.backend.leaf_count + index.backend.internal_count
                    if hasattr(index.backend, "leaf_count")
                    else 0
                )
            else:
                if backend_factory is None:
                    from repro.btree.btree import BPlusTree

                    backend_factory = BPlusTree
                index = SortednessAwareIndex(backend_factory(), config=config)
            span.set(found=report.checkpoint_found, epoch=report.checkpoint_epoch)
        if wal_path is not None:
            replay = (
                wal.recovered if wal is not None
                else replay_wal(wal_path, opener=self._opener)
            )
            with obs.span("recovery.replay_wal") as span:
                for kind, ops in groupby(replay.ops, key=itemgetter(0)):
                    if kind == "put":
                        index.put_many([(key, value) for _kind, key, value in ops])
                    else:
                        for _kind, key, _value in ops:
                            index.delete(key)
                replay.ops = []
                span.set(records=replay.records, torn=replay.torn_tail)
            report.wal_records_replayed = replay.records
            report.wal_torn_tail = replay.torn_tail
        index.wal = wal
        return index, report


def rebuild_index(
    checkpoint_path: str,
    wal_path: Optional[str] = None,
    *,
    out_path: Optional[str] = None,
    slot_size: int = DEFAULT_SLOT_SIZE,
    opener: Callable = open,
    replace: Optional[Callable] = None,
):
    """Recover, then bulk-load the live items into a fresh tree.

    Returns ``(index, report)``: :meth:`CheckpointStore.recover`'s state
    and report, over a B+-tree (the checkpoint's config) filled by one
    sorted ``bulk_load_append`` (§IV, Fig. 3b), so every leaf but the last
    sits at ``bulk_fill_factor``, the densest layout the tree writes.
    ``out_path`` also checkpoints that tree there (atomic tmp + rename).
    The source checkpoint and WAL are never modified.
    """
    from repro.btree.btree import BPlusTree
    from repro.core.sware import SortednessAwareIndex

    recovered, report = CheckpointStore(
        checkpoint_path, slot_size, opener=opener, replace=replace
    ).recover(wal_path)
    items = recovered.items()
    tree = BPlusTree(recovered.backend.config)
    with current_obs().span("rebuild.bulk_load") as span:
        tree.bulk_load_append(items)
        span.set(entries=tree.n_entries)
    if out_path is not None:
        out = CheckpointStore(out_path, slot_size, opener=opener, replace=replace)
        if os.path.exists(out.tmp_path):
            os.unlink(out.tmp_path)
            report.stale_tmp_removed = True
        out.save_btree(tree)
        report.out_path = out_path
    return SortednessAwareIndex(tree), report
