"""The record codec: the bytes of every record, and the pages built on them.

SWARE's buffer holds each record as a key and an opaque value (§IV). This
module is the one place records become bytes: ``encode_value`` (a pickle),
``encode_record`` (``key s64 + value``: the wire's PUT and the WAL's kind-1
payload), ``encode_records`` (a batch as one v2 leaf page: the wire's
PUT_MANY and the WAL's kind-3 payload), and the leaf and internal pages
of checkpoints, each with its ``decode_*`` inverse.

Value decoders take ``trusted``. Files this library wrote decode with full
pickle (the default): checkpoints and WALs may hold user classes. Socket
bytes decode with ``trusted=False``: the unpickler refuses every global (the
stdlib's "Restricting Globals" recipe, allowing nothing), so only builtin
scalars and containers come back and no code runs; trailing bytes are
refused, and a page may claim at most :data:`MAX_UNTRUSTED_RECORDS`
records. Every decode failure raises :class:`PageCorruptionError`.

Page layout (all little-endian)::

    magic   u16   0x5A7E ("SWARE"-ish)
    kind    u8    1=leaf, 2=internal
    flags   u8    bit 0 = delta-compressed key column (format v2)
                  bit 1 = delta-compressed all-int64 value column
    count   u32   number of entries / separators
    crc     u32   CRC32 of everything after the header
    body    ...   kind-specific

A leaf body is the key column (8-byte keys: the paper's 4-byte-key/8-byte-
entry layout scaled to 64-bit keys) then one pickled list of values.
Flags=0 is the original (v1) format; every v1 page written by older
checkpoints decodes unchanged. When ``FLAG_COMPRESSED_KEYS`` is set the key
column is a self-describing delta block (:func:`encode_key_block`: a
``count``/``first``/``last``/``width`` header, then the deltas of
:func:`repro.kernels.delta_pack`) instead of ``count`` raw ``<q`` words —
chosen per page, and only when it is actually smaller. The same block format doubles for the value column
(``FLAG_COMPRESSED_VALUES``) when every value on the page is a plain int64:
wrapped deltas round-trip any int64 sequence exactly, sorted or not, so the
value column needs no sortedness — only the guarantee that it shrank versus
the pickle.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import List, Sequence, Tuple

from repro import kernels
from repro.errors import KeyRangeError, ReproError

MAGIC = 0x5A7E
KIND_LEAF = 1
KIND_INTERNAL = 2

#: flags bit 0: key column is a delta-compressed block, not raw ``<q`` words.
FLAG_COMPRESSED_KEYS = 0x01
#: flags bit 1: value column is a delta-compressed block, not a pickle —
#: only ever set when every value on the page is a plain (non-bool) int64.
FLAG_COMPRESSED_VALUES = 0x02

#: The most records a page decoded with ``trusted=False`` may claim, checked
#: before any column is decoded: a width-0 delta column costs no bytes per
#: record, so a 54-byte page could otherwise ask for billions.
MAX_UNTRUSTED_RECORDS = 1 << 16

#: The key domain, spelled only here: what an s64 field holds, and every key
#: an index takes (:func:`check_keys` is the one refusal of any other).
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

_HEADER = struct.Struct("<HBBII")
_KEY = struct.Struct("<q")

#: count:u32 | anchor:s64 | last:s64 | width:u8 — followed by the packed
#: delta payload of ``(count - 1) * width`` bits, little-endian bit order.
KEY_BLOCK_HEADER = struct.Struct("<IqqB")


class PageCorruptionError(ReproError):
    """A value, record or page failed its checksum or structural validation."""


def check_keys(lo: int, hi: int) -> None:
    """Raise :class:`KeyRangeError` unless ``lo`` and ``hi`` (a sorted batch's
    first and last key, or one key twice) lie in int64. A hot path tests
    ``I64_MIN <= key <= I64_MAX`` inline and calls this only to raise."""
    if lo < I64_MIN or hi > I64_MAX:
        raise KeyRangeError(f"key {lo if lo < I64_MIN else hi} is outside int64")


class _BuiltinsOnly(pickle.Unpickler):
    """An unpickler that refuses every global: builtin values only."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"global {module}.{name} refused")


def encode_key_block(keys: Sequence[int]) -> bytes:
    """An int64 column as a self-describing delta block (any order round-trips;
    sorted columns shrink)."""
    anchor, width, packed = kernels.delta_pack(keys)
    last = keys[-1] if keys else 0
    return KEY_BLOCK_HEADER.pack(len(keys), anchor, last, width) + packed


def _block_fields(block: bytes) -> Tuple[int, int, int, bytes]:
    """``(anchor, width, count, packed)`` of a delta block, as the kernels take it."""
    count, anchor, _last, width = KEY_BLOCK_HEADER.unpack_from(block)
    return anchor, width, count, block[KEY_BLOCK_HEADER.size :]


def key_block_stats(block: bytes) -> Tuple[int, int, int, int]:
    """``(count, first, last, width)`` from the header, no delta decoded."""
    count, anchor, last, width = KEY_BLOCK_HEADER.unpack_from(block)
    return count, anchor, last, width


def encode_value(value: object) -> bytes:
    """One value's bytes: a pickle at the highest protocol."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(blob: bytes, *, trusted: bool = True) -> object:
    """Inverse of :func:`encode_value` (``trusted``: see the module docstring)."""
    try:
        if trusted:
            return pickle.loads(blob)
        stream = io.BytesIO(blob)
        value = _BuiltinsOnly(stream).load()
    except Exception as exc:  # noqa: BLE001 - any unpickling failure, typed here
        raise PageCorruptionError(f"value undecodable: {exc!r}") from exc
    if stream.tell() != len(blob):
        raise PageCorruptionError("value followed by trailing bytes")
    return value


def encode_record(key: int, value: object) -> bytes:
    """One record: ``key s64 + value``; a key outside int64 raises
    :class:`KeyRangeError`."""
    try:
        head = _KEY.pack(key)
    except struct.error:
        check_keys(key, key)
        raise
    return head + encode_value(value)


def decode_record(data: bytes, *, trusted: bool = True) -> Tuple[int, object]:
    if len(data) <= _KEY.size:
        raise PageCorruptionError(f"record of {len(data)} bytes has no value")
    return _KEY.unpack_from(data)[0], decode_value(data[_KEY.size :], trusted=trusted)


def _pack(kind: int, count: int, body: bytes, flags: int = 0) -> bytes:
    return _HEADER.pack(MAGIC, kind, flags, count, zlib.crc32(body)) + body


def _unpack(data: bytes, expected_kind: int) -> Tuple[int, int, bytes]:
    kind = page_kind(data)
    if kind != expected_kind:
        raise PageCorruptionError(f"expected kind {expected_kind}, found {kind}")
    _magic, _kind, flags, count, crc = _HEADER.unpack_from(data)
    body = data[_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise PageCorruptionError("checksum mismatch")
    return count, flags, body


def _column_bytes(body: bytes, count: int, compressed: bool) -> int:
    """Byte length of the ``count``-entry int64 column (a delta block whose header
    agrees with ``count``, or raw ``<q`` words) that starts ``body``."""
    if compressed:
        if len(body) < KEY_BLOCK_HEADER.size:
            raise PageCorruptionError("delta block truncated")
        blk_count, _first, _last, width = key_block_stats(body)
        if blk_count != count:
            raise PageCorruptionError(f"delta block of {blk_count} on a page of {count}")
        if width > 64:
            raise PageCorruptionError(f"delta width {width} exceeds 64 bits")
        used = KEY_BLOCK_HEADER.size + (max(count - 1, 0) * width + 7) // 8
    else:
        used = count * 8
    if len(body) < used:
        raise PageCorruptionError("column truncated")
    return used


def _encode_keys(keys: List[int], compress: bool) -> Tuple[bytes, int]:
    """Key column bytes + flags: compressed only when it actually shrinks.

    The decision is deterministic in the keys alone, so a checkpoint's bytes
    depend on nothing else.
    """
    raw_bytes = 8 * len(keys)
    if compress and len(keys) >= 2:
        block = encode_key_block(keys)
        if len(block) < raw_bytes:
            return block, FLAG_COMPRESSED_KEYS
    return (struct.pack(f"<{len(keys)}q", *keys) if keys else b""), 0


def _encode_values(values: List[object], compress: bool) -> Tuple[bytes, int]:
    """Value column bytes + flags: a delta block when that beats the pickle.

    ``bool`` is excluded (``type(v) is int``) — a delta block would decode
    ``True`` back as ``1``, silently changing the value's type.
    """
    blob = encode_value(values)
    if (
        compress
        and len(values) >= 2
        and all(type(v) is int and I64_MIN <= v <= I64_MAX for v in values)
    ):
        block = encode_key_block(values)
        if len(block) < len(blob):
            return block, FLAG_COMPRESSED_VALUES
    return blob, 0


def _unpickle_values(blob: bytes, count: int, trusted: bool) -> List[object]:
    """The values of a pickled value column."""
    values = decode_value(blob, trusted=trusted)
    if type(values) is not list or len(values) != count:
        raise PageCorruptionError(f"value column is not a list of {count} values")
    return values


def page_kind(data: bytes) -> int:
    """The kind byte of a serialized page (validates magic only)."""
    if len(data) < _HEADER.size:
        raise PageCorruptionError("page shorter than header")
    magic, kind, _flags, _count, _crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise PageCorruptionError(f"bad magic 0x{magic:04X}")
    return kind


def encode_leaf(keys: List[int], values: List[object], *, compress: bool = False) -> bytes:
    """Serialize a leaf page: key column + pickled value array.

    With ``compress`` the key column is delta-encoded when that is smaller
    than the raw packing (v2 pages, ``FLAG_COMPRESSED_KEYS``).
    """
    if len(keys) != len(values):
        raise ValueError("keys/values length mismatch")
    key_block, key_flags = _encode_keys(keys, compress)
    value_block, value_flags = _encode_values(values, compress)
    return _pack(KIND_LEAF, len(keys), key_block + value_block, key_flags | value_flags)


def decode_leaf(data: bytes, *, trusted: bool = True) -> Tuple[List[int], List[object]]:
    return _decode_leaves([leaf_columns(data, trusted=trusted)], trusted)[0]


def encode_records(items: Sequence[Tuple[int, object]]) -> bytes:
    """A batch of ``(key, value)`` records, in order: a v2 leaf page; a key
    outside int64 raises :class:`KeyRangeError`."""
    keys = [k for k, _v in items]
    try:
        return encode_leaf(keys, [v for _k, v in items], compress=True)
    except (OverflowError, struct.error):
        check_keys(min(keys), max(keys))
        raise


def decode_records(data: bytes, *, trusted: bool = True) -> List[Tuple[int, object]]:
    keys, values = decode_leaf(data, trusted=trusted)
    return list(zip(keys, values))


def encode_internal(keys: List[int], child_page_ids: List[int]) -> bytes:
    """Serialize an internal page: separators + child page ids."""
    if len(child_page_ids) != len(keys) + 1:
        raise ValueError("an internal page needs len(keys)+1 children")
    body = struct.pack(f"<{len(keys)}q", *keys) if keys else b""
    body += struct.pack(f"<{len(child_page_ids)}q", *child_page_ids)
    return _pack(KIND_INTERNAL, len(keys), body)


def decode_internal(data: bytes) -> Tuple[List[int], List[int]]:
    count, _flags, body = _unpack(data, KIND_INTERNAL)
    if len(body) != (2 * count + 1) * 8:
        raise PageCorruptionError("internal body size mismatch")
    words = list(struct.unpack(f"<{2 * count + 1}q", body))
    return words[:count], words[count:]


def leaf_columns(data: bytes, *, trusted: bool = True) -> Tuple[int, int, bytes, bytes]:
    """``(count, flags, key_column, value_column)`` of a leaf page.

    Both columns are returned **still encoded** (a delta block where the
    page's flags say so; raw ``<q`` words or a pickle otherwise): the page's
    layout. A delta block's header is validated against the page first.
    """
    count, flags, body = _unpack(data, KIND_LEAF)
    if not trusted and count > MAX_UNTRUSTED_RECORDS:
        raise PageCorruptionError(f"page claims {count} records, over the untrusted cap")
    used = _column_bytes(body, count, bool(flags & FLAG_COMPRESSED_KEYS))
    if flags & FLAG_COMPRESSED_VALUES:
        _column_bytes(body[used:], count, True)
    return count, flags, body[:used], body[used:]


def _decode_leaves(
    bodies: Sequence[Tuple[int, int, bytes, bytes]], trusted: bool
) -> List[Tuple[List[int], List[object]]]:
    """``(keys, values)`` of each :func:`leaf_columns`: every delta block among
    them, key and value columns alike, is decoded in one kernel call."""
    blocks: List[Tuple[int, int, int, bytes]] = []
    columns: List[Tuple[object, object]] = []  # an int: the column's index in blocks
    for count, flags, key_column, value_column in bodies:
        if flags & FLAG_COMPRESSED_KEYS:
            blocks.append(_block_fields(key_column))
            keys: object = len(blocks) - 1
        else:
            keys = list(struct.unpack(f"<{count}q", key_column))
        if flags & FLAG_COMPRESSED_VALUES:
            blocks.append(_block_fields(value_column))
            values: object = len(blocks) - 1
        else:
            values = _unpickle_values(value_column, count, trusted)
        columns.append((keys, values))
    # A raw page (both columns unpacked) has no block: skip the kernel call.
    decoded = kernels.delta_unpack_blocks(blocks) if blocks else []
    return [
        (
            decoded[keys] if type(keys) is int else keys,
            decoded[values] if type(values) is int else values,
        )
        for keys, values in columns
    ]


def serialize_btree(tree, *, compress: bool = False) -> dict:
    """Serialize a whole B+-tree into a page-id -> bytes dict + metadata.

    A companion to :func:`deserialize_btree`; the result is what a real
    engine would hand to its pager, and round-tripping through it is tested
    to preserve the logical contents exactly. ``compress`` delta-encodes
    leaf key columns (v2 pages) where that shrinks them.
    """
    pages: dict = {}
    if tree._root is None:
        return {"root": None, "pages": pages, "config": tree.config}

    def visit(node) -> int:
        if node.is_leaf:
            pages[node.page_id] = encode_leaf(node.keys, node.values, compress=compress)
        else:
            child_ids = [visit(child) for child in node.children]
            pages[node.page_id] = encode_internal(node.keys, child_ids)
        return node.page_id

    root_id = visit(tree._root)
    return {"root": root_id, "pages": pages, "config": tree.config}


def deserialize_btree(blob: dict):
    """Rebuild a :class:`~repro.btree.BPlusTree` from serialized pages.

    The page format is layout-agnostic (dense sorted key runs), so nodes
    are rebuilt from the same bytes whatever node layout wrote them.
    Checkpoints pickled before the layout knobs were removed may carry a
    config with stray ``node_layout`` / ``gap_high_water`` attributes (or,
    older still, neither); both load — ``BPlusTree`` reads only the fields
    it still has.
    """
    from repro.btree.btree import BPlusTree
    from repro.btree.node import GappedInternal, GappedLeaf

    tree = BPlusTree(blob["config"])
    if blob["root"] is None:
        return tree
    pages = blob["pages"]
    leaves: List[object] = []
    # Each page is validated as it loads; the leaves' columns are then
    # decoded together, in one kernel call.
    bodies: List[Tuple[int, int, bytes, bytes]] = []

    def load(page_id: int):
        data = pages[page_id]
        if page_kind(data) == KIND_LEAF:
            bodies.append(leaf_columns(data))
            leaf = GappedLeaf(page_id)
            leaves.append(leaf)
            tree.leaf_count += 1
            return leaf
        keys, children = decode_internal(data)
        node = GappedInternal(page_id)
        node.ks = keys
        node.n = len(keys)
        node.children = [load(child) for child in children]
        tree.internal_count += 1
        return node

    tree._root = load(blob["root"])
    for leaf, (keys, values) in zip(leaves, _decode_leaves(bodies, True)):
        leaf.adopt(keys, values)
    # Keep fresh page-id allocations clear of the loaded ids.
    tree._pages._next = max(pages) + 1 if pages else 0
    # Re-thread the leaf chain (left-to-right order of the traversal).
    for left, right in zip(leaves, leaves[1:]):
        left.next_leaf = right
    tree._head_leaf = leaves[0] if leaves else None
    tree._tail_leaf = leaves[-1] if leaves else None
    tree._recompute_tail_path()
    tree.n_entries = sum(len(leaf) for leaf in leaves)
    non_empty = [leaf for leaf in leaves if len(leaf)]
    if non_empty:
        tree.min_key = non_empty[0].first_key()
        tree.max_key = non_empty[-1].last_key()
    # Deleted keys leave their separators behind. The max watermark must
    # reach the right spine's last one, or a bulk load would append keys
    # below that separator to the tail leaf, where no descent finds them.
    spine = [node.ks[-1] for node in tree._tail_path if node.n]
    if spine and (tree.max_key is None or max(spine) > tree.max_key):
        tree.max_key = max(spine)
        if tree.min_key is None:
            tree.min_key = tree.max_key
    depth = 1
    node = tree._root
    while not node.is_leaf:
        depth += 1
        node = node.children[0]
    tree.height = depth
    return tree
