"""Binary page serialization for tree nodes and LSM runs.

The simulated bufferpool never actually moves bytes, but a production index
needs a page format; this module provides one so the structures in this
library are genuinely storable: fixed little-endian headers, varint-free
8-byte keys (matching the paper's 4-byte-key/8-byte-entry layout scaled to
64-bit keys), a payload section for pickled values, and a CRC32 checksum
that detects torn or corrupted pages on load.

Layout (all little-endian)::

    magic   u16   0x5A7E ("SWARE"-ish)
    kind    u8    1=leaf, 2=internal, 3=run
    flags   u8    bit 0 = delta-compressed key column (format v2)
                  bit 1 = delta-compressed all-int64 value column
    count   u32   number of entries / separators
    crc     u32   CRC32 of everything after the header
    body    ...   kind-specific

Flags=0 is the original (v1) format; every v1 page written by older
checkpoints decodes unchanged. When ``FLAG_COMPRESSED_KEYS`` is set the
key column is a self-describing delta block (see
:mod:`repro.storage.compress`) instead of ``count`` raw ``<q`` words —
chosen per page, and only when it is actually smaller. The same block
format doubles for the value column (``FLAG_COMPRESSED_VALUES``) when
every value on the page is a plain int64: wrapped deltas round-trip any
int64 sequence exactly, sorted or not, so the value column needs no
sortedness — only the guarantee that it shrank versus the pickle.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import List, Tuple

from repro.errors import ReproError
from repro.storage.compress import (
    KEY_BLOCK_HEADER,
    decode_key_block,
    encode_key_block,
    key_block_stats,
)

MAGIC = 0x5A7E
KIND_LEAF = 1
KIND_INTERNAL = 2
KIND_RUN = 3

#: flags bit 0: key column is a delta-compressed block, not raw ``<q`` words.
FLAG_COMPRESSED_KEYS = 0x01
#: flags bit 1: value column is a delta-compressed block, not a pickle —
#: only ever set when every value on the page is a plain (non-bool) int64.
FLAG_COMPRESSED_VALUES = 0x02

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_HEADER = struct.Struct("<HBBII")


class PageCorruptionError(ReproError):
    """A page failed its checksum or structural validation on load."""


def _pack(kind: int, count: int, body: bytes, flags: int = 0) -> bytes:
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, kind, flags, count, crc) + body


def _unpack(data: bytes, expected_kind: int) -> Tuple[int, int, bytes]:
    if len(data) < _HEADER.size:
        raise PageCorruptionError("page shorter than header")
    magic, kind, flags, count, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise PageCorruptionError(f"bad magic 0x{magic:04X}")
    if kind != expected_kind:
        raise PageCorruptionError(f"expected kind {expected_kind}, found {kind}")
    body = data[_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise PageCorruptionError("checksum mismatch")
    return count, flags, body


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


def _decode_keys(body: bytes, count: int, flags: int) -> Tuple[List[int], int]:
    """Decode the key column; returns ``(keys, bytes_consumed)``."""
    if flags & FLAG_COMPRESSED_KEYS:
        if len(body) < KEY_BLOCK_HEADER.size:
            raise PageCorruptionError("compressed key block truncated")
        blk_count, _first, _last, width = key_block_stats(body)
        if blk_count != count:
            raise PageCorruptionError("compressed key count mismatch")
        n_deltas = max(count - 1, 0)
        used = KEY_BLOCK_HEADER.size + (n_deltas * width + 7) // 8
        if len(body) < used:
            raise PageCorruptionError("compressed key block truncated")
        return decode_key_block(body[:used]), used
    key_bytes = count * 8
    if len(body) < key_bytes:
        raise PageCorruptionError("key column truncated")
    keys = list(struct.unpack(f"<{count}q", body[:key_bytes])) if count else []
    return keys, key_bytes


def _encode_values(values: List[object], compress: bool) -> Tuple[bytes, int]:
    """Value column bytes + flags: a delta block when that beats the pickle.

    ``bool`` is excluded (``type(v) is int``) — a delta block would decode
    ``True`` back as ``1``, silently changing the value's type.
    """
    blob = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
    if (
        compress
        and len(values) >= 2
        and all(type(v) is int and _I64_MIN <= v <= _I64_MAX for v in values)
    ):
        block = encode_key_block(values)
        if len(block) < len(blob):
            return block, FLAG_COMPRESSED_VALUES
    return blob, 0


def _decode_values(blob: bytes, count: int, flags: int, what: str) -> List[object]:
    if flags & FLAG_COMPRESSED_VALUES:
        if len(blob) < KEY_BLOCK_HEADER.size:
            raise PageCorruptionError(f"compressed {what} value block truncated")
        values: List[object] = decode_key_block(blob)
    else:
        values = pickle.loads(blob)
    if len(values) != count:
        raise PageCorruptionError(f"{what} value count mismatch")
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


def decode_leaf(data: bytes) -> Tuple[List[int], List[object]]:
    count, flags, body = _unpack(data, KIND_LEAF)
    keys, used = _decode_keys(body, count, flags)
    values = _decode_values(body[used:], count, flags, "leaf")
    return keys, values


def encode_internal(keys: List[int], child_page_ids: List[int]) -> bytes:
    """Serialize an internal page: separators + child page ids."""
    if len(child_page_ids) != len(keys) + 1:
        raise ValueError("an internal page needs len(keys)+1 children")
    body = struct.pack(f"<{len(keys)}q", *keys) if keys else b""
    body += struct.pack(f"<{len(child_page_ids)}q", *child_page_ids)
    return _pack(KIND_INTERNAL, len(keys), body)


def decode_internal(data: bytes) -> Tuple[List[int], List[int]]:
    count, _flags, body = _unpack(data, KIND_INTERNAL)
    need = count * 8 + (count + 1) * 8
    if len(body) != need:
        raise PageCorruptionError("internal body size mismatch")
    keys = list(struct.unpack(f"<{count}q", body[: count * 8])) if count else []
    children = list(struct.unpack(f"<{count + 1}q", body[count * 8 :]))
    return keys, children


def encode_run(
    entries: List[Tuple[int, int, object, bool]], *, compress: bool = False
) -> bytes:
    """Serialize an LSM run: (key, seq, tombstone) columns + values.

    With ``compress`` the sorted key column is delta-encoded (seqs stay
    raw — they are not sorted, so deltas would not shrink them).
    """
    ekeys = [e[0] for e in entries]
    key_block, key_flags = _encode_keys(ekeys, compress)
    seqs = struct.pack(f"<{len(entries)}q", *(e[1] for e in entries)) if entries else b""
    tombs = bytes(1 if e[3] else 0 for e in entries)
    values, value_flags = _encode_values([e[2] for e in entries], compress)
    return _pack(
        KIND_RUN, len(entries), key_block + seqs + tombs + values,
        key_flags | value_flags,
    )


def decode_run(data: bytes) -> List[Tuple[int, int, object, bool]]:
    count, flags, body = _unpack(data, KIND_RUN)
    keys, used = _decode_keys(body, count, flags)
    fixed = used + count * 8 + count
    if len(body) < fixed:
        raise PageCorruptionError("run body truncated")
    seqs = struct.unpack(f"<{count}q", body[used : used + count * 8]) if count else ()
    tombs = body[used + count * 8 : used + count * 8 + count]
    values = _decode_values(body[fixed:], count, flags, "run")
    return [
        (keys[i], seqs[i], values[i], bool(tombs[i])) for i in range(count)
    ]


def leaf_columns(data: bytes) -> Tuple[int, int, bytes, List[object]]:
    """``(count, flags, key_column, values)`` of a leaf page.

    Unlike :func:`decode_leaf` the key column is returned **still encoded**
    (a delta block for v2 pages, raw ``<q`` words for v1) — this is the
    entry point for the rebuild pipeline, which merges runs without
    decoding keys that never reach a merge frontier.
    """
    count, flags, body = _unpack(data, KIND_LEAF)
    if flags & FLAG_COMPRESSED_KEYS:
        if len(body) < KEY_BLOCK_HEADER.size:
            raise PageCorruptionError("compressed key block truncated")
        blk_count, _first, _last, width = key_block_stats(body)
        if blk_count != count:
            raise PageCorruptionError("compressed key count mismatch")
        used = KEY_BLOCK_HEADER.size + (max(count - 1, 0) * width + 7) // 8
    else:
        used = count * 8
    if len(body) < used:
        raise PageCorruptionError("key column truncated")
    values = _decode_values(body[used:], count, flags, "leaf")
    return count, flags, body[:used], values


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
    Checkpoints pickled before the layout knobs were
    removed may carry a config with stray ``node_layout`` /
    ``gap_high_water`` attributes (or, older still, neither); both load —
    ``BPlusTree`` reads only the fields it still has.
    """
    from repro.btree.btree import BPlusTree
    from repro.btree.node import GappedInternal, GappedLeaf

    tree = BPlusTree(blob["config"])
    if blob["root"] is None:
        return tree
    pages = blob["pages"]
    leaves: List[object] = []

    def load(page_id: int):
        data = pages[page_id]
        if page_kind(data) == KIND_LEAF:
            keys, values = decode_leaf(data)
            leaf = GappedLeaf(page_id)
            leaf.adopt(keys, values)
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
        tree._min_key = non_empty[0].first_key()
        tree._max_key = non_empty[-1].last_key()
    depth = 1
    node = tree._root
    while not node.is_leaf:
        depth += 1
        node = node.children[0]
    tree.height = depth
    return tree
