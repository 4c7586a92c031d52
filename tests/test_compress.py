"""Round-trip properties of the compressed key machinery.

The delta kernels, key blocks, and v2 page format all rest on one claim:
encode→decode is *exact* for any int64 column (sortedness affects only the
compression ratio), and the vectorized kernels produce the encoding of
the scalar reference below, byte for byte. These properties pin that claim — including INT64_MAX / INT64_MIN
and their neighbours — plus encode→decode→encode stability.
"""

import struct
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import kernels
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.sware import SortednessAwareIndex
from repro.sortedness.generator import generate_kl_keys, scrambled_keys
from repro.storage import CheckpointStore
from repro.storage.pages import (
    FLAG_COMPRESSED_KEYS,
    FLAG_COMPRESSED_VALUES,
    KEY_BLOCK_HEADER,
    KIND_LEAF,
    PageCorruptionError,
    decode_leaf,
    encode_key_block,
    encode_leaf,
    deserialize_btree,
    key_block_stats,
    leaf_columns,
    page_kind,
    serialize_btree,
)
from repro.workloads.spec import value_for

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

i64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
#: int64 edges, their neighbours and a zero span.
i64_edges = st.sampled_from([0, 1, -1, INT64_MAX, INT64_MIN, INT64_MAX - 1])
any_keys_st = st.lists(i64 | i64_edges, max_size=120)
sorted_keys_st = any_keys_st.map(sorted)


MASK64 = 2**64 - 1


def _ref_delta_pack(keys):
    """The delta encoding, one key at a time: successive differences mod
    2**64, bit-packed LSB-first at the widest delta's bit length."""
    if not keys:
        return 0, 0, b""
    deltas = [(key - prev) & MASK64 for prev, key in zip(keys, keys[1:])]
    width = max((delta.bit_length() for delta in deltas), default=0)
    if width == 0:
        return keys[0], 0, b""
    packed = sum(delta << (i * width) for i, delta in enumerate(deltas))
    return keys[0], width, packed.to_bytes((len(deltas) * width + 7) // 8, "little")


def _unpack(anchor, width, count, packed):
    """One block through the batched decoder."""
    return kernels.delta_unpack_blocks([(anchor, width, count, packed)])[0]


def _decode_block(block):
    """The column of an :func:`encode_key_block` block."""
    count, anchor, _last, width = KEY_BLOCK_HEADER.unpack_from(block)
    return _unpack(anchor, width, count, block[KEY_BLOCK_HEADER.size :])


# ----------------------------------------------------------------------
# delta kernels
# ----------------------------------------------------------------------
class TestDeltaKernels:
    @given(keys=sorted_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_python(self, keys):
        """The reference's encoding decodes to the column."""
        anchor, width, packed = _ref_delta_pack(keys)
        assert _unpack(anchor, width, len(keys), packed) == keys

    @given(keys=any_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_any_order(self, keys):
        """Unsorted columns round-trip too — wrap-around deltas never corrupt."""
        anchor, width, packed = kernels.delta_pack(keys)
        assert _unpack(anchor, width, len(keys), packed) == keys

    @given(keys=any_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_backends_bit_identical(self, keys):
        """The kernel packs exactly the reference's bytes."""
        assert kernels.delta_pack(keys) == _ref_delta_pack(keys)

    @given(keys=sorted_keys_st)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_encode_stable(self, keys):
        anchor, width, packed = kernels.delta_pack(keys)
        decoded = _unpack(anchor, width, len(keys), packed)
        assert kernels.delta_pack(decoded) == (anchor, width, packed)

    def test_width_zero_means_constant_column(self):
        anchor, width, packed = kernels.delta_pack([42, 42, 42])
        assert (width, packed) == (0, b"")
        assert _unpack(anchor, 0, 3, b"") == [42, 42, 42]

    def test_sentinel_column(self):
        keys = [INT64_MAX] * 5
        anchor, width, packed = kernels.delta_pack(keys)
        assert _unpack(anchor, width, 5, packed) == keys

    def test_full_span_pair(self):
        for keys in ([INT64_MIN, INT64_MAX], [INT64_MAX, INT64_MIN]):
            anchor, width, packed = kernels.delta_pack(keys)
            assert _unpack(anchor, width, 2, packed) == keys


# ----------------------------------------------------------------------
# the batched decode: many blocks, one kernel call
# ----------------------------------------------------------------------
#: Columns whose blocks cover the cases a batch must keep apart: width 0
#: (a constant column), width 64 (a wrap-around across the int64 span),
#: one key, negative anchors, descending (wrapping) deltas, no keys.
EDGE_COLUMNS = [
    [7, 7, 7],
    [INT64_MIN, INT64_MAX, INT64_MIN],
    [-5],
    [-(2**40), -(2**40) + 3, -(2**40) + 900],
    [10, 3, -4, INT64_MAX],
    [],
    [INT64_MAX - 1, INT64_MAX],
]
column_st = st.one_of(
    any_keys_st,
    sorted_keys_st,
    st.builds(lambda key, n: [key] * n, i64 | i64_edges, st.integers(1, 9)),
    st.lists(i64 | i64_edges, min_size=1, max_size=1),
)


class TestBatchedDecode:
    @given(columns=st.lists(column_st, max_size=8))
    @example(columns=EDGE_COLUMNS)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_block_decode(self, columns):
        """One call over blocks of mixed widths and counts decodes each block
        as a call on that block alone does."""
        blocks = [
            (anchor, width, len(keys), payload)
            for keys, (anchor, width, payload) in zip(columns, map(kernels.delta_pack, columns))
        ]
        assert kernels.delta_unpack_blocks(blocks) == columns
        assert [_unpack(*block) for block in blocks] == columns

    def test_edge_batch_spans_widths_0_and_64(self):
        widths = {kernels.delta_pack(keys)[1] for keys in EDGE_COLUMNS}
        assert {0, 64} <= widths and len(widths) > 3

    @pytest.mark.parametrize("width", range(54, 65))
    def test_widest_deltas_at_every_bit_offset(self, width):
        """Deltas of ``width`` one-bits, starting at each bit of a byte in
        turn, behind a block of another width: those reaching past 64 bits
        from their first byte are topped up from the ninth."""
        step = (1 << width) - 1
        wide = [(i * step + (1 << 63)) % (1 << 64) - (1 << 63) for i in range(17)]
        columns = [[5, 6, 8], wide]
        blocks = [(anchor, w, len(keys), packed) for keys, (anchor, w, packed) in
                  zip(columns, map(kernels.delta_pack, columns))]
        assert blocks[1][1] == width
        assert kernels.delta_unpack_blocks(blocks) == columns

    def test_rejects_short_payload_and_wide_width(self):
        anchor, width, packed = kernels.delta_pack(list(range(0, 600, 7)))
        with pytest.raises(ValueError):
            kernels.delta_unpack_blocks([(0, 0, 1, b""), (anchor, width, 86, packed[:-1])])
        with pytest.raises(ValueError):
            _unpack(anchor, 65, 2, bytes(9))


def _compressed_leaves(blob):
    """Page ids of the leaves whose key column is a delta block, in order."""
    return sorted(
        pid for pid, data in blob["pages"].items()
        if page_kind(data) == KIND_LEAF and leaf_columns(data)[1] & FLAG_COMPRESSED_KEYS
    )


PAGE_HEADER = struct.Struct("<HBBII")  # magic, kind, flags, count, crc


def _reseal(page, body):
    """``page``'s header over a new body, with the body's CRC (so only the
    structural checks can refuse it)."""
    magic, kind, flags, count, _crc = PAGE_HEADER.unpack_from(page)
    return PAGE_HEADER.pack(magic, kind, flags, count, zlib.crc32(body)) + body


def _with_block_header(page, **fields):
    """``page`` with its key block's header fields replaced, resealed."""
    body = page[PAGE_HEADER.size :]
    header = dict(zip(("count", "anchor", "last", "width"), KEY_BLOCK_HEADER.unpack_from(body)))
    header.update(fields)
    return _reseal(page, KEY_BLOCK_HEADER.pack(*header.values()) + body[KEY_BLOCK_HEADER.size :])


CORRUPTIONS = {
    "bad-crc": lambda page: page[:-1] + bytes([page[-1] ^ 0xFF]),
    "truncated-block": lambda page: _reseal(
        page, page[PAGE_HEADER.size : PAGE_HEADER.size + KEY_BLOCK_HEADER.size + 2]
    ),
    "width-over-64": lambda page: _with_block_header(page, width=65),
    "count-mismatch": lambda page: _with_block_header(
        page, count=KEY_BLOCK_HEADER.unpack_from(page, PAGE_HEADER.size)[0] - 1
    ),
}


def _value_block(page, **fields):
    """``page`` with the header fields of its value column's delta block
    replaced (and its payload cut to one byte when ``truncate``), resealed."""
    body = page[PAGE_HEADER.size :]
    count, _anchor, _last, width = KEY_BLOCK_HEADER.unpack_from(body)
    start = KEY_BLOCK_HEADER.size + ((count - 1) * width + 7) // 8
    fields_now = KEY_BLOCK_HEADER.unpack_from(body, start)
    header = dict(zip(("count", "anchor", "last", "width"), fields_now))
    truncate = fields.pop("truncate", False)
    header.update(fields)
    payload = body[start + KEY_BLOCK_HEADER.size :][: 1 if truncate else None]
    return _reseal(page, body[:start] + KEY_BLOCK_HEADER.pack(*header.values()) + payload)


VALUE_CORRUPTIONS = {
    "truncated-block": lambda page: _value_block(page, truncate=True),
    "width-over-64": lambda page: _value_block(page, width=65),
    "count-mismatch": lambda page: _value_block(
        page, count=KEY_BLOCK_HEADER.unpack_from(page, PAGE_HEADER.size)[0] - 1
    ),
}


def _checkpointed_tree(value=lambda key: f"v{key}"):
    """A tree whose leaves' key gaps grow from 1 to 2**40, starting at a
    negative key, plus one leaf too wide to compress: v2 blocks of many
    widths beside a v1 page, all in one checkpoint."""
    tree = BPlusTree(BPlusTreeConfig(leaf_capacity=16, internal_capacity=8))
    keys, key = [], -(2**61)
    for region in range(9):
        for _ in range(40):
            key += 1 + (1 << (5 * region))
            keys.append(key)
    tree.bulk_load_append([(k, value(k)) for k in keys])
    tree.insert(2**62, "wide")  # the tail leaf's deltas no longer shrink
    return tree, serialize_btree(tree, compress=True)


class TestBatchedCheckpointDecode:
    def test_mixed_widths_and_formats_restore(self):
        tree, blob = _checkpointed_tree()
        compressed = _compressed_leaves(blob)
        widths = {
            KEY_BLOCK_HEADER.unpack_from(blob["pages"][pid], PAGE_HEADER.size)[3]
            for pid in compressed
        }
        assert len(widths) > 5
        assert 0 < len(compressed) < tree.leaf_count  # and one v1 leaf
        restored = deserialize_btree(blob)
        restored.check_invariants()
        assert list(restored.iter_items()) == list(tree.iter_items())

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_corrupt_leaf_inside_the_batch_is_refused(self, corruption, where):
        _tree, blob = _checkpointed_tree()
        compressed = _compressed_leaves(blob)
        victim = compressed[{"first": 0, "middle": len(compressed) // 2, "last": -1}[where]]
        blob["pages"][victim] = CORRUPTIONS[corruption](blob["pages"][victim])
        with pytest.raises(PageCorruptionError):
            deserialize_btree(blob)

    def test_int_value_columns_restore(self):
        tree, blob = _checkpointed_tree(value=lambda key: key * 2 + 1)
        flags = [leaf_columns(blob["pages"][pid])[1] for pid in _compressed_leaves(blob)]
        assert all(flag & FLAG_COMPRESSED_VALUES for flag in flags)
        restored = deserialize_btree(blob)
        restored.check_invariants()
        assert list(restored.iter_items()) == list(tree.iter_items())

    @pytest.mark.parametrize("corruption", sorted(VALUE_CORRUPTIONS))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_corrupt_value_block_inside_the_batch_is_refused(self, corruption, where):
        _tree, blob = _checkpointed_tree(value=lambda key: key * 2 + 1)
        compressed = _compressed_leaves(blob)
        victim = compressed[{"first": 0, "middle": len(compressed) // 2, "last": -1}[where]]
        blob["pages"][victim] = VALUE_CORRUPTIONS[corruption](blob["pages"][victim])
        with pytest.raises(PageCorruptionError):
            deserialize_btree(blob)


# ----------------------------------------------------------------------
# key blocks
# ----------------------------------------------------------------------
class TestKeyBlocks:
    @given(keys=sorted_keys_st)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_stats(self, keys):
        block = encode_key_block(keys)
        assert _decode_block(block) == keys
        count, first, last, _width = key_block_stats(block)
        assert count == len(keys)
        if keys:
            assert (first, last) == (keys[0], keys[-1])

    def test_small_deltas_compress(self):
        keys = list(range(1_000_000, 1_000_000 + 512))
        block = encode_key_block(keys)
        assert len(block) < 8 * len(keys) / 4  # width 1: far below raw

    @given(keys=sorted_keys_st)
    @settings(max_examples=40, deadline=None)
    def test_blocks_backend_identical(self, keys):
        anchor, width, packed = _ref_delta_pack(keys)
        last = keys[-1] if keys else 0
        assert encode_key_block(keys) == (
            KEY_BLOCK_HEADER.pack(len(keys), anchor, last, width) + packed
        )

    def test_header_size_matches_struct(self):
        block = encode_key_block([1])
        assert len(block) == KEY_BLOCK_HEADER.size


# ----------------------------------------------------------------------
# v2 page format
# ----------------------------------------------------------------------
class TestCompressedPages:
    @given(keys=st.lists(i64 | i64_edges, max_size=100, unique=True).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_leaf_roundtrip_both_formats(self, keys):
        values = [key * 2 + 1 for key in keys]
        v1 = encode_leaf(keys, values, compress=False)
        v2 = encode_leaf(keys, values, compress=True)
        assert decode_leaf(v1) == (keys, values)
        assert decode_leaf(v2) == (keys, values)

    def test_compression_only_when_smaller(self):
        # Dense near-sorted keys: the compressed block must win and the
        # flag must say so.
        keys = list(range(0, 256, 2))
        values = [0] * len(keys)
        v2 = encode_leaf(keys, values, compress=True)
        count, flags, key_column, _values = leaf_columns(v2)
        assert flags & FLAG_COMPRESSED_KEYS
        assert count == len(keys)
        assert _decode_block(key_column) == keys
        assert len(key_column) < 8 * len(keys)
        # A 1-key page can never shrink: stays raw even with compress=True.
        v_small = encode_leaf([7], [0], compress=True)
        _count, flags_small, _kc, _v = leaf_columns(v_small)
        assert not flags_small & FLAG_COMPRESSED_KEYS

    def test_old_pages_decode_unchanged(self):
        """flags=0 pages (pre-v2 checkpoints) are byte-compatible."""
        keys = [1, 5, 9]
        values = ["a", "b", "c"]
        legacy = encode_leaf(keys, values)  # default: no compression
        assert decode_leaf(legacy) == (keys, values)
        _count, flags, _kc, _v = leaf_columns(legacy)
        assert flags == 0

    @given(values=st.lists(i64 | i64_edges, min_size=2, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_int_value_column_roundtrip(self, values):
        """All-int64 value columns may delta-pack (any order); round-trip
        is exact either way."""
        keys = list(range(len(values)))
        page = encode_leaf(keys, values, compress=True)
        assert decode_leaf(page) == (keys, values)

    def test_int_values_compress_when_smaller(self):
        keys = list(range(200))
        values = [k * 2 + 1 for k in keys]
        page = encode_leaf(keys, values, compress=True)
        _count, flags, _kc, _vc = leaf_columns(page)
        assert flags & FLAG_COMPRESSED_VALUES
        assert decode_leaf(page)[1] == values
        raw = encode_leaf(keys, values, compress=False)
        assert len(page) < len(raw) / 4

    @pytest.mark.parametrize(
        "values",
        [
            [True, False] * 50,  # bool is not int: type must survive
            ["a"] * 100,
            [None] * 100,
            [0] * 99 + [2**63],  # one value out of int64 range
            [1.5] * 100,
        ],
    )
    def test_non_i64_values_stay_pickled(self, values):
        keys = list(range(len(values)))
        page = encode_leaf(keys, values, compress=True)
        _count, flags, _kc, _vc = leaf_columns(page)
        assert not flags & FLAG_COMPRESSED_VALUES
        vals = decode_leaf(page)[1]
        assert vals == values
        assert all(type(a) is type(b) for a, b in zip(vals, values))

    def test_page_bytes_backend_identical(self):
        """A compressed page's key column is the reference's block."""
        keys = list(range(10_000, 10_000 + 300, 3))
        values = [0] * len(keys)
        _count, flags, key_column, _values = leaf_columns(encode_leaf(keys, values, compress=True))
        assert flags & FLAG_COMPRESSED_KEYS
        anchor, width, packed = _ref_delta_pack(keys)
        assert key_column == KEY_BLOCK_HEADER.pack(len(keys), anchor, keys[-1], width) + packed

    def test_checkpoint_compression_floor(self, tmp_path):
        """A v2 checkpoint of a flushed SA B+-tree is smaller than v1 on
        every generated family, and at least 2x smaller on the paper's
        near-sorted stream. The families vary the key gap as well as the
        arrival order: at gap 1 every order flushes to the same tree, so
        the checkpoints are the same bytes. 256-byte slots keep the saving
        visible at file granularity."""
        n = 4_000
        families = {
            "near_sorted": generate_kl_keys(n, 0.10, 0.05, seed=7),
            "near_sorted_gap97": generate_kl_keys(n, 0.10, 0.05, seed=7, gap=97),
            "scrambled_gap1000": scrambled_keys(n, seed=7, gap=1000),
        }
        ratios = {}
        for family, keys in families.items():
            index = SortednessAwareIndex(BPlusTree())
            for key in keys:
                index.insert(key, value_for(key))
            index.flush_all()
            sizes = []
            for compress in (False, True):
                path = tmp_path / f"{family}-{int(compress)}.db"
                CheckpointStore(str(path), 256, compress=compress).save_btree(index.backend)
                sizes.append(path.stat().st_size)
            ratios[family] = sizes[0] / sizes[1]
        assert ratios["near_sorted"] >= 2.0, ratios
        assert all(ratio > 1.0 for ratio in ratios.values()), ratios
