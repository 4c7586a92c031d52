"""Round-trip properties of the compressed key machinery.

The delta kernels, key blocks, and v2 page format all rest on one claim:
encode→decode is *exact* for any int64 column (sortedness affects only the
compression ratio), and the vectorized kernels produce the encoding of
the scalar reference below, byte for byte. These properties pin that claim — including INT64_MAX / INT64_MIN
and their neighbours — plus encode→decode→encode stability.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.btree.btree import BPlusTree
from repro.core.sware import SortednessAwareIndex
from repro.storage import CheckpointStore
from repro.storage.pages import (
    FLAG_COMPRESSED_KEYS,
    FLAG_COMPRESSED_VALUES,
    KEY_BLOCK_HEADER,
    decode_key_block,
    decode_leaf,
    encode_key_block,
    encode_leaf,
    key_block_stats,
    leaf_columns,
)
from repro.workloads import sosd
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


# ----------------------------------------------------------------------
# delta kernels
# ----------------------------------------------------------------------
class TestDeltaKernels:
    @given(keys=sorted_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_python(self, keys):
        """The reference's encoding decodes to the column."""
        anchor, width, packed = _ref_delta_pack(keys)
        assert kernels.delta_unpack(anchor, width, len(keys), packed) == keys

    @given(keys=any_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_any_order(self, keys):
        """Unsorted columns round-trip too — wrap-around deltas never corrupt."""
        anchor, width, packed = kernels.delta_pack(keys)
        assert kernels.delta_unpack(anchor, width, len(keys), packed) == keys

    @given(keys=any_keys_st)
    @settings(max_examples=80, deadline=None)
    def test_backends_bit_identical(self, keys):
        """The kernel packs exactly the reference's bytes."""
        assert kernels.delta_pack(keys) == _ref_delta_pack(keys)

    @given(keys=sorted_keys_st)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_encode_stable(self, keys):
        anchor, width, packed = kernels.delta_pack(keys)
        decoded = kernels.delta_unpack(anchor, width, len(keys), packed)
        assert kernels.delta_pack(decoded) == (anchor, width, packed)

    def test_width_zero_means_constant_column(self):
        anchor, width, packed = kernels.delta_pack([42, 42, 42])
        assert (width, packed) == (0, b"")
        assert kernels.delta_unpack(anchor, 0, 3, b"") == [42, 42, 42]

    def test_sentinel_column(self):
        keys = [INT64_MAX] * 5
        anchor, width, packed = kernels.delta_pack(keys)
        assert kernels.delta_unpack(anchor, width, 5, packed) == keys

    def test_full_span_pair(self):
        for keys in ([INT64_MIN, INT64_MAX], [INT64_MAX, INT64_MIN]):
            anchor, width, packed = kernels.delta_pack(keys)
            assert kernels.delta_unpack(anchor, width, 2, packed) == keys


# ----------------------------------------------------------------------
# key blocks
# ----------------------------------------------------------------------
class TestKeyBlocks:
    @given(keys=sorted_keys_st)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_stats(self, keys):
        block = encode_key_block(keys)
        assert decode_key_block(block) == keys
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
        assert decode_key_block(key_column) == keys
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
        _count, flags, _kc, vals = leaf_columns(page)
        assert flags & FLAG_COMPRESSED_VALUES
        assert vals == values
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
        _count, flags, _kc, vals = leaf_columns(page)
        assert not flags & FLAG_COMPRESSED_VALUES
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
        every SOSD-like family, and at least 2x smaller on books. 256-byte
        slots keep the saving visible at file granularity."""
        families = {
            "books": sosd.books_like_keys,
            "fb": sosd.fb_like_keys,
            "wiki": sosd.wiki_timestamp_keys,
            "tpch": sosd.tpch_receiptdate_stream,
        }
        ratios = {}
        for family, generator in families.items():
            index = SortednessAwareIndex(BPlusTree())
            for key in generator(4_000, seed=7):
                index.insert(key, value_for(key))
            index.flush_all()
            sizes = []
            for compress in (False, True):
                path = tmp_path / f"{family}-{int(compress)}.db"
                CheckpointStore(str(path), 256, compress=compress).save_btree(index.backend)
                sizes.append(path.stat().st_size)
            ratios[family] = sizes[0] / sizes[1]
        assert ratios["books"] >= 2.0, ratios
        assert all(ratio > 1.0 for ratio in ratios.values()), ratios

