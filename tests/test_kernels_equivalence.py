"""The kernels against scalar references.

Each kernel in :mod:`repro.kernels` is a constant-factor optimization: it
must return *identical* values to the one-key-at-a-time definition — the
same hash words, the same Bloom bit patterns (byte for byte, including
under rotation), the same stable sort orders (so duplicate/tombstone
resolution is unchanged), the same metric values. The references are the
scalar code in :mod:`repro.filters` (hashing, ``BloomFilter.add``) or small
functions in this file. Keys are int64, the extremes included; the kernels
the B+-tree also hands a list take it on a Python path that is checked
against the same references. The accounting-parity test pins
that ``add_many`` bills ``n_added`` exactly like a sequential loop, and the
last tests pin the backend surface that remains.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.errors import ConfigError
from repro.filters import hashing
from repro.filters.bloom import BloomFilter
from tests.key_domains import key_domains

# int64-range keys (the vectorizable common case) plus explicit boundaries.
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
i64_edges = st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 2**31, -(2**31)])
keys_st = st.lists(i64 | i64_edges, max_size=80)
small_keys_st = st.lists(st.integers(min_value=0, max_value=300), max_size=80)


def _unboxed(column):
    return [int(v) for v in column]


# ----------------------------------------------------------------------
# scalar references
# ----------------------------------------------------------------------
def _ref_inversions(keys):
    return sum(a > b for i, a in enumerate(keys) for b in keys[i + 1 :])


def _ref_max_displacement(keys):
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    return max((abs(pos - i) for pos, i in enumerate(order)), default=0)


def _ref_lnds(keys):
    best = []  # best[i]: longest non-decreasing subsequence ending at i
    for i, key in enumerate(keys):
        best.append(1 + max((best[j] for j in range(i) if keys[j] <= key), default=0))
    return max(best, default=0)


METRICS = [
    pytest.param(metric, reference, id=metric.__name__)
    for metric, reference in [
        (kernels.count_inversions, _ref_inversions),
        (kernels.max_displacement, _ref_max_displacement),
        (kernels.count_out_of_order, lambda keys: len(keys) - _ref_lnds(keys)),
        (kernels.longest_nondecreasing_subsequence_length, _ref_lnds),
    ]
]


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
@given(keys=keys_st)
@settings(max_examples=60, deadline=None)
def test_splitmix64_many_matches(keys):
    assert _unboxed(kernels.shared_bases(keys)) == hashing.shared_bases(keys)


@given(keys=keys_st.filter(bool))
@settings(max_examples=40, deadline=None)
def test_shared_bases_matches(keys):
    bases = kernels.shared_bases(keys)
    assert isinstance(bases, np.ndarray)
    assert _unboxed(bases) == [hashing.shared_base(key) for key in keys]


# ----------------------------------------------------------------------
# Bloom filter: bit patterns, membership, accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rotation", [0, 17])
@given(keys=keys_st, probes=st.lists(i64 | i64_edges, max_size=40))
@settings(max_examples=25, deadline=None)
def test_bloom_bits_and_membership_identical(rotation, keys, probes):
    """Batch adds set the bits of the sequential single-key path, so every
    membership probe answers as it does on the sequential filter."""
    batch = BloomFilter(256, rotation=rotation)
    batch.add_many(keys)
    sequential = BloomFilter(256, rotation=rotation)
    for key in keys:
        sequential.add(key)
    assert bytes(batch._bits) == bytes(sequential._bits)
    assert [batch.may_contain(p) for p in probes] == [sequential.may_contain(p) for p in probes]
    assert all(key in batch for key in keys)


@key_domains
@pytest.mark.parametrize("rotation", [0, 17])
@pytest.mark.parametrize("capacity", [1, 64, 4096])  # 8-bit, page-sized, buffer-sized
@pytest.mark.parametrize("batch", [1, 7, 8, 64, 4096])
def test_bloom_add_many_batch_sizes_and_duplicate_positions(domain, batch, capacity, rotation):
    """Every batch size sets the byte path's exact bits, including when probe
    positions repeat: within a key (an 8-bit filter folds seven probes onto
    at most eight bits), across keys (a batch far over capacity) and through
    duplicate keys — with keys past 2**53 in the batch too."""
    keys = [domain.shift + (i * 2654435761) % 1009 for i in range(batch)]  # repeats from 1009 on
    filt = BloomFilter(capacity, rotation=rotation)
    filt.add_many(keys[: batch // 2])
    filt.add_many(keys[batch // 2 :])  # ORs into bits already set
    sequential = BloomFilter(capacity, rotation=rotation)
    for key in keys:
        sequential.add(key)
    scalar = BloomFilter(capacity, rotation=rotation)
    scalar.add_bases(hashing.shared_bases(keys))
    assert bytes(filt._bits) == bytes(sequential._bits) == bytes(scalar._bits)
    assert filt.n_added == sequential.n_added == scalar.n_added == batch


@key_domains
def test_batch_accounting_matches_sequential(domain):
    """`add_many` bills n_added exactly like the sequential loop, and the
    filter it builds answers and bills probes like the sequential one
    (regression: accounting parity)."""
    keys = [domain.shift + key for key in range(0, 600, 3)]
    probes = [domain.shift + key for key in range(0, 900, 2)]
    batch, seq = BloomFilter(512), BloomFilter(512)
    batch.add_many(keys)
    answers = [batch.may_contain(p) for p in probes]
    for key in keys:
        seq.add(key)
    assert answers == [seq.may_contain(p) for p in probes]
    assert batch.n_added == seq.n_added == len(keys)
    assert batch.probe_count == seq.probe_count == len(probes)


@given(data=st.binary(max_size=512))
@settings(max_examples=60, deadline=None)
def test_popcount_bytes_matches(data):
    assert kernels.popcount_bytes(data) == sum(bin(b).count("1") for b in data)


@key_domains
def test_saturation_counts_set_bits(domain):
    bf = BloomFilter(128)
    bf.add_many([domain.shift + key for key in range(50)])
    expected = sum(bin(b).count("1") for b in bf._bits) / bf.n_bits
    assert bf.saturation == pytest.approx(expected)


# ----------------------------------------------------------------------
# buffer kernels: split detection, stable sort, merge, dedup
# ----------------------------------------------------------------------
dup_keys_st = st.lists(st.integers(min_value=0, max_value=40), max_size=60)  # forces dups


@given(keys=keys_st, last=st.none() | i64)
@settings(max_examples=60, deadline=None)
def test_nondecreasing_prefix_len_matches(keys, last):
    split = kernels.nondecreasing_prefix_len(keys, last)
    run = ([] if last is None else [last]) + keys[:split]
    assert run == sorted(run)
    assert split == len(keys) or keys[split] < run[-1]


@given(keys=dup_keys_st | keys_st)
@settings(max_examples=60, deadline=None)
def test_stable_argsort_orders_by_key_then_arrival(keys):
    """The tail sort orders duplicates by arrival — stability decides which
    of several versions of a key (including tombstones) wins downstream.
    ``gather`` applies it to key, seq and value columns."""
    expected = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    values = [f"v{i}" for i in range(len(keys))]
    col = kernels.key_array(keys)
    order = kernels.stable_argsort(col)
    assert _unboxed(order) == expected
    assert _unboxed(kernels.gather(col, order)) == [keys[i] for i in expected]
    assert kernels.gather(values, order) == [values[i] for i in expected]


@given(runs=st.lists(st.lists(st.integers(0, 40) | i64, max_size=25).map(sorted),
                    min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_merge_of_sorted_columns_matches(runs):
    """The flush merge: sorted components concatenated oldest first and
    stably sorted by key equal the k-way merge by (key, component, slot)."""
    flat = [(key, r, i) for r, run in enumerate(runs) for i, key in enumerate(run)]
    col = kernels.concat_columns([kernels.key_array(run) for run in runs])
    assert _unboxed(col) == [key for key, _r, _i in flat]
    order = kernels.stable_argsort(col)
    assert [flat[i] for i in _unboxed(order)] == sorted(flat)


@given(keys=(dup_keys_st | keys_st).map(sorted), as_list=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dedup_last_matches(keys, as_list):
    """The flush dedup keeps the last (newest) slot of every key run, on an
    int64 column (a flush) and a list (``BPlusTree.insert_many``)."""
    values = list(range(len(keys)))
    last = {key: i for i, key in enumerate(keys)}
    out_keys, out_values = kernels.dedup_last(keys if as_list else kernels.key_array(keys), values)
    assert _unboxed(out_keys) == sorted(last)
    assert out_values == [last[key] for key in sorted(last)]


def test_item_columns_is_a_pair_sequence():
    keys = [3, 5, 2**63 - 1]
    for column in (kernels.key_array(keys), keys):  # a flush's, and insert_many's
        items = kernels.ItemColumns(column, ["a", "b", "c"])
        assert len(items) == 3 and bool(items)
        assert list(items) == list(zip(keys, "abc"))
        assert items[0] == (3, "a") and items[-1] == (keys[-1], "c")
        assert type(items[1][0]) is int
        assert list(items[1:]) == list(zip(keys[1:], "bc"))


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric,reference", METRICS)
@given(keys=small_keys_st | keys_st)
@settings(max_examples=50, deadline=None)
def test_metric_values_match(metric, reference, keys):
    assert metric(keys) == reference(keys)


@given(keys=st.lists(i64 | i64_edges, max_size=40))
@settings(max_examples=40, deadline=None)
def test_inversions_match_on_extreme_keys(keys):
    assert kernels.count_inversions(keys) == _ref_inversions(keys)


# ----------------------------------------------------------------------
# B+-tree batch pre-pass
# ----------------------------------------------------------------------
items_st = st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=60)


@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_sort_items_by_key_stable_and_identical(items):
    by_key = kernels.sort_items_by_key(list(items))
    assert by_key == sorted(items, key=lambda item: item[0])


@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_keys_strictly_increasing_matches(items):
    keys = [key for key, _value in items]
    expected = all(a < b for a, b in zip(keys, keys[1:]))
    assert kernels.column_strictly_increasing(keys) == expected  # the list path
    assert kernels.column_strictly_increasing(kernels.key_array(keys)) == expected


# ----------------------------------------------------------------------
# the backend surface
# ----------------------------------------------------------------------
def test_set_backend_accepts_numpy_and_none():
    kernels.set_backend("numpy")
    kernels.set_backend(None)
    assert kernels.active_backend() == "numpy"


@pytest.mark.parametrize("name", ["python", "fortran"])
def test_set_backend_rejects_other_names(name):
    with pytest.raises(ConfigError):
        kernels.set_backend(name)
    assert kernels.active_backend() == "numpy"


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        kernels.set_backend("cython")
