"""The kernels against scalar references, on vector and Python paths.

Each kernel in :mod:`repro.kernels` is a constant-factor optimization: it
must return *identical* values to the one-key-at-a-time definition — the
same hash words, the same Bloom bit patterns (byte for byte, including
under rotation), the same stable sort orders (so duplicate/tombstone
resolution is unchanged), the same metric values. The references are the
scalar code in :mod:`repro.filters` (hashing, ``BloomFilter.add``) or small
functions in this file. Inputs no int64 column holds (``2**70``, mixes of
negative keys and keys past ``2**63``) take each kernel's Python path, and
are checked against the same references. The accounting-parity tests pin
that batch entry points bill ``probe_count`` / ``n_added`` exactly like
sequential loops, and the last tests pin the backend surface that remains.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.core.buffer import SWAREBuffer
from repro.core.config import SWAREConfig
from repro.errors import ConfigError
from repro.filters import hashing
from repro.filters.bloom import BloomFilter
from tests.key_domains import key_domains

# int64-range keys (the vectorizable common case) plus explicit boundaries.
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
i64_edges = st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 2**31, -(2**31)])
keys_st = st.lists(i64 | i64_edges, max_size=80)
small_keys_st = st.lists(st.integers(min_value=0, max_value=300), max_size=80)
# Keys outside uint64 range take the kernels' Python paths.
bignum_keys_st = st.lists(
    st.integers(min_value=-(2**100), max_value=2**100), min_size=1, max_size=20
)


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


def _ref_runs(keys):
    return (len(keys) > 0) + sum(b < a for a, b in zip(keys, keys[1:]))


def _ref_lnds(keys):
    best = []  # best[i]: longest non-decreasing subsequence ending at i
    for i, key in enumerate(keys):
        best.append(1 + max((best[j] for j in range(i) if keys[j] <= key), default=0))
    return max(best, default=0)


def _ref_predict(first_keys, slopes, starts, keys):
    out = []
    for key in keys:
        seg = max(bisect_right(first_keys, key) - 1, 0)
        out.append(starts[seg] + int(slopes[seg] * float(key - first_keys[seg])))
    return out


METRICS = [
    pytest.param(metric, reference, id=metric.__name__)
    for metric, reference in [
        (kernels.count_inversions, _ref_inversions),
        (kernels.max_displacement, _ref_max_displacement),
        (kernels.count_runs, _ref_runs),
        (kernels.count_out_of_order, lambda keys: len(keys) - _ref_lnds(keys)),
        (kernels.longest_nondecreasing_subsequence_length, _ref_lnds),
    ]
]


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
@given(keys=keys_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_splitmix64_many_matches(keys, seed):
    expected = hashing.shared_bases(keys, "splitmix64", seed)
    assert _unboxed(kernels.shared_bases(keys, "splitmix64", seed)) == expected


@given(keys=keys_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_murmur3_64_many_matches(keys, seed):
    expected = [hashing.murmur3_64(key, seed) for key in keys]
    assert _unboxed(kernels.shared_bases(keys, "murmur3", seed)) == expected


@pytest.mark.parametrize("family", ["splitmix64", "murmur3"])
@given(keys=keys_st.filter(bool))
@settings(max_examples=40, deadline=None)
def test_shared_bases_matches(family, keys):
    bases = kernels.shared_bases(keys, family)
    assert isinstance(bases, np.ndarray)
    assert _unboxed(bases) == [hashing.shared_base(key, family) for key in keys]


@given(keys=bignum_keys_st | st.just([-1, 2**63]))
@settings(max_examples=30, deadline=None)
def test_bignum_keys_fall_back_identically(keys):
    """Keys no integer dtype holds are hashed by the scalar functions."""
    for family in ("splitmix64", "murmur3"):
        expected = hashing.shared_bases(keys, family)
        assert _unboxed(kernels.shared_bases(keys, family)) == expected


# ----------------------------------------------------------------------
# Bloom filter: bit patterns, membership, accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["splitmix64", "murmur3"])
@pytest.mark.parametrize("rotation", [0, 17])
@given(keys=keys_st, probes=st.lists(i64 | i64_edges, max_size=40))
@settings(max_examples=25, deadline=None)
def test_bloom_bits_and_membership_identical(family, rotation, keys, probes):
    """Batch adds set the bits of the sequential single-key path, and
    batch membership answers agree with single-key probes."""
    batch = BloomFilter(256, hash_family=family, rotation=rotation)
    batch.add_many(keys)
    sequential = BloomFilter(256, hash_family=family, rotation=rotation)
    for key in keys:
        sequential.add(key)
    assert bytes(batch._bits) == bytes(sequential._bits)
    assert batch.may_contain_many(probes) == [sequential.may_contain(p) for p in probes]
    assert all(key in batch for key in keys)


@key_domains
@pytest.mark.parametrize("rotation", [0, 17])
@pytest.mark.parametrize("capacity", [1, 64, 4096])  # 8-bit, page-sized, buffer-sized
@pytest.mark.parametrize("batch", [1, 7, 8, 64, 4096])
def test_bloom_add_many_batch_sizes_and_duplicate_positions(domain, batch, capacity, rotation):
    """Every batch size sets the byte path's exact bits, including when probe
    positions repeat: within a key (an 8-bit filter folds seven probes onto
    at most eight bits), across keys (a batch far over capacity) and through
    duplicate keys — with keys beyond int64 in the batch too."""
    keys = [(i * 2654435761) % 1009 for i in range(batch)]  # repeats from 1009 on
    keys = [*domain.extra_keys, *keys][:batch]
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
    """`add_many`/`may_contain_many` bill n_added/probe_count exactly like
    the sequential loop (regression: accounting parity)."""
    keys = list(range(0, 600, 3)) + list(domain.extra_keys)
    probes = list(range(0, 900, 2)) + list(domain.extra_keys)
    batch, seq = BloomFilter(512), BloomFilter(512)
    batch.add_many(keys)
    answers = batch.may_contain_many(probes)
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
    bf.add_many(list(range(50)) + list(domain.extra_keys))
    expected = sum(bin(b).count("1") for b in bf._bits) / bf.n_bits
    assert bf.saturation == pytest.approx(expected)


# ----------------------------------------------------------------------
# buffer kernels: split detection, stable sort, merge, dedup
# ----------------------------------------------------------------------
dup_keys_st = st.lists(st.integers(min_value=0, max_value=40), max_size=60)  # forces dups


@given(keys=keys_st | bignum_keys_st, last=st.none() | i64)
@settings(max_examples=60, deadline=None)
def test_nondecreasing_prefix_len_matches(keys, last):
    split = kernels.nondecreasing_prefix_len(keys, last)
    run = ([] if last is None else [last]) + keys[:split]
    assert run == sorted(run)
    assert split == len(keys) or keys[split] < run[-1]


@given(keys=dup_keys_st | keys_st | bignum_keys_st)
@settings(max_examples=60, deadline=None)
def test_stable_argsort_orders_by_key_then_arrival(keys):
    """The tail sort orders duplicates by arrival — stability decides which
    of several versions of a key (including tombstones) wins downstream —
    on int64 columns and on demoted lists alike. ``gather`` applies it to
    key, seq and value columns."""
    expected = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    values = [f"v{i}" for i in range(len(keys))]
    col = kernels.key_array(keys)
    assert (type(col) is list) == any(not -(2**63) <= key < 2**63 for key in keys)
    order = kernels.stable_argsort(col)
    assert _unboxed(order) == expected
    assert _unboxed(kernels.gather(col, order)) == [keys[i] for i in expected]
    assert kernels.gather(values, order) == [values[i] for i in expected]


@given(runs=st.lists(st.lists(st.integers(0, 40) | i64, max_size=25).map(sorted), max_size=4))
@settings(max_examples=60, deadline=None)
def test_merge_of_sorted_columns_matches(runs):
    """The flush merge: sorted components concatenated oldest first and
    stably sorted by key equal the k-way merge by (key, component, slot)."""
    flat = [(key, r, i) for r, run in enumerate(runs) for i, key in enumerate(run)]
    col = kernels.concat_columns([kernels.key_array(run) for run in runs])
    assert _unboxed(col) == [key for key, _r, _i in flat]
    order = kernels.stable_argsort(col)
    assert [flat[i] for i in _unboxed(order)] == sorted(flat)
    # A demoted (list) component next to array components still merges.
    mixed = kernels.concat_columns([kernels.key_array([1, 2]), [2**64], kernels.key_array([3])])
    assert mixed == [1, 2, 2**64, 3]


@given(keys=(dup_keys_st | keys_st).map(sorted), wide=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dedup_last_matches(keys, wide):
    """The flush dedup keeps the last (newest) slot of every key run."""
    if wide:
        keys = [key + 2**70 for key in keys]
    values = list(range(len(keys)))
    last = {key: i for i, key in enumerate(keys)}
    out_keys, out_values = kernels.dedup_last(kernels.key_array(keys), values)
    assert _unboxed(out_keys) == sorted(last)
    assert out_values == [last[key] for key in sorted(last)]


def test_item_columns_is_a_pair_sequence():
    for keys in ([3, 5, 9], [3, 5, 2**70]):  # an int64 column, and a list one
        items = kernels.ItemColumns(kernels.key_array(keys), ["a", "b", "c"])
        assert len(items) == 3 and bool(items)
        assert list(items) == list(zip(keys, "abc"))
        assert items[0] == (3, "a") and items[-1] == (keys[-1], "c")
        assert type(items[1][0]) is int
        assert list(items[1:]) == list(zip(keys[1:], "bc"))
        assert kernels.keys_strictly_increasing(items)


@given(pairs=st.lists(st.tuples(st.integers(0, 200), st.integers()), max_size=120))
@settings(max_examples=25, deadline=None)
def test_buffer_state_identical_across_backends(pairs):
    """End to end: add_many + lookups + ranges observe the same buffer on
    int64 keys and on the same keys moved beyond int64 (list columns)."""
    shift = 2**70
    buffers = []
    for moved in (0, shift):
        buf = SWAREBuffer(SWAREConfig(buffer_capacity=256, page_size=8))
        buf.add_many([(key + moved, value) for key, value in pairs])
        gets = [buf.lookup(k + moved) for k in range(0, 201, 7)]
        versions, n_entries = buf.range_run(20 + moved, 150 + moved)
        ranges = sorted((k - moved, v) for k, v in versions.items()), n_entries
        entries = [(k - moved, *rest) for k, *rest in buf.all_entries()]
        buf.check_invariants()
        buffers.append((gets, ranges, entries))
    assert buffers[0] == buffers[1]


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric,reference", METRICS)
@given(keys=small_keys_st | bignum_keys_st)
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
    assert kernels.keys_strictly_increasing(items) == expected
    assert kernels.column_strictly_increasing(kernels.key_array(keys)) == expected


# ----------------------------------------------------------------------
# piecewise-linear model
# ----------------------------------------------------------------------
@given(
    keys=st.lists(i64 | st.integers(-(2**80), 2**80), min_size=1, max_size=60, unique=True)
    .map(sorted),
    probes=st.lists(i64 | st.integers(-(2**80), 2**80), max_size=30),
    epsilon=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_pla_predictions_match(keys, probes, epsilon):
    """The fit keeps every key within epsilon of its position; predictions
    equal the scalar formula, vectorized on int64 input and one by one for
    keys (or segments) beyond it."""
    first_keys, slopes, starts = kernels.pla_fit_segments(keys, epsilon)
    fitted = kernels.pla_predict_many(first_keys, slopes, starts, keys)
    if all(-(2**53) <= key <= 2**53 for key in keys):  # exact float deltas
        assert all(abs(pred - pos) <= epsilon + 1 for pos, pred in enumerate(fitted))
    for query in (keys, probes):
        assert kernels.pla_predict_many(first_keys, slopes, starts, query) == _ref_predict(
            first_keys, slopes, starts, query
        )


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
