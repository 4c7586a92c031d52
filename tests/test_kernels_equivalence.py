"""Bit-identical equivalence of the python and numpy kernel backends.

The numpy kernels in :mod:`repro.kernels.numpy_kernels` are pure
constant-factor optimizations: for every kernel, both backends must return
*identical* values — the same hash words, the same Bloom bit patterns (byte
for byte, including under rotation), the same stable sort orders (so
duplicate/tombstone resolution is unchanged), the same metric values, the
same lookup and range results. These properties pin that contract, and the
accounting-parity tests pin that batch entry points bill ``probe_count`` /
``n_added`` exactly like sequential loops on *both* backends.

When numpy is absent, the cross-backend tests skip and the remaining tests
exercise the python reference backend alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.core.buffer import SWAREBuffer
from repro.core.config import SWAREConfig
from repro.errors import ConfigError
from repro.filters.bloom import BloomFilter

HAS_NUMPY = kernels.numpy_available()
requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")

BOTH_BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])

# int64-range keys (the vectorizable common case) plus explicit boundaries.
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
i64_edges = st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 2**31, -(2**31)])
keys_st = st.lists(i64 | i64_edges, max_size=80)
small_keys_st = st.lists(st.integers(min_value=0, max_value=300), max_size=80)
# Keys outside uint64 range force the numpy backend's per-call fallback.
bignum_keys_st = st.lists(
    st.integers(min_value=-(2**100), max_value=2**100), min_size=1, max_size=20
)


def _both(fn, *args, **kwargs):
    """Run a kernel under both backends; return (python_result, numpy_result)."""
    with kernels.use_backend("python"):
        py = fn(*args, **kwargs)
    with kernels.use_backend("numpy"):
        np_res = fn(*args, **kwargs)
    return py, np_res


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
@requires_numpy
@given(keys=keys_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_splitmix64_many_matches(keys, seed):
    py, np_res = _both(kernels.splitmix64_many, keys, seed)
    assert list(py) == [int(v) for v in np_res]


@requires_numpy
@given(keys=keys_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_murmur3_64_many_matches(keys, seed):
    py, np_res = _both(kernels.murmur3_64_many, keys, seed)
    assert list(py) == [int(v) for v in np_res]


@requires_numpy
@pytest.mark.parametrize("family", ["splitmix64", "murmur3"])
@given(keys=keys_st)
@settings(max_examples=40, deadline=None)
def test_shared_bases_matches(family, keys):
    py, np_res = _both(kernels.shared_bases, keys, family)
    assert list(py) == [int(v) for v in np_res]


@requires_numpy
@given(keys=bignum_keys_st)
@settings(max_examples=30, deadline=None)
def test_bignum_keys_fall_back_identically(keys):
    """Keys outside uint64 range take the numpy backend's python fallback."""
    py, np_res = _both(kernels.splitmix64_many, keys)
    assert list(py) == list(np_res)


# ----------------------------------------------------------------------
# Bloom filter: bit patterns, membership, accounting
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("family", ["splitmix64", "murmur3"])
@pytest.mark.parametrize("rotation", [0, 17])
@given(keys=keys_st, probes=st.lists(i64 | i64_edges, max_size=40))
@settings(max_examples=25, deadline=None)
def test_bloom_bits_and_membership_identical(family, rotation, keys, probes):
    """Batch adds set byte-identical bits on both backends, and both match
    the sequential single-key path; membership answers agree everywhere."""
    filters = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            bf = BloomFilter(256, hash_family=family, rotation=rotation)
            bf.add_many(keys)
            filters[backend] = bf
    sequential = BloomFilter(256, hash_family=family, rotation=rotation)
    for key in keys:
        sequential.add(key)

    assert bytes(filters["python"]._bits) == bytes(filters["numpy"]._bits)
    assert bytes(filters["python"]._bits) == bytes(sequential._bits)

    py_ans, np_ans = (
        filters[b].may_contain_many(probes) for b in ("python", "numpy")
    )
    single_ans = [sequential.may_contain(p) for p in probes]
    assert list(py_ans) == list(np_ans) == single_ans
    assert all(key in filters["python"] for key in keys)


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
@pytest.mark.parametrize("rotation", [0, 17])
@pytest.mark.parametrize("capacity", [1, 64, 4096])  # 8-bit, page-sized, buffer-sized
@pytest.mark.parametrize("batch", [1, 7, 8, 64, 4096])
def test_bloom_add_many_batch_sizes_and_duplicate_positions(backend, batch, capacity, rotation):
    """Every batch size sets the byte path's exact bits, including when probe
    positions repeat: within a key (an 8-bit filter folds seven probes onto
    at most eight bits), across keys (a batch far over capacity) and through
    duplicate keys."""
    keys = [(i * 2654435761) % 1009 for i in range(batch)]  # repeats from 1009 on
    with kernels.use_backend(backend):
        filt = BloomFilter(capacity, rotation=rotation)
        filt.add_many(keys[: batch // 2])
        filt.add_many(keys[batch // 2 :])  # ORs into bits already set
    sequential = BloomFilter(capacity, rotation=rotation)
    for key in keys:
        sequential.add(key)
    scalar = BloomFilter(capacity, rotation=rotation)
    scalar.add_bases(kernels.shared_bases(keys))
    assert bytes(filt._bits) == bytes(sequential._bits) == bytes(scalar._bits)
    assert filt.n_added == sequential.n_added == scalar.n_added == batch


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
def test_batch_accounting_matches_sequential(backend):
    """`add_many`/`may_contain_many` bill n_added/probe_count exactly like
    the sequential loop, on every backend (regression: accounting parity)."""
    keys = list(range(0, 600, 3))
    probes = list(range(0, 900, 2))
    with kernels.use_backend(backend):
        batch, seq = BloomFilter(512), BloomFilter(512)
        batch.add_many(keys)
        batch.may_contain_many(probes)
        for key in keys:
            seq.add(key)
        for p in probes:
            seq.may_contain(p)
    assert batch.n_added == seq.n_added == len(keys)
    assert batch.probe_count == seq.probe_count == len(probes)


@requires_numpy
@given(data=st.binary(max_size=512))
@settings(max_examples=60, deadline=None)
def test_popcount_bytes_matches(data):
    py, np_res = _both(kernels.popcount_bytes, data)
    assert py == int(np_res) == sum(bin(b).count("1") for b in data)


@pytest.mark.parametrize("backend", BOTH_BACKENDS)
def test_saturation_counts_set_bits(backend):
    with kernels.use_backend(backend):
        bf = BloomFilter(128)
        bf.add_many(list(range(50)))
        expected = sum(bin(b).count("1") for b in bf._bits) / bf.n_bits
        assert bf.saturation == pytest.approx(expected)


# ----------------------------------------------------------------------
# buffer kernels: split detection, stable sort, merge, range search
# ----------------------------------------------------------------------
dup_keys_st = st.lists(st.integers(min_value=0, max_value=40), max_size=60)  # forces dups


def _unboxed(column):
    return [int(v) for v in column]


@requires_numpy
@given(keys=keys_st, last=st.none() | i64)
@settings(max_examples=60, deadline=None)
def test_nondecreasing_prefix_len_matches(keys, last):
    py, np_res = _both(kernels.nondecreasing_prefix_len, keys, last)
    assert py == np_res


@requires_numpy
@given(keys=dup_keys_st | keys_st | bignum_keys_st)
@settings(max_examples=60, deadline=None)
def test_stable_argsort_orders_by_key_then_arrival(keys):
    """The tail sort: same permutation on both backends, duplicates ordered
    by arrival — stability decides which of several versions of a key
    (including tombstones) wins downstream. ``gather`` applies it to key,
    seq and value columns alike."""
    expected = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    values = [f"v{i}" for i in range(len(keys))]
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            col = kernels.key_array(keys)
            order = kernels.stable_argsort(col)
            assert _unboxed(order) == expected
            assert _unboxed(kernels.gather(col, order)) == [keys[i] for i in expected]
            assert kernels.gather(values, order) == [values[i] for i in expected]


@requires_numpy
@given(runs=st.lists(st.lists(st.integers(0, 40) | i64, max_size=25).map(sorted), max_size=4))
@settings(max_examples=60, deadline=None)
def test_merge_of_sorted_columns_matches(runs):
    """The flush merge: sorted components concatenated oldest first and
    stably sorted by key equal the k-way merge by (key, component, slot)."""
    flat = [(key, r, i) for r, run in enumerate(runs) for i, key in enumerate(run)]
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            col = kernels.concat_columns([kernels.key_array(run) for run in runs])
            assert _unboxed(col) == [key for key, _r, _i in flat]
            order = kernels.stable_argsort(col)
            assert [flat[i] for i in _unboxed(order)] == sorted(flat)
    # A demoted (list) component next to array components still merges.
    with kernels.use_backend("numpy"):
        mixed = kernels.concat_columns([kernels.key_array([1, 2]), [2**64], kernels.key_array([3])])
        assert mixed == [1, 2, 2**64, 3]


@requires_numpy
@given(keys=(dup_keys_st | keys_st).map(sorted))
@settings(max_examples=60, deadline=None)
def test_dedup_last_matches(keys):
    """The flush dedup keeps the last (newest) slot of every key run."""
    values = list(range(len(keys)))
    last = {key: i for i, key in enumerate(keys)}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            out_keys, out_values = kernels.dedup_last(kernels.key_array(keys), values)
            assert _unboxed(out_keys) == sorted(last)
            assert out_values == [last[key] for key in sorted(last)]


@requires_numpy
def test_item_columns_is_a_pair_sequence():
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            items = kernels.ItemColumns(kernels.key_array([3, 5, 9]), ["a", "b", "c"])
            assert len(items) == 3 and bool(items)
            assert list(items) == [(3, "a"), (5, "b"), (9, "c")]
            assert items[0] == (3, "a") and items[-1] == (9, "c")
            assert type(items[1][0]) is int
            assert list(items[1:]) == [(5, "b"), (9, "c")]
            assert kernels.keys_strictly_increasing(items)


@requires_numpy
@given(pairs=st.lists(st.tuples(st.integers(0, 200), st.integers()), max_size=120))
@settings(max_examples=25, deadline=None)
def test_buffer_state_identical_across_backends(pairs):
    """End to end: add_many + lookups + ranges observe the same buffer."""
    buffers = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            buf = SWAREBuffer(SWAREConfig(buffer_capacity=256, page_size=8))
            buf.add_many(pairs)
            buffers[backend] = buf
    with kernels.use_backend("python"):
        py_gets = [buffers["python"].lookup(k) for k in range(0, 201, 7)]
        py_range = buffers["python"].range_entries(20, 150)
        buffers["python"].check_invariants()
    with kernels.use_backend("numpy"):
        np_gets = [buffers["numpy"].lookup(k) for k in range(0, 201, 7)]
        np_range = buffers["numpy"].range_entries(20, 150)
        buffers["numpy"].check_invariants()
    assert py_gets == np_gets
    assert list(py_range) == list(np_range)
    assert buffers["python"].all_entries() == buffers["numpy"].all_entries()


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize(
    "metric",
    [
        kernels.count_inversions,
        kernels.max_displacement,
        kernels.count_runs,
        kernels.count_out_of_order,
        kernels.longest_nondecreasing_subsequence_length,
    ],
    ids=lambda f: f.__name__,
)
@given(keys=small_keys_st)
@settings(max_examples=50, deadline=None)
def test_metric_values_match(metric, keys):
    py, np_res = _both(metric, keys)
    assert py == np_res


@requires_numpy
@given(keys=st.lists(i64 | i64_edges, max_size=40))
@settings(max_examples=40, deadline=None)
def test_inversions_match_on_extreme_keys(keys):
    py, np_res = _both(kernels.count_inversions, keys)
    assert py == np_res


# ----------------------------------------------------------------------
# B+-tree batch pre-pass
# ----------------------------------------------------------------------
items_st = st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=60)


@requires_numpy
@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_sort_items_by_key_stable_and_identical(items):
    py, np_res = _both(kernels.sort_items_by_key, list(items))
    assert list(py) == list(np_res)
    assert [p[0] for p in py] == sorted(p[0] for p in items)


@requires_numpy
@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_keys_strictly_increasing_matches(items):
    py, np_res = _both(kernels.keys_strictly_increasing, list(items))
    assert bool(py) == bool(np_res)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_use_backend_restores_previous_selection():
    before = kernels.active_backend()
    with kernels.use_backend("python"):
        assert kernels.active_backend() == "python"
    assert kernels.active_backend() == before


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        kernels.set_backend("cython")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "python")
    assert kernels.active_backend() == "python"
    monkeypatch.setenv("REPRO_KERNELS", "fortran")
    with pytest.raises(ConfigError):
        kernels.splitmix64_many([1, 2, 3])


@pytest.mark.skipif(HAS_NUMPY, reason="only meaningful without numpy")
def test_forcing_numpy_without_numpy_raises():
    with pytest.raises(ConfigError):
        kernels.set_backend("numpy")


def test_backend_info_shape():
    info = kernels.backend_info()
    assert info["kernel_backend"] in ("python", "numpy")
    assert ("numpy_version" in info) and (
        (info["numpy_version"] is None) != HAS_NUMPY
    )
