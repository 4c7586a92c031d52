"""Observational equivalence of the batch entry points.

The batch API (``put_many``/``get_many``/``insert_many``/``add_many``) is a
pure constant-factor optimization: a batched replay of an operation stream
must leave every backend in the same observable state as the sequential
loop — same lookup results, same flush boundaries, same component sizes,
same invariants. These properties pin that contract across all three
backends (B+-tree, Bε-tree, LSM) and the supporting layers (SWARE buffer,
Bloom filters).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.betree.betree import BeTree, BeTreeConfig
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.config import SWAREConfig
from repro.core.factory import make_sa_betree, make_sa_btree
from repro.core.sware import SortednessAwareIndex
from repro.filters.bloom import BloomFilter
from repro.lsm.lsm import LSMConfig, LSMTree


def _sware_config():
    return SWAREConfig(buffer_capacity=32, page_size=4)


def _sa_btree():
    return make_sa_btree(_sware_config(), leaf_capacity=4, internal_capacity=4)


def _sa_betree():
    return make_sa_betree(_sware_config(), node_size=8, leaf_capacity=4)


def _sa_lsm():
    return SortednessAwareIndex(
        LSMTree(LSMConfig(memtable_capacity=16)), config=_sware_config()
    )


BACKENDS = [("btree", _sa_btree), ("betree", _sa_betree), ("lsm", _sa_lsm)]

keys_st = st.integers(min_value=0, max_value=200)
items_st = st.lists(st.tuples(keys_st, st.integers(min_value=1, max_value=10**6)))


@pytest.mark.parametrize("name,make", BACKENDS, ids=[n for n, _ in BACKENDS])
@given(items=items_st, probe_keys=st.lists(keys_st, max_size=60))
@settings(max_examples=40, deadline=None)
def test_put_many_matches_sequential_inserts(name, make, items, probe_keys):
    """put_many == insert loop: same lookups, flush boundaries, components."""
    seq, bat = make(), make()
    for key, value in items:
        seq.insert(key, value)
    bat.put_many(items)

    assert seq.stats.flushes == bat.stats.flushes
    assert seq.stats.inserts == bat.stats.inserts
    assert seq.buffer.component_sizes() == bat.buffer.component_sizes()
    seq.buffer.check_invariants()
    bat.buffer.check_invariants()
    check = getattr(bat.backend, "check_invariants", None)
    if check is not None:
        check()
    probes = probe_keys + [key for key, _value in items][:40]
    assert [seq.get(k) for k in probes] == bat.get_many(probes)
    lo, hi = 0, 200
    assert seq.range_query(lo, hi) == bat.range_query(lo, hi)


@pytest.mark.parametrize("name,make", BACKENDS, ids=[n for n, _ in BACKENDS])
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "lookup"]), keys_st),
        max_size=150,
    )
)
@settings(max_examples=40, deadline=None)
def test_interleaved_stream_equivalence(name, make, operations):
    """A mixed insert/delete/lookup stream replayed batched (consecutive
    inserts via put_many, lookups via get_many) matches per-op replay."""
    seq, bat = make(), make()
    seq_results, bat_results = [], []
    pending = []

    def drain():
        if pending:
            bat.put_many(pending)
            del pending[:]

    for step, (op, key) in enumerate(operations):
        if op == "insert":
            seq.insert(key, step + 1)
            pending.append((key, step + 1))
        elif op == "delete":
            seq.delete(key)
            drain()
            bat.delete(key)
        else:
            seq_results.append(seq.get(key))
            drain()
            bat_results.extend(bat.get_many([key]))
    drain()

    assert seq_results == bat_results
    assert seq.stats.flushes == bat.stats.flushes
    assert seq.buffer.component_sizes() == bat.buffer.component_sizes()
    seq.buffer.check_invariants()
    bat.buffer.check_invariants()
    for key in range(201):
        assert seq.get(key) == bat.get(key)


@given(items=items_st, probe_keys=st.lists(st.integers(-10, 310), max_size=400))
@settings(max_examples=60, deadline=None)
def test_btree_insert_many_get_many(items, probe_keys):
    """Raw B+-tree batch ops (duplicates included: later value wins)."""
    seq = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
    bat = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
    for key, value in items:
        seq.insert(key, value)
    bat.insert_many(items)
    seq.check_invariants()
    bat.check_invariants()
    assert list(seq.iter_items()) == list(bat.iter_items())
    assert seq.n_entries == bat.n_entries
    # probe_keys can be dense (chain-merge strategy) or sparse (partition).
    assert [seq.get(k) for k in probe_keys] == bat.get_many(probe_keys)
    assert bat.get_many([]) == []


@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_betree_insert_many(items):
    seq = BeTree(BeTreeConfig(node_size=8, leaf_capacity=4))
    bat = BeTree(BeTreeConfig(node_size=8, leaf_capacity=4))
    for key, value in items:
        seq.insert(key, value)
    bat.insert_many(items)
    seq.check_invariants()
    bat.check_invariants()
    assert list(seq.iter_items()) == list(bat.iter_items())


@given(items=items_st)
@settings(max_examples=60, deadline=None)
def test_lsm_insert_many(items):
    """LSM batch inserts flush the memtable at the same points."""
    seq = LSMTree(LSMConfig(memtable_capacity=8))
    bat = LSMTree(LSMConfig(memtable_capacity=8))
    for key, value in items:
        seq.insert(key, value)
    bat.insert_many(items)
    seq.check_invariants()
    bat.check_invariants()
    assert seq.flushes == bat.flushes
    assert list(seq.iter_items()) == list(bat.iter_items())


@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**62), max_size=120),
    family=st.sampled_from(["splitmix64", "murmur3"]),
    rotation=st.sampled_from([0, 17]),
)
@settings(max_examples=60, deadline=None)
def test_bloom_add_many_bit_identical(keys, family, rotation):
    """add_many sets exactly the bits the per-key loop sets."""
    seq = BloomFilter(64, hash_family=family, rotation=rotation)
    bat = BloomFilter(64, hash_family=family, rotation=rotation)
    for key in keys:
        seq.add(key)
    bat.add_many(keys)
    assert bytes(seq._bits) == bytes(bat._bits)
    assert seq.n_added == bat.n_added
    assert seq.saturation == bat.saturation
    probes = keys + [k + 1 for k in keys][:30]
    assert [seq.may_contain(k) for k in probes] == bat.may_contain_many(probes)
    bat.clear()
    assert bat.saturation == 0.0
    assert not any(bat.may_contain_many(keys))
