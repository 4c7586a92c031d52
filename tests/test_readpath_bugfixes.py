"""Regression tests for the read-path correctness sweep (PR 8).

Three suspected read-path bugs were audited ahead of the sharded serving
layer (whose scatter-gather range path would amplify any of them across
shards). Each test here is the failing-before/passing-after pin for one of
them:

1. **LSM memtable shadowing** (the real bug the sweep found): a direct
   ``delete`` of a key beyond ``max_key`` parks a tombstone in the
   memtable without raising the watermark; a later ``bulk_load_append``
   of that key bypasses the memtable, so the *older* tombstone shadowed
   the *newer* bulk-loaded value on the point-lookup path — ``get`` said
   absent while ``range_query``/``items`` (which resolve by seq) said
   present. Acknowledged writes were unreadable.
2. **Batch query-sort trigger accounting**: ``get_many([])`` and
   ``range_many([])`` fired the query-sort trigger — mutating the buffer
   and charging ``sware_ops`` — where a sequential loop of zero ops does
   nothing; non-empty batches must charge exactly like the loop.
3. **``items()`` scan bounds**: derived from the buffer zonemap and the
   backend watermarks, both of which must stay supersets of the live key
   range across full flush + delete cycles.
"""

import pytest

from repro.betree.betree import BeTree, BeTreeConfig
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.lsm.lsm import LSMConfig, LSMTree
from repro.storage.costmodel import Meter


def make_index(backend_kind: str, meter=None, **cfg_kw) -> SortednessAwareIndex:
    cfg_kw.setdefault("buffer_capacity", 16)
    cfg_kw.setdefault("page_size", 4)
    cfg = SWAREConfig(**cfg_kw)
    if backend_kind == "btree":
        backend = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
    elif backend_kind == "betree":
        backend = BeTree(BeTreeConfig())
    else:
        backend = LSMTree(LSMConfig())
    return SortednessAwareIndex(backend, cfg, meter=meter)


BACKENDS = ["btree", "betree", "lsm"]


# ----------------------------------------------------------------------
# 1. LSM memtable shadowing of bulk-loaded runs
# ----------------------------------------------------------------------
class TestLSMBulkShadowing:
    def test_bulk_load_after_beyond_max_delete(self):
        """Failing before: the memtable tombstone (older seq) shadowed the
        newer bulk-loaded value because ``get`` trusts the memtable as
        strictly newest."""
        tree = LSMTree(LSMConfig())
        tree.insert(10, "a")  # max_key = 10
        tree.delete(50)  # tombstone straight into the memtable; max_key stays 10
        tree.bulk_load_append([(50, "b")])  # newer seq, bypasses the memtable
        assert tree.get(50) == "b"
        assert tree.range_query(50, 50) == [(50, "b")]
        assert 50 in tree

    def test_point_and_range_paths_agree_through_sware(self):
        """The same schedule through SWARE: delete with an empty buffer goes
        straight to the backend, the re-insert flushes as a bulk load."""
        idx = make_index("lsm", buffer_capacity=8)
        idx.insert(10, "a")
        idx.flush_all()
        idx.delete(50)  # empty buffer -> direct backend tombstone
        idx.insert(50, "b")
        idx.flush_all()  # 50 > tree max -> bulk_load_append
        assert idx.get(50) == "b"
        assert idx.get_many([10, 50]) == ["a", "b"]
        assert idx.items() == [(10, "a"), (50, "b")]

    def test_live_memtable_entries_survive_the_flush(self):
        """The fix flushes the memtable before installing the bulk run; the
        flushed entries must stay readable and newest-wins."""
        tree = LSMTree(LSMConfig())
        tree.insert(10, "a")
        tree.insert(20, "b")
        tree.delete(50)
        tree.bulk_load_append([(50, "c"), (60, "d")])
        assert [tree.get(k) for k in (10, 20, 50, 60)] == ["a", "b", "c", "d"]
        assert tree.range_query(0, 100) == [
            (10, "a"),
            (20, "b"),
            (50, "c"),
            (60, "d"),
        ]

    def test_disjoint_bulk_load_does_not_flush(self):
        """No shadowing risk -> no early flush: the memtable must keep
        absorbing writes when the bulk range misses it entirely."""
        tree = LSMTree(LSMConfig())
        tree.insert(10, "a")
        flushes_before = tree.flushes
        tree.bulk_load_append([(50, "c")])
        assert tree.flushes == flushes_before
        assert tree.get(10) == "a"
        assert tree.get(50) == "c"

    def test_fuzz_get_matches_oracle(self):
        """Randomized schedules of the shadowing shape: interleaved direct
        deletes and bulk-triggering inserts through SWARE vs a dict."""
        import random

        for seed in range(40):
            rng = random.Random(seed)
            idx = make_index("lsm", buffer_capacity=8)
            oracle = {}
            for step in range(120):
                op = rng.random()
                key = rng.randrange(0, 60)
                if op < 0.45:
                    idx.insert(key, (key, step))
                    oracle[key] = (key, step)
                elif op < 0.65:
                    idx.delete(key)
                    oracle.pop(key, None)
                elif op < 0.75:
                    idx.flush_all()
                else:
                    assert idx.get(key) == oracle.get(key), f"seed={seed} step={step}"
            assert sorted(idx.items()) == sorted(oracle.items()), f"seed={seed}"


# ----------------------------------------------------------------------
# 2. Batch query-sort trigger accounting
# ----------------------------------------------------------------------
def _hot_index(meter: Meter) -> SortednessAwareIndex:
    """An index whose unsorted tail is over the query-sort threshold."""
    idx = make_index(
        "btree", meter=meter, buffer_capacity=64, page_size=8, query_sorting_threshold=0.10
    )
    for k in [50, 10, 40, 20, 30, 25, 35, 15, 45, 5, 60, 55]:
        idx.insert(k, k)
    assert idx.buffer.should_query_sort()
    return idx


class TestBatchTriggerEquivalence:
    def test_empty_get_many_is_a_noop(self):
        """Failing before: ``get_many([])`` froze the tail and charged
        sware_ops where a loop of zero gets does nothing."""
        meter = Meter()
        idx = _hot_index(meter)
        tail_before = idx.buffer.tail_size
        assert idx.get_many([]) == []
        assert idx.buffer.tail_size == tail_before
        assert idx.stats.query_sorts == 0
        assert "sware_ops" not in meter.bucket_counts

    def test_empty_range_many_is_a_noop(self):
        meter = Meter()
        idx = _hot_index(meter)
        tail_before = idx.buffer.tail_size
        assert idx.range_many([]) == []
        assert idx.buffer.tail_size == tail_before
        assert idx.stats.query_sorts == 0
        assert "sware_ops" not in meter.bucket_counts

    def test_range_many_meter_equivalent_to_loop(self):
        """One trigger per batch, same charges as the sequential loop."""
        ranges = [(0, 20), (20, 40), (40, 70), (5, 65)]
        m_batch, m_loop = Meter(), Meter()
        idx_batch, idx_loop = _hot_index(m_batch), _hot_index(m_loop)
        res_batch = idx_batch.range_many(ranges)
        res_loop = [idx_loop.range_query(lo, hi) for lo, hi in ranges]
        assert res_batch == res_loop
        assert idx_batch.stats.query_sorts == idx_loop.stats.query_sorts == 1
        assert m_batch.counts == m_loop.counts
        assert m_batch.bucket_counts == m_loop.bucket_counts
        assert idx_batch.stats.range_queries == idx_loop.stats.range_queries

    def test_get_many_meter_equivalent_to_loop(self):
        keys = [5, 10, 99, 25, 60, 42]
        m_batch, m_loop = Meter(), Meter()
        idx_batch, idx_loop = _hot_index(m_batch), _hot_index(m_loop)
        assert idx_batch.get_many(keys) == [idx_loop.get(k) for k in keys]
        assert idx_batch.stats.query_sorts == idx_loop.stats.query_sorts == 1
        # The batch path may coalesce backend probes (tree_search bucket);
        # the trigger charge specifically must match the loop exactly.
        assert m_batch.bucket_counts.get("sware_ops") == m_loop.bucket_counts.get(
            "sware_ops"
        )

    def test_single_trigger_under_tiny_threshold(self):
        meter = Meter()
        idx = make_index(
            "btree", meter=meter, buffer_capacity=64, page_size=8, query_sorting_threshold=0.02
        )
        for k in [50, 10, 40, 20]:
            idx.insert(k, k)
        assert idx.buffer.should_query_sort()
        idx.range_many([(0, 100), (0, 100), (0, 100)])
        assert idx.stats.query_sorts == 1


# ----------------------------------------------------------------------
# 3. items() bounds across flush + delete cycles
# ----------------------------------------------------------------------
class TestItemsBounds:
    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_full_flush_then_delete_cycles(self, backend_kind):
        """Empty buffer + non-empty tree, deletes of the extremes leaving
        stale (superset) watermarks: items() must still see exactly the
        live keys."""
        idx = make_index(backend_kind)
        for k in range(0, 40, 2):
            idx.insert(k, k * 10)
        idx.flush_all()
        assert idx.buffer.is_empty
        # Delete the extremes straight in the tree (buffer is empty, so no
        # tombstones are buffered) — watermarks go stale on both ends.
        for k in (0, 2, 36, 38):
            idx.delete(k)
        live = {k: k * 10 for k in range(4, 36, 2)}
        assert idx.items() == sorted(live.items())
        # Another cycle: refill past the stale bounds, flush, delete again.
        idx.insert(100, 1)
        idx.insert(-100, 2)
        idx.flush_all()
        live[100] = 1
        live[-100] = 2
        idx.delete(100)
        del live[100]
        assert idx.items() == sorted(live.items())

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_empty_buffer_empty_tree_after_deleting_everything(self, backend_kind):
        idx = make_index(backend_kind)
        for k in range(10):
            idx.insert(k, k)
        idx.flush_all()
        for k in range(10):
            idx.delete(k)
        assert idx.items() == []

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_buffered_tombstones_outside_tree_range(self, backend_kind):
        """Buffer zonemap wider than the tree on both sides, holding only a
        mix of tombstones and live keys."""
        idx = make_index(backend_kind)
        for k in (10, 12, 14):
            idx.insert(k, k)
        idx.flush_all()
        idx.insert(5, 50)  # below tree min, stays buffered
        idx.insert(30, 300)  # above tree max, stays buffered
        idx.delete(12)  # in-range buffered tombstone
        idx.delete(5)  # tombstone for a buffered-only key
        assert idx.items() == [(10, 10), (14, 14), (30, 300)]

    def test_fresh_and_fully_empty_index(self):
        idx = make_index("btree")
        assert idx.items() == []
        idx.insert(1, 1)
        idx.delete(1)
        assert idx.items() == []
