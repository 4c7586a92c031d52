"""Tests for the simulated bufferpool and page allocator."""

import pytest

from repro.storage.bufferpool import BufferPool, PageIdAllocator
from repro.storage.costmodel import CostModel, Meter


class TestPageIdAllocator:
    def test_monotonic_unique(self):
        alloc = PageIdAllocator()
        ids = [alloc.allocate() for _ in range(10)]
        assert ids == list(range(10))


class TestUnboundedPool:
    def test_first_access_misses_then_hits(self):
        pool = BufferPool()
        assert pool.access(1) is False
        assert pool.access(1) is True
        assert pool.misses == 1
        assert pool.hits == 1

    def test_create_avoids_read(self):
        pool = BufferPool()
        pool.create(1)
        assert pool.disk_reads == 0
        assert pool.access(1) is True


class TestLRUEviction:
    def test_evicts_least_recently_used(self):
        pool = BufferPool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 2 is now LRU
        pool.access(3)  # evicts 2
        assert pool.access(1) is True
        assert pool.access(2) is False  # was evicted

    def test_dirty_eviction_writes_back(self):
        meter = Meter()
        pool = BufferPool(capacity=1, meter=meter)
        pool.access(1, dirty=True)
        pool.access(2)  # evicts dirty page 1
        assert pool.disk_writes == 1
        assert meter["disk_write"] == 1

    def test_clean_eviction_free(self):
        pool = BufferPool(capacity=1)
        pool.access(1)
        pool.access(2)
        assert pool.disk_writes == 0
        assert pool.evictions == 1

    def test_capacity_respected(self):
        pool = BufferPool(capacity=3)
        for page in range(10):
            pool.access(page)
        assert pool.resident == 3


class TestFlush:
    def test_flush_all_writes_dirty_only(self):
        pool = BufferPool()
        pool.access(1, dirty=True)
        pool.access(2)
        assert pool.flush_all() == 1
        assert pool.flush_all() == 0  # now clean


class TestAccounting:
    def test_meter_charged_on_miss(self):
        meter = Meter()
        pool = BufferPool(capacity=4, meter=meter)
        pool.access(1)
        pool.access(1)
        assert meter["disk_read"] == 1

    def test_hit_rate(self):
        pool = BufferPool()
        pool.access(1)
        pool.access(1)
        pool.access(1)
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_stats_snapshot(self):
        pool = BufferPool(capacity=8)
        pool.access(1)
        stats = pool.stats()
        assert stats["misses"] == 1
        assert stats["capacity"] == 8

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)


class TestTreeIntegration:
    def test_btree_with_tiny_pool_counts_io(self):
        from repro.btree.btree import BPlusTree, BPlusTreeConfig

        meter = Meter()
        pool = BufferPool(capacity=4, meter=meter)
        tree = BPlusTree(
            BPlusTreeConfig(leaf_capacity=4, internal_capacity=4), meter=meter, pool=pool
        )
        import random

        keys = list(range(300))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert pool.disk_reads > 0
        assert pool.disk_writes > 0
        # Simulated time is dominated by I/O under the default weights.
        model = CostModel()
        assert model.nanos({"disk_read": meter["disk_read"]}) > model.nanos(
            {"node_access": meter["node_access"]}
        )

    def test_generous_pool_has_no_reads_after_creation(self):
        from repro.btree.btree import BPlusTree, BPlusTreeConfig

        meter = Meter()
        pool = BufferPool(capacity=10_000, meter=meter)
        tree = BPlusTree(
            BPlusTreeConfig(leaf_capacity=8, internal_capacity=8), meter=meter, pool=pool
        )
        for key in range(500):
            tree.insert(key, key)
        for key in range(500):
            tree.get(key)
        # Every page was created in the pool and never evicted.
        assert pool.disk_reads == 0
