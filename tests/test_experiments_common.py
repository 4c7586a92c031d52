"""Tests for the experiment-harness plumbing (repro.bench.experiments.common)."""


from repro.bench.experiments import common
from repro.workloads.spec import INSERT, LOOKUP


class TestKeysFor:
    def test_cache_returns_same_object(self):
        a = common.keys_for(2000, 0.1, 0.05, seed=3)
        b = common.keys_for(2000, 0.1, 0.05, seed=3)
        assert a is b  # lru_cache hit

    def test_none_means_scrambled(self):
        keys = common.keys_for(2000, None, None, seed=3)
        assert sorted(keys) == list(range(2000))
        assert list(keys) != sorted(keys)

    def test_zero_k_is_sorted(self):
        assert list(common.keys_for(500, 0.0, 0.5)) == list(range(500))


class TestBufferConfig:
    def test_page_aligned(self):
        config = common.buffer_config(100_000, 0.01)
        assert config.buffer_capacity % config.page_size == 0

    def test_tiny_buffer_shrinks_page(self):
        config = common.buffer_config(10_000, 0.0005)  # 5 entries requested
        assert config.page_size <= config.buffer_capacity // 2
        assert config.buffer_capacity >= 8

    def test_overrides_forwarded(self):
        config = common.buffer_config(10_000, 0.01, flush_fraction=0.25)
        assert config.flush_fraction == 0.25


class TestOndiskPool:
    def test_scales_with_n(self):
        assert common.ondisk_pool_capacity(100_000) > common.ondisk_pool_capacity(5_000)

    def test_minimum(self):
        assert common.ondisk_pool_capacity(100) >= 24


class TestMixedOps:
    def test_read_cap_default(self):
        ops = common.mixed_ops(tuple(range(1000)), 0.9)
        lookups = sum(1 for op in ops if op[0] == LOOKUP)
        assert lookups <= 3000

    def test_all_keys_inserted(self):
        ops = common.mixed_ops(tuple(range(500)), 0.5)
        inserted = sorted(op[1] for op in ops if op[0] == INSERT)
        assert inserted == list(range(500))


class TestFactories:
    def test_factories_share_meter(self):
        from repro.storage.costmodel import Meter

        meter = Meter()
        index = common.sa_btree_factory(common.buffer_config(1000, 0.01))(meter)
        index.insert(1, 1)
        assert meter["buffer_append"] == 1
        assert index.backend.meter is meter

    def test_pool_wired_when_requested(self):
        from repro.storage.costmodel import Meter

        factory = common.baseline_btree_factory(pool_capacity=8)
        tree = factory(Meter())
        assert tree.pool is not None
        assert tree.pool.capacity == 8
