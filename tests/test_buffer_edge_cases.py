"""Edge-case and failure-mode tests for the SWARE-buffer and wrapper.

Every test runs on the keys it is written with and again, in the ``*Wide``
classes at the end, shifted past 2**53 (see ``tests/key_domains.py``).
"""

from repro.core.buffer import HIT, TOMBSTONE, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.factory import make_sa_btree
from tests.key_domains import INT64, WIDE


class _Structures:
    domain = INT64

    def buffer(self, config):
        return self.domain.wrap(SWAREBuffer(config))

    def index(self, config, **kwargs):
        return self.domain.wrap(make_sa_btree(config, **kwargs))


class TestTinyGeometries(_Structures):
    def test_minimum_buffer(self):
        buffer = self.buffer(SWAREConfig(buffer_capacity=2, page_size=1))
        buffer.add(2, "a")
        buffer.add(1, "b")
        assert buffer.is_full
        batch = buffer.prepare_flush()
        assert len(batch.entries) >= 1
        buffer.check_invariants()

    def test_page_size_one(self):
        buffer = self.buffer(SWAREConfig(buffer_capacity=8, page_size=1))
        for key in (5, 3, 7, 1):
            buffer.add(key, key)
        assert buffer.lookup(3) == (HIT, 3)
        buffer.check_invariants()

    def test_index_with_tiny_buffer_correct(self):
        index = self.index(
            SWAREConfig(buffer_capacity=2, page_size=1),
            leaf_capacity=4,
            internal_capacity=4,
        )
        import random

        rng = random.Random(3)
        model = {}
        for _ in range(500):
            key = rng.randrange(100)
            index.insert(key, key)
            model[key] = key
        for key in range(100):
            assert index.get(key) == model.get(key)


class TestTombstoneOnlyStates(_Structures):
    def test_buffer_of_only_tombstones(self):
        buffer = self.buffer(SWAREConfig(buffer_capacity=8, page_size=2))
        for key in (3, 1, 2):
            buffer.add(key, None, tombstone=True)
        assert buffer.lookup(3)[0] == TOMBSTONE
        batch = buffer.drain()
        assert all(entry[3] for entry in batch.entries)

    def test_index_delete_only_workload(self):
        index = self.index(SWAREConfig(buffer_capacity=8, page_size=2))
        for key in range(20):
            index.insert(key, key)
        index.flush_all()
        for key in range(20):
            index.delete(key)
        index.flush_all()
        assert index.range_query(0, 20) == []
        index.backend.check_invariants()

    def test_tombstone_then_range(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        for key in range(10):
            index.insert(key, key)
        index.delete(5)
        result = [k for k, _ in index.range_query(0, 9)]
        assert result == [0, 1, 2, 3, 4, 6, 7, 8, 9]


class TestMonotoneEdgeCases(_Structures):
    def test_descending_inserts(self):
        """Worst case for SWARE: strictly descending arrival."""
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        for key in range(200, 0, -1):
            index.insert(key, key)
        for key in range(1, 201):
            assert index.get(key) == key
        index.backend.check_invariants()

    def test_constant_key_stream(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        for step in range(100):
            index.insert(7, step)
        assert index.get(7) == 99
        index.flush_all()
        assert index.get(7) == 99
        assert len(index.backend) == 1

    def test_sawtooth_stream(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        model = {}
        for cycle in range(10):
            for key in range(0, 50, 5):
                index.insert(key + cycle, cycle)
                model[key + cycle] = cycle
        for key, value in model.items():
            assert index.get(key) == value


class TestNegativeAndExtremeKeys(_Structures):
    def test_negative_keys(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        for key in (-5, -100, 0, 3, -7):
            index.insert(key, key)
        assert index.get(-100) == -100
        assert index.range_query(-1000, 0) == [(-100, -100), (-7, -7), (-5, -5), (0, 0)]

    def test_huge_keys(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        keys = [2**60, 2**61, 2**60 + 5]
        for key in keys:
            index.insert(key, "big")
        for key in keys:
            assert index.get(key) == "big"

    def test_sparse_domain_interpolation(self):
        """Extremely skewed key gaps must not break interpolation search."""
        index = self.index(SWAREConfig(buffer_capacity=64, page_size=8))
        keys = [2**i for i in range(50)]
        for key in keys:
            index.insert(key, key)
        for key in keys:
            assert index.get(key) == key
        assert index.get(3) is None


class TestStatsConsistency(_Structures):
    def test_every_entry_routed_exactly_once(self):
        import random

        index = self.index(SWAREConfig(buffer_capacity=32, page_size=8))
        rng = random.Random(5)
        keys = list(range(1000))
        rng.shuffle(keys)
        for key in keys:
            index.insert(key, key)
        index.flush_all()
        stats = index.stats
        assert (
            stats.bulk_loaded_entries
            + stats.top_inserted_entries
            + stats.tombstones_dropped
            == 1000
        )

    def test_flush_counts(self):
        index = self.index(SWAREConfig(buffer_capacity=16, page_size=4))
        for key in range(64):
            index.insert(key, key)
        assert index.stats.flushes == (
            index.stats.flushes_with_sort + index.stats.flushes_without_sort
        )
        assert index.stats.flushes >= 3


class TestTinyGeometriesWide(TestTinyGeometries):
    domain = WIDE


class TestTombstoneOnlyStatesWide(TestTombstoneOnlyStates):
    domain = WIDE


class TestMonotoneEdgeCasesWide(TestMonotoneEdgeCases):
    domain = WIDE


class TestNegativeAndExtremeKeysWide(TestNegativeAndExtremeKeys):
    domain = WIDE


class TestStatsConsistencyWide(TestStatsConsistency):
    domain = WIDE
