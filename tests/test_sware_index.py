"""Tests for the SortednessAwareIndex wrapper (SA B+-tree / SA Bε-tree)."""

from contextlib import nullcontext

import pytest

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.core import buffer as buffer_module
from repro.core.config import SWAREConfig
from repro.core.factory import make_baseline_btree, make_sa_btree
from repro.core.sware import SortednessAwareIndex
from repro.core.zonemap import PageZonemaps
from repro.filters.bloom import BloomFilter
from repro.storage.costmodel import NULL_METER, CostModel, Meter, _NullMeter
from repro.storage.pagefile import CheckpointStore
from tests.key_domains import key_domains


def sa_btree(capacity=64, page_size=8, meter=None, **overrides):
    return make_sa_btree(
        SWAREConfig(buffer_capacity=capacity, page_size=page_size, **overrides),
        leaf_capacity=8,
        internal_capacity=8,
        meter=meter,
    )


class TestBasics:
    def test_insert_get_through_buffer(self):
        index = sa_btree()
        index.insert(5, "five")
        assert index.get(5) == "five"
        # Still buffered, not yet in the tree.
        assert index.backend.get(5) is None

    def test_none_value_rejected(self):
        index = sa_btree()
        with pytest.raises(ValueError):
            index.insert(1, None)

    def test_contains(self):
        index = sa_btree()
        index.insert(5, "x")
        assert 5 in index
        assert 6 not in index

    def test_flush_all_moves_everything_to_tree(self):
        index = sa_btree()
        for key in (5, 1, 9):
            index.insert(key, key)
        index.flush_all()
        assert len(index.buffer) == 0
        assert sorted(dict(index.backend.iter_items())) == [1, 5, 9]

    def test_flush_all_idempotent_on_empty(self):
        index = sa_btree()
        index.flush_all()
        index.flush_all()
        assert index.get(1) is None


class TestFlushRouting:
    def test_sorted_ingest_is_all_bulk_loads(self):
        index = sa_btree(capacity=32)
        for key in range(200):
            index.insert(key, key)
        index.flush_all()
        assert index.stats.top_inserted_entries == 0
        assert index.stats.bulk_loaded_entries == 200

    def test_overlapping_entries_are_top_inserted(self):
        index = sa_btree(capacity=16)
        for key in range(100, 200):
            index.insert(key, key)
        index.flush_all()
        bulk_before = index.stats.bulk_loaded_entries
        index.insert(50, 50)  # below the tree's max -> must be a top-insert
        index.flush_all()
        assert index.stats.top_inserted_entries == 1
        assert index.stats.bulk_loaded_entries == bulk_before
        assert index.get(50) == 50

    def test_flush_dedups_versions(self):
        index = sa_btree(capacity=16)
        index.insert(5, "a")
        index.insert(1, "start-tail")
        index.insert(5, "b")
        index.flush_all()
        # Only the newest version of key 5 reached the tree.
        assert index.backend.get(5) == "b"
        assert index.stats.ingested_entries == 2

    def test_automatic_flush_on_full(self):
        index = sa_btree(capacity=16)
        for key in range(16):
            index.insert(key, key)
        assert index.stats.flushes == 1
        assert len(index.buffer) < 16


class TestDeletes:

    def test_delete_tree_key_within_buffer_range(self):
        index = sa_btree(capacity=16)
        for key in range(16):
            index.insert(key, key)  # flushed
        index.insert(0, 0)  # repopulate buffer so it has a range
        index.insert(15, 15)
        index.delete(7)  # 7 is in the tree; within buffer range -> tombstone
        assert index.stats.tombstones_buffered == 1
        assert index.get(7) is None
        index.flush_all()
        assert index.get(7) is None
        assert index.backend.get(7) is None

    def test_delete_outside_buffer_range_goes_to_tree(self):
        index = sa_btree(capacity=16)
        for key in range(16):
            index.insert(key, key)
        index.insert(100, 100)
        index.insert(101, 101)
        index.delete(3)  # outside buffer range [100, 101] -> direct tree delete
        assert index.stats.tombstones_buffered == 0
        assert index.get(3) is None

    def test_tombstone_beyond_tree_max_dropped_at_flush(self):
        index = sa_btree()
        index.insert(10, "x")
        index.delete(10)  # tombstone for a buffer-only key
        index.flush_all()
        assert index.stats.tombstones_dropped >= 1
        assert index.backend.get(10) is None


class TestRangeQueries:

    def test_tombstone_hides_tree_entry_in_range(self):
        index = sa_btree(capacity=16)
        for key in range(16):
            index.insert(key, key)
        index.insert(0, 0)
        index.insert(15, 15)
        index.delete(7)
        assert 7 not in dict(index.range_query(0, 15))

    def test_empty_range(self):
        index = sa_btree()
        index.insert(5, 5)
        assert index.range_query(100, 200) == []


class TestQueryDrivenSortingIntegration:
    """The §IV-C trigger is the metered index's: no answer depends on a
    query-sorted block, so an unmetered read fires none."""

    def test_reads_trigger_query_sorting(self):
        for meter, sorts in ((Meter(), 1), (None, 0)):
            index = sa_btree(capacity=64, page_size=8, meter=meter, query_sorting_threshold=0.10)
            index.insert(50, 50)
            for key in range(20):  # out-of-order tail
                index.insert(key, key)
            assert index.get(3) == 3
            assert index.stats.query_sorts == sorts
            assert index.get(3) == 3
            assert index.describe()["buffer"]["blocks"] == [20] * sorts

    def test_range_queries_also_trigger(self):
        index = sa_btree(capacity=64, page_size=8, meter=Meter(), query_sorting_threshold=0.10)
        index.insert(50, 50)
        for key in range(20):
            index.insert(key, key)
        index.range_query(0, 5)
        assert index.stats.query_sorts >= 1


class TestReadCounters:
    """A GET counts what the buffer made of it, and a key outside the tree's
    watermarks once more; ``lookups`` and ``tree_searches`` are sums."""

    #: key -> (answer, the counters it moves); the tree holds 100..199, the
    #: buffer main 300..309 with 305 tombstoned and a tail key 150, so its
    #: Zonemap is [150, 309].
    OUTCOMES = {
        120: (120, {"buffer_skips_by_zonemap"}),  # a Zonemap skip to the tree
        50: (None, {"buffer_skips_by_zonemap", "watermark_misses"}),
        150: ("tail", {"buffer_hits"}),
        303: (303, {"buffer_hits"}),  # in main
        305: (None, {"buffer_tombstone_hits"}),
        160: (160, {"buffer_misses"}),  # a probe miss to the tree
        250: (None, {"buffer_misses", "watermark_misses"}),
    }

    #: the stored read-path counters (a metered probe moves the filter walk's too)
    COUNTERS = ("buffer_hits", "buffer_tombstone_hits", "buffer_skips_by_zonemap",
                "buffer_misses", "watermark_misses")

    def _index(self, metered):
        index = sa_btree(meter=Meter() if metered else None, query_sorting_threshold=1.0)
        index.put_many([(key, key) for key in range(100, 200)])
        index.flush_all()
        index.put_many([(key, key) for key in range(300, 310)])
        index.insert(150, "tail")
        index.delete(305)
        return index

    @pytest.mark.parametrize("metered", [False, True], ids=["unmetered", "metered"])
    def test_each_get_moves_its_counters_once(self, metered):
        index = self._index(metered)
        for key, (answer, counters) in self.OUTCOMES.items():
            before = index.stats.snapshot()
            assert index.get(key) == answer
            after = index.stats.snapshot()
            assert {name: after[name] - before[name] for name in self.COUNTERS} == {
                name: int(name in counters) for name in self.COUNTERS}, key

    @pytest.mark.parametrize("batch", [False, True], ids=["get", "get_many"])
    @pytest.mark.parametrize("metered", [False, True], ids=["unmetered", "metered"])
    def test_sums_match_a_hand_count(self, metered, batch):
        index = self._index(metered)
        keys = list(self.OUTCOMES)
        answers = index.get_many(keys) if batch else [index.get(key) for key in keys]
        assert answers == [answer for answer, _counters in self.OUTCOMES.values()]
        counted = [name for _answer, counters in self.OUTCOMES.values() for name in counters]
        stats = index.stats.snapshot()
        for name in self.COUNTERS:
            assert stats[name] == counted.count(name), name
        # 120 and 160 reached the tree; all seven were lookups.
        assert (stats["lookups"], stats["tree_searches"]) == (7, 2)
        assert (index.stats.lookups, index.stats.tree_searches) == (7, 2)
        assert stats["buffer_skips_by_zonemap"] == 2


class TestDescribe:
    def test_describe_shape(self):
        index = sa_btree()
        index.insert(1, 1)
        snapshot = index.describe()
        assert "buffer" in snapshot and "stats" in snapshot
        assert 0 < snapshot["buffer_fill"] <= 1.0


class TestCostAccounting:
    def test_sorted_ingest_cheaper_than_baseline(self):
        model = CostModel()
        meter_sa, meter_base = Meter(), Meter()
        sa = make_sa_btree(
            SWAREConfig(buffer_capacity=128, page_size=16), meter=meter_sa
        )
        base = make_baseline_btree(meter=meter_base)
        for key in range(5000):
            sa.insert(key, key)
            base.insert(key, key)
        assert meter_sa.nanos(model) < meter_base.nanos(model) / 3

    def test_buckets_populated(self):
        meter = Meter()
        sa = make_sa_btree(SWAREConfig(buffer_capacity=64, page_size=8), meter=meter)
        for key in range(200):
            sa.insert(key, key)
        sa.get(50)
        buckets = meter.bucket_nanos(CostModel())
        assert "bulk_load" in buckets
        assert "buffer_search" in buckets

    def test_unmetered_get_enters_no_bucket(self, monkeypatch):
        index = sa_btree(capacity=16, query_sorting_threshold=1.0)
        for key in range(16):
            index.insert(key, key)
        index.flush_all()
        for key, value in ((8, "eight"), (20, "buffered"), (30, "doomed")):
            index.insert(key, value)
        index.delete(30)
        calls = []
        # Patched on the class: an instance patch would leave the bound method
        # behind on NULL_METER at undo, shadowing later class patches.
        monkeypatch.setattr(
            _NullMeter, "bucket", lambda _self, name: calls.append(name) or nullcontext()
        )
        assert index.get(100) is None  # outside the buffer Zonemap, past the tree
        assert index.get(5) == 5  # outside the buffer Zonemap, in the tree
        assert index.get(20) == "buffered"
        assert index.get(30) is None  # tombstoned
        assert index.get(12) == 12  # inside the buffer Zonemap, in the tree
        assert calls == []
        stats = index.stats
        assert (stats.buffer_skips_by_zonemap, stats.buffer_hits) == (2, 1)
        assert (stats.buffer_tombstone_hits, stats.tree_searches) == (1, 2)
        index.range_query(0, 1)  # no read enters one: the index bills nothing
        assert calls == []

    def test_unmetered_index_makes_no_meter_call(self, monkeypatch):
        # The tree bills a meter of its own, so only the index layer could
        # reach the null meter: every verb and flush must not.
        def refuse(*args):
            raise AssertionError("the unmetered index called the null meter")

        monkeypatch.setattr(_NullMeter, "charge", refuse)
        monkeypatch.setattr(_NullMeter, "bucket", refuse)
        tree_meter = Meter()
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=8, internal_capacity=8), meter=tree_meter)
        config = SWAREConfig(buffer_capacity=16, page_size=4, query_sorting_threshold=0.25)
        index = SortednessAwareIndex(tree, config)
        assert type(index) is SortednessAwareIndex and index.meter is NULL_METER
        model = {}
        probes = [*range(-2, 50), 1000]

        def check():
            expected = [model.get(key) for key in probes]
            assert [index.get(key) for key in probes] == expected
            assert index.get_many(probes) == expected
            assert index.range_query(-5, 1005) == sorted(model.items())

        index.put_many([(key, key) for key in range(40)])  # flush cycles
        model.update((key, key) for key in range(40))
        assert index.stats.flushes >= 2
        for key, value in ((45, "a"), (41, "b"), (44, "c"), (42, "d"), (41, "e")):
            index.insert(key, value)  # an unsorted tail, past the trigger
            model[key] = value
        index.delete(44)  # a buffered tombstone
        index.delete(3)  # outside the buffer's range: a direct tree delete
        del model[44], model[3]
        check()
        stats = index.stats
        assert stats.query_sorts == 0  # the trigger is the metered index's
        assert stats.buffer_skips_by_zonemap and stats.buffer_hits
        assert stats.buffer_tombstone_hits and stats.tree_searches
        assert stats.lookups > stats.buffer_hits + stats.buffer_tombstone_hits + stats.tree_searches
        index.flush_all()
        check()
        assert index.buffer.is_empty and tree_meter.counts["node_access"]

    def test_unmetered_tree_makes_no_meter_call(self, monkeypatch, tmp_path):
        # One layer down: the executed B+-tree, under SWARE and bare, charges
        # nothing through inserts, a flush's top-inserts, splits, batch
        # inserts, reads, deletes, bulk loads and a checkpoint round trip.
        def refuse(*args):
            raise AssertionError("the unmetered tree called the null meter")

        monkeypatch.setattr(_NullMeter, "charge", refuse)
        monkeypatch.setattr(_NullMeter, "bucket", refuse)
        sa = make_sa_btree(
            SWAREConfig(buffer_capacity=16, page_size=4), leaf_capacity=4, internal_capacity=4
        )
        base = BPlusTree(BPlusTreeConfig(leaf_capacity=4, internal_capacity=4))
        assert type(sa.backend) is BPlusTree and type(base) is BPlusTree
        model = {}
        for key in [*range(0, 80, 2), *range(79, 0, -2)]:  # bulk loads, then top-inserts
            sa.insert(key, key)
            base.insert(key, key)
            model[key] = key
        base.insert_many([(key, -key) for key in range(-30, 50)])  # top-inserts
        base.insert_many([(key, key) for key in range(200, 230)])  # a bulk load
        for key in (4, 31, 500):
            sa.delete(key)
            base.delete(key)
            model.pop(key, None)
        sa.flush_all()
        tree = sa.backend
        assert tree.leaf_splits and tree.top_inserts and tree.bulk_loaded_entries
        assert base.leaf_splits and base.internal_splits
        probes = [*range(-1, 82), 215, 1000]
        expected = [model.get(key) for key in probes]
        assert [sa.get(key) for key in probes] == expected
        assert sa.get_many(probes) == expected
        assert sa.range_query(-5, 100) == sorted(model.items())
        base_model = {**model, **{key: -key for key in range(-30, 50)}}
        base_model.update((key, key) for key in range(200, 230))
        for key in (4, 31):
            del base_model[key]
        expected = [base_model.get(key) for key in probes]
        assert [base.get(key) for key in probes] == base.get_many(probes) == expected
        assert base.range_query(-30, 0) == [(key, -key) for key in range(-30, 1)]
        store = CheckpointStore(str(tmp_path / "tree.db"))
        store.save_index(sa)
        restored = store.load_index()
        assert type(restored.backend) is BPlusTree
        assert restored.range_query(-5, 100) == sorted(model.items())

    @key_domains
    def test_unmetered_lookup_runs_no_interpolation(self, domain, monkeypatch):
        # Lookups that reach the main section and, under a meter, two
        # query-sorted blocks (one a constant run): hits, misses, tombstones
        # and a key updated inside a block. Results come from bisect; only a
        # meter runs §IV-B's interpolation search, to bill it.
        shift = domain.shift
        ops = [("put", key, key) for key in range(100, 140)] + [("flush",)]
        ops += [("put", key, key) for key in range(0, 32, 2)]  # the main section
        ops += [("put", 10, "a"), ("delete", 6), ("put", 3, "b"), ("put", 10, "c")]
        ops += [("put", 40, "d"), ("sort",), ("put", 7, "e"), ("put", 7, "f"), ("sort",)]
        ops += [("put", 5, "g")]  # the tail

        def build(meter=None):
            index = sa_btree(meter=meter, query_sorting_threshold=1.0)
            model = {}
            for op, *args in ops:
                if op == "put":
                    index.insert(args[0] + shift, args[1])
                    model[args[0] + shift] = args[1]
                elif op == "delete":
                    index.delete(args[0] + shift)
                    model.pop(args[0] + shift, None)
                elif op == "flush":
                    index.flush_all()
                elif meter is not None:  # only the metered buffer has blocks
                    index.buffer.query_sort()
            assert index.buffer._main.keys and (meter is None or index.buffer.n_blocks == 2)
            return index, model

        probes = [key + shift for key in (*range(-2, 45), 120, 150)]
        meter = Meter()
        index, model = build(meter)
        expected = [model.get(key) for key in probes]
        assert [index.get(key) for key in probes] == expected
        assert index.get_many(probes) == expected
        assert meter.counts["interp_step"] == 306  # what interpolation search takes

        def refuse(*args):
            raise AssertionError("interpolation search ran without a meter")

        monkeypatch.setattr(buffer_module, "interpolation_probe", refuse)
        index, _ = build()
        assert [index.get(key) for key in probes] == expected
        assert index.get_many(probes) == expected

    @key_domains
    def test_unmetered_tail_probe_touches_no_filter(self, domain, monkeypatch):
        # Tail probes answer from the buffer's slot index: hits, keys put
        # twice (the newest wins), tombstones and misses, before and after a
        # flush. Only a meter walks §IV-A's filters.
        def refuse(*args):
            raise AssertionError("an unmetered tail probe consulted a filter")

        monkeypatch.setattr(BloomFilter, "may_contain_base", refuse)
        monkeypatch.setattr(PageZonemaps, "page_may_contain", refuse)
        shift = domain.shift
        index = sa_btree(query_sorting_threshold=1.0)
        model = {}

        def apply(*ops):
            for key, value in ops:
                key += shift
                if value is None:
                    index.delete(key)
                    model.pop(key, None)
                else:
                    index.insert(key, value)
                    model[key] = value

        def check():
            assert index.buffer._tail_keys
            probes = [key + shift for key in range(-2, 50)]
            expected = [model.get(key) for key in probes]
            assert [index.get(key) for key in probes] == expected
            assert index.get_many(probes) == expected

        apply(*((key, key) for key in range(10, 20)))  # the main section
        apply((5, "a"), (30, "b"), (7, "c"), (30, "d"), (7, None), (12, "e"), (7, "f"))
        check()
        apply((8, "g"), (30, "h"), (12, None), (8, "i"))
        check()
        index.flush_all()
        apply(*((key, key) for key in range(40, 45)))
        apply((35, "j"), (41, "k"), (43, None), (35, "l"), (36, "m"))
        check()
        assert type(index.buffer) is buffer_module.SWAREBuffer  # no filter to consult
