"""Unit tests for the SWARE-buffer internals.

Every test runs on the keys it is written with and again, in the ``*Wide``
classes at the end, shifted past 2**53 (see ``tests/key_domains.py``).
"""

import dataclasses
import random

import pytest

from repro import kernels
from repro.core import buffer as buffer_module
from repro.core.buffer import DELETED, HIT, MISS, TOMBSTONE, MeteredSWAREBuffer, SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.zonemap import PageZonemaps
from repro.errors import ConfigError, InvariantViolation
from repro.filters.bloom import BloomFilter
from repro.sortedness.metrics import RunningSortednessEstimate
from repro.storage.costmodel import Meter, _NullMeter
from tests.key_domains import INT64, WIDE


class _Buffers:
    domain = INT64

    def make_buffer(self, capacity=64, page_size=8, meter=None, **overrides):
        """The executed buffer, or the metered one when given a meter."""
        config = SWAREConfig(buffer_capacity=capacity, page_size=page_size, **overrides)
        if meter is None:
            return self.domain.wrap(SWAREBuffer(config))
        return self.domain.wrap(MeteredSWAREBuffer(config, meter=meter))


class TestConfig:
    def test_rejects_page_bigger_than_buffer(self):
        with pytest.raises(ConfigError):
            SWAREConfig(buffer_capacity=8, page_size=16)

    def test_rejects_bad_flush_fraction(self):
        with pytest.raises(ConfigError):
            SWAREConfig(flush_fraction=0.99)

    def test_with_override(self):
        config = dataclasses.replace(SWAREConfig(), flush_fraction=0.25)
        assert config.flush_fraction == 0.25
        assert config.buffer_capacity == SWAREConfig().buffer_capacity


class TestInOrderGrowth(_Buffers):
    def test_sorted_appends_extend_main(self):
        buffer = self.make_buffer()
        for key in range(20):
            buffer.add(key, key)
        assert len(buffer._main.keys) == 20
        assert not buffer._tail_keys
        buffer.check_invariants()

    def test_first_out_of_order_starts_tail(self):
        buffer = self.make_buffer()
        for key in (1, 2, 3, 0):
            buffer.add(key, key)
        assert len(buffer._main.keys) == 3
        assert len(buffer._tail_keys) == 1

    def test_later_in_order_keys_still_go_to_tail(self):
        buffer = self.make_buffer()
        for key in (1, 2, 3, 0, 10):
            buffer.add(key, key)
        assert len(buffer._main.keys) == 3
        assert len(buffer._tail_keys) == 2

    def test_duplicate_key_extends_main(self):
        buffer = self.make_buffer()
        buffer.add(5, "a")
        buffer.add(5, "b")  # equal keys are in order (non-decreasing)
        assert len(buffer._main.keys) == 2


class TestLastSortedZone(_Buffers):
    def test_fully_sorted_zone_is_page_aligned_whole(self):
        buffer = self.make_buffer(capacity=64, page_size=8)
        for key in range(24):
            buffer.add(key, key)
        assert buffer.last_sorted_zone == 24

    def test_overlapping_entry_moves_zone_left(self):
        buffer = self.make_buffer(capacity=64, page_size=8)
        for key in range(0, 32, 2):  # main: 0..30 even, 16 entries
            buffer.add(key, key)
        buffer.add(17, 17)  # overlaps the second main page (keys 16..30)
        # Flushable prefix: the 9 entries with keys <= 17, floor-aligned to
        # whole pages -> exactly the first page (8 entries).
        assert buffer.last_sorted_zone == 8
        buffer.add(3, 3)  # deep overlap: nothing is safely flushable now
        assert buffer.last_sorted_zone == 0

    def test_zone_zero_when_overlap_at_front(self):
        buffer = self.make_buffer(capacity=64, page_size=8)
        for key in range(10, 30):
            buffer.add(key, key)
        buffer.add(5, 5)  # smaller than everything in main
        assert buffer.last_sorted_zone == 0


class TestFlush(_Buffers):
    def test_fully_sorted_flush_without_sort(self):
        buffer = self.make_buffer(capacity=32, page_size=4, flush_fraction=0.5)
        for key in range(32):
            buffer.add(key, key)
        assert buffer.is_full
        batch = buffer.prepare_flush()
        assert batch.sorted_without_effort
        assert [entry[0] for entry in batch.entries] == list(range(16))
        assert len(buffer._main.keys) == 16
        assert len(buffer) == 16
        buffer.check_invariants()

    def test_flush_prefix_when_partial_overlap(self):
        buffer = self.make_buffer(capacity=32, page_size=4, flush_fraction=0.5)
        for key in range(24):
            buffer.add(key, key)
        buffer.add(10, -1)  # overlap: zone shrinks to keys <= 10 (page-aligned 8)
        for key in range(24, 31):
            buffer.add(key, key)
        assert buffer.is_full
        zone = buffer.last_sorted_zone
        assert zone == 8
        batch = buffer.prepare_flush()
        assert batch.sorted_without_effort
        assert len(batch.entries) == zone
        assert max(entry[0] for entry in batch.entries) <= 10
        buffer.check_invariants()
        # Retained entries are fully sorted again.
        assert not buffer._tail_keys

    def test_flush_sorts_when_no_prefix(self):
        buffer = self.make_buffer(capacity=16, page_size=4, flush_fraction=0.5)
        for key in range(8, 24):
            buffer.add(key, key)
        # A full flush cycle first: buffer now holds sorted retained entries.
        buffer.prepare_flush()
        # Now force total overlap.
        while not buffer.is_full:
            buffer.add(0, 0)
        batch = buffer.prepare_flush()
        assert not batch.sorted_without_effort
        keys = [entry[0] for entry in batch.entries]
        assert keys == sorted(keys)
        buffer.check_invariants()

    def test_flush_preserves_recency_of_duplicates(self):
        buffer = self.make_buffer(capacity=16, page_size=4)
        buffer.add(5, "old")
        buffer.add(3, "x")  # start the tail
        buffer.add(5, "new")
        while not buffer.is_full:
            buffer.add(2, "fill")
        batch = buffer.drain()
        fives = [entry for entry in batch.entries if entry[0] == 5]
        assert [entry[2] for entry in fives] == ["old", "new"]

    def test_drain_empties_buffer(self):
        buffer = self.make_buffer()
        for key in (5, 1, 9, 1, 7):
            buffer.add(key, key)
        batch = buffer.drain()
        assert buffer.is_empty
        keys = [entry[0] for entry in batch.entries]
        assert keys == sorted(keys)
        assert len(batch.entries) == 5

    def test_flush_resets_filters_and_zonemaps(self):
        buffer = self.make_buffer(capacity=16, page_size=4, meter=Meter())
        for key in (4, 1, 3, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10, 11):
            buffer.add(key, key)
        buffer.lookup(4)  # the first metered probe is what builds the tail's index
        assert len(buffer.page_zonemaps._zones) == 4
        if buffer.global_bf is not None:
            assert buffer.global_bf.n_added == 15
        buffer.prepare_flush()
        assert len(buffer.page_zonemaps._zones) == 0
        if buffer.global_bf is not None:
            assert buffer.global_bf.n_added == 0


class TestFullFlag(_Buffers):
    """``add`` returns whether the buffer is full: the index flushes on it."""

    @pytest.mark.parametrize("metered", [False, True], ids=["executed", "metered"])
    @pytest.mark.parametrize("last", ["main", "tail", "tombstone"])
    def test_true_exactly_on_the_filling_append(self, metered, last):
        buffer = self.make_buffer(capacity=8, page_size=4, meter=Meter() if metered else None)
        assert [buffer.add(key, key) for key in range(7)] == [False] * 7
        if last == "main":
            full = buffer.add(7, 7)
        elif last == "tail":
            full = buffer.add(3, "new")
        else:
            full = buffer.add(3, None, tombstone=True)
        assert full is True and buffer.is_full
        assert len(buffer._tail_keys) == (0 if last == "main" else 1)
        # After a flush the flag is the fill again, not a latch.
        buffer.prepare_flush()
        refill = [buffer.add(key, key) for key in range(100, 108 - len(buffer))]
        assert refill == [False] * (len(refill) - 1) + [True]


class TestLookup(_Buffers):
    def test_miss_on_empty(self):
        buffer = self.make_buffer()
        assert buffer.lookup(1) == (MISS, None)

    def test_hit_in_main(self):
        buffer = self.make_buffer()
        for key in range(10):
            buffer.add(key, key * 2)
        assert buffer.lookup(4) == (HIT, 8)

    def test_hit_in_tail(self):
        buffer = self.make_buffer()
        for key in (5, 6, 2):
            buffer.add(key, key)
        assert buffer.lookup(2) == (HIT, 2)

    def test_newest_version_wins_across_sections(self):
        buffer = self.make_buffer()
        buffer.add(5, "main")
        buffer.add(1, "tail-starter")
        buffer.add(5, "tail")
        assert buffer.lookup(5) == (HIT, "tail")

    def test_newest_version_within_tail(self):
        buffer = self.make_buffer()
        buffer.add(9, "x")
        buffer.add(5, "a")
        buffer.add(5, "b")
        assert buffer.lookup(5) == (HIT, "b")

    def test_tombstone_reported(self):
        buffer = self.make_buffer()
        buffer.add(5, "v")
        buffer.add(5, None, tombstone=True)
        state, _ = buffer.lookup(5)
        assert state == TOMBSTONE

    def test_out_of_range_key_misses_fast(self):
        """Outside the buffer's Zonemap a key misses: the executed lookup
        by its components (its callers test the Zonemap), the metered one
        at the Zonemap, billed one check and no search."""
        for meter in (None, Meter()):
            buffer = self.make_buffer(meter=meter)
            buffer.add(10, 1)
            buffer.add(20, 2)
            buffer.add(15, 3)  # a tail
            assert buffer.lookup(5) == buffer.lookup(25) == (MISS, None)
        counts = meter.snapshot()
        assert counts["zonemap_check"] == 2
        assert not {"bf_probe", "scan_entry", "interp_step"} & set(counts)


class TestQueryDrivenSorting(_Buffers):
    """§IV-C's blocks and their trigger: the metered buffer's alone."""

    def make_buffer(self, meter=None, **kwargs):
        return super().make_buffer(meter=meter or Meter(), **kwargs)

    def test_executed_buffer_closes_no_block(self):
        # The trigger and the block state leave the executed buffer:
        # ``describe()`` reports its whole tail as one segment.
        buffer = _Buffers.make_buffer(self, capacity=16, page_size=4)
        for key in (5, 1, 2, 3, 4, 0):
            buffer.add(key, key)
        assert not hasattr(buffer, "query_sort") and not hasattr(buffer, "n_blocks")
        assert buffer.component_sizes()["blocks"] == []
        assert buffer.component_sizes()["tail"] == 5

    def test_threshold_trigger(self):
        buffer = self.make_buffer(capacity=64, page_size=8, query_sorting_threshold=0.10)
        for key in range(10):
            buffer.add(key, key)
        buffer.add(0, 0)  # start tail
        assert not buffer.should_query_sort()  # tail=1 < 6
        for key in range(6):
            buffer.add(0, key)
        assert buffer.should_query_sort()

    def test_query_sort_freezes_tail_into_block(self):
        buffer = self.make_buffer(capacity=64, page_size=8)
        for key in range(10):
            buffer.add(key, key)
        for key in (3, 9, 1):
            buffer.add(key, -key)
        buffer.query_sort()
        assert buffer.tail_size == 0
        assert buffer.n_blocks == 1
        buffer.check_invariants()
        # Lookups still find the newest versions.
        assert buffer.lookup(3) == (HIT, -3)

    def test_disabled_at_threshold_one(self):
        buffer = self.make_buffer(capacity=16, page_size=4, query_sorting_threshold=1.0)
        for key in (5, 1, 2, 3, 4, 0):
            buffer.add(key, key)
        assert not buffer.should_query_sort()

    def test_blocks_searched_newest_first(self):
        buffer = self.make_buffer(capacity=128, page_size=8)
        buffer.add(50, "main")
        buffer.add(10, "b1")
        buffer.query_sort()
        buffer.add(10, "b2")
        buffer.query_sort()
        assert buffer.n_blocks == 2
        assert buffer.lookup(10) == (HIT, "b2")

    def test_query_sort_runs_no_sort_kernel(self, monkeypatch):
        """A block is a boundary: the tail moves nothing, and only the
        block's key copy is sorted, to bill searching it."""
        buffer = self.make_buffer()
        for key in (10, 11, 12, 5, 3, 9, 3):
            buffer.add(key, key * 2)
        before = buffer.all_entries()

        def refuse(*args):
            raise AssertionError("a query sort ran a sort kernel")

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "stable_argsort", refuse)
            buffer.query_sort()
        assert (buffer.n_blocks, buffer.tail_size) == (1, 0)
        assert buffer.all_entries() == before  # nothing moved
        assert buffer.lookup(3) == (HIT, 6)


class TestRangeEntries(_Buffers):
    def test_collects_across_components(self):
        buffer = self.make_buffer(capacity=128, page_size=8)
        for key in range(0, 20, 2):
            buffer.add(key, "main")
        buffer.add(5, "block")
        if hasattr(buffer, "query_sort"):  # the metered buffer's blocks
            buffer.query_sort()
        buffer.add(7, "tail")
        entries = buffer.range_entries(4, 8)
        found = {(entry[0], entry[2]) for entry in entries}
        assert found == {(4, "main"), (6, "main"), (8, "main"), (5, "block"), (7, "tail")}

    def test_sorted_by_key_and_recency(self):
        buffer = self.make_buffer()
        buffer.add(5, "v1")
        buffer.add(1, "x")
        buffer.add(5, "v2")
        entries = buffer.range_entries(0, 10)
        fives = [entry[2] for entry in entries if entry[0] == 5]
        assert fives == ["v1", "v2"]

    def test_no_overlap_returns_empty(self):
        buffer = self.make_buffer()
        buffer.add(10, 1)
        assert buffer.range_entries(20, 30) == []

    def test_tail_sort_cached_until_new_insert(self):
        """A range bills the tail sort once per tail length (the paper's
        flag); a query sort of a tail a range billed bills nothing. The
        block is a boundary: the tail keeps its arrival order."""
        buffer = self.make_buffer(meter=Meter())
        buffer.add(5, 5)
        buffer.add(1, 1)
        assert buffer.range_run(0, 10) == ({5: 5, 1: 1}, 2)
        assert buffer.stats.sorted_entries == 1
        assert buffer.range_run(0, 10) == ({5: 5, 1: 1}, 2)  # billed already
        assert buffer.stats.sorted_entries == 1
        buffer.add(0, 0)  # a longer tail clears the flag
        assert buffer.range_run(0, 10) == ({5: 5, 1: 1, 0: 0}, 3)
        assert buffer.stats.sorted_entries == 3
        buffer.query_sort()
        assert buffer.stats.sorted_entries == 3
        assert buffer.stats.stable_sorts + buffer.stats.kl_sorts == 2
        assert [entry[0] for entry in buffer.all_entries()] == [5, 1, 0]


class TestSortAlgorithmChoice(_Buffers):
    def test_near_sorted_tail_uses_kl_sort(self):
        from repro.sortedness.generator import generate_kl_keys

        buffer = self.make_buffer(capacity=512, page_size=32, meter=Meter())
        buffer.add(0, 0)
        buffer.add(-1, -1)  # open the tail immediately
        for key in generate_kl_keys(400, 0.05, 0.02, seed=1):
            buffer.add(key + 1, key)
        buffer.drain()
        assert buffer.stats.kl_sorts >= 1

    def test_scrambled_tail_uses_stable_sort(self):
        from repro.sortedness.generator import scrambled_keys

        buffer = self.make_buffer(capacity=512, page_size=32, meter=Meter())
        for key in scrambled_keys(400, seed=2):
            buffer.add(key, key)
        buffer.drain()
        assert buffer.stats.stable_sorts >= 1


class TestExecutedBuffer(_Buffers):
    """The executed buffer bills nothing and holds no cost-model state."""

    def test_answers_like_a_dict_without_a_charge(self, monkeypatch):
        """Puts, batches, tombstones, lookups (inside the Zonemap and out),
        ranges, flushes and drains against a model of what is buffered,
        with every ``NULL_METER.charge`` refused."""

        def refuse(*args):
            raise AssertionError("the executed buffer charged a meter")

        monkeypatch.setattr(_NullMeter, "charge", refuse)
        buffer = self.make_buffer(capacity=48, page_size=4, query_sorting_threshold=0.25)
        rng = random.Random(51)
        buffered = {}  # seq -> (key, value): the model
        seq = 0

        def put(key, value):
            nonlocal seq
            seq += 1
            buffered[seq] = (key, value)

        def flushed(batch):
            for key, at, value, dead in batch.entries:
                assert buffered.pop(at) == (key, DELETED if dead else value)
            order = [(key, at) for key, at, _value, _dead in batch.entries]
            assert order == sorted(order)

        def check():
            newest = {}
            for at in sorted(buffered):
                key, value = buffered[at]
                newest[key] = value
            for key in range(-2, 62):
                value = newest.get(key)
                expected = (MISS, None) if key not in newest else (
                    (TOMBSTONE, None) if value is DELETED else (HIT, value))
                assert buffer.lookup(key) == expected, key
            lo, hi = sorted(rng.randrange(-2, 62) for _ in range(2))
            in_range = [key for key, _value in buffered.values() if lo <= key <= hi]
            assert buffer.range_run(lo, hi) == (
                {key: value for key, value in newest.items() if lo <= key <= hi}, len(in_range))
            assert sorted((e[1], e[0]) for e in buffer.all_entries()) == sorted(
                (at, key) for at, (key, _value) in buffered.items())
            buffer.check_invariants()

        for step in range(600):
            roll = rng.random()
            key = step // 12 + rng.randrange(-8, 3)
            if roll < 0.5:
                buffer.add(key, step)
                put(key, step)
            elif roll < 0.6:
                buffer.add(key, None, tombstone=True)
                put(key, DELETED)
            elif roll < 0.7:
                space = buffer.capacity - len(buffer)
                n = rng.randrange(space + 1)
                pairs = [(key + rng.randrange(-3, 4), step) for _ in range(n)]
                buffer.add_many(pairs)
                for pair in pairs:
                    put(*pair)
            elif roll < 0.83:
                flushed(buffer.drain())
                assert buffer.is_empty
            else:
                check()
            if buffer.is_full:
                flushed(buffer.prepare_flush())
        check()

    def test_tail_order_catches_up_by_insort_or_re_sort(self, monkeypatch):
        """``_tail_order`` stays the sorted prefix of the tail, checked by
        ``check_invariants`` after every step of appends, batches,
        tombstones, lookups, ranges and flushes; and a range
        catches it up both ways, by insort when few keys arrived since the
        last range and by a re-sort when many did."""
        insorted = []
        insort = buffer_module.insort
        monkeypatch.setattr(buffer_module, "insort",
                            lambda order, key: insorted.append(key) or insort(order, key))
        buffer = self.make_buffer(capacity=256, page_size=8, query_sorting_threshold=0.25)
        rng = random.Random(64)
        by_insort = by_sort = 0
        for step in range(1500):
            roll = rng.random()
            key = rng.randrange(200)
            if roll < 0.45:
                buffer.add(key, step)
            elif roll < 0.5:
                buffer.add(key, None, tombstone=True)
            elif roll < 0.55:
                n = rng.randrange(min(40, buffer.capacity - len(buffer)) + 1)
                buffer.add_many([(rng.randrange(200), step) for _ in range(n)])
            elif roll < 0.65:
                buffer.lookup(key)
            elif roll < 0.9:
                lo, hi = sorted(rng.randrange(-5, 205) for _ in range(2))
                newest = {}
                for k, _seq, value, dead in sorted(buffer.all_entries(), key=lambda e: e[1]):
                    newest[k] = DELETED if dead else value
                have, calls = len(buffer._tail_order), len(insorted)
                versions, _n = buffer.range_run(lo, hi)
                assert versions == {k: v for k, v in newest.items() if lo <= k <= hi}
                if len(buffer._tail_order) > have:  # caught up
                    if len(insorted) > calls:
                        by_insort += 1
                    else:
                        by_sort += 1
            elif roll < 0.97:
                buffer.lookup(key)
            else:
                buffer.drain()
            if buffer.is_full:
                buffer.prepare_flush()
            buffer.check_invariants()
        assert by_insort and by_sort, (by_insort, by_sort)

    def test_allocates_no_filter_zonemap_or_estimate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the executed buffer built cost-model state")

        for cls in (BloomFilter, PageZonemaps, RunningSortednessEstimate):
            monkeypatch.setattr(cls, "__init__", refuse)
        buffer = self.make_buffer(capacity=16, page_size=4)
        for key in (5, 1, 4, 2, 3, 9, 0):
            buffer.add(key, key)
            assert buffer.lookup(key) == (HIT, key)
        buffer.range_run(0, 9)
        buffer.drain()
        assert not any(
            isinstance(value, (BloomFilter, PageZonemaps, RunningSortednessEstimate))
            for value in vars(getattr(buffer, "_target", buffer)).values()
        )


class TestBilledAnswerCheck(_Buffers):
    """A metered lookup refuses a billed search that misses the slot the
    executed lookup answered from: in the open segment, a block or main."""

    def make_layout(self):
        buffer = self.make_buffer(capacity=64, page_size=8, meter=Meter())
        for key in range(10, 20):
            buffer.add(key, key)  # main
        buffer.add(5, "block")
        buffer.add(4, "block")  # sorted block [4, 5] at slots [1, 0]
        buffer.query_sort()
        buffer.add(3, "open")
        assert buffer.lookup(3) == (HIT, "open")
        assert buffer.lookup(5) == (HIT, "block")
        assert buffer.lookup(12) == (HIT, 12)
        return buffer

    @pytest.mark.parametrize("key", [5, 12])
    @pytest.mark.parametrize("billed", [-1, 0], ids=["miss", "first-slot"])
    def test_wrong_interpolation_slot_raises(self, monkeypatch, key, billed):
        buffer = self.make_layout()
        monkeypatch.setattr(buffer_module, "interpolation_probe", lambda keys, _key: (billed, 1))
        with pytest.raises(InvariantViolation, match="billed search"):
            buffer.lookup(key)

    @pytest.mark.parametrize("key", [3, 12])
    def test_wrong_tail_walk_slot_raises(self, monkeypatch, key):
        buffer = self.make_layout()
        wrong = -1 if key == 3 else buffer._open  # a missed hit, a false hit
        monkeypatch.setattr(MeteredSWAREBuffer, "_search_tail", lambda self, _key: wrong)
        with pytest.raises(InvariantViolation, match="billed tail walk"):
            buffer.lookup(key)


class TestInOrderGrowthWide(TestInOrderGrowth):
    domain = WIDE


class TestLastSortedZoneWide(TestLastSortedZone):
    domain = WIDE


class TestFlushWide(TestFlush):
    domain = WIDE


class TestFullFlagWide(TestFullFlag):
    domain = WIDE


class TestLookupWide(TestLookup):
    domain = WIDE


class TestQueryDrivenSortingWide(TestQueryDrivenSorting):
    domain = WIDE


class TestRangeEntriesWide(TestRangeEntries):
    domain = WIDE


class TestSortAlgorithmChoiceWide(TestSortAlgorithmChoice):
    domain = WIDE


class TestExecutedBufferWide(TestExecutedBuffer):
    domain = WIDE


class TestBilledAnswerCheckWide(TestBilledAnswerCheck):
    domain = WIDE
