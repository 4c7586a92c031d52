"""The tail's Bloom filters and page Zonemaps are built lazily, by level.

``SWAREBuffer.add`` / ``add_many`` only append; at the first probe after an
append ``_sync_tail_index`` brings the page Zonemaps and the global filter up
to date, and ``_sync_page_filter`` catches a page filter up when a probe
consults that page. The contract is that nobody can tell: fully synced, the
filter state is bit-for-bit what per-append upkeep builds, and every lookup
result, ``SWAREStats`` counter and meter charge matches a buffer that syncs
every level after every append. Both hashing paths (the scalar loop below the
internal crossover, the batch kernels above it) are driven in both key
domains (``tests/key_domains.py``): int64 keys, and a mix with keys beyond
int64 that the batch kernels hash one by one.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import SWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.zonemap import PageZonemaps
from repro.filters.bloom import BloomFilter
from repro.storage.costmodel import Meter
from tests.key_domains import key_domains

CAPACITY = 48
PAGE = 4

FLAGS = list(itertools.product((True, False), repeat=3))

PROBE_COUNTERS = (
    "global_bf_negatives",
    "page_bf_negatives",
    "global_bf_false_positives",
    "page_bf_false_positives",
    "zonemap_page_skips",
    "unsorted_pages_scanned",
    "buffer_skips_by_zonemap",
    "query_sorts",
    "sorted_entries",
    "flushes",
)

def _ops_st(keys_st):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), keys_st),
            st.tuples(st.just("tombstone"), keys_st),
            st.tuples(st.just("add_many"), st.lists(keys_st, min_size=1, max_size=30)),
            st.tuples(st.just("lookup"), keys_st),
            st.tuples(st.just("range"), keys_st, st.integers(min_value=0, max_value=40)),
            st.tuples(st.just("query_sort")),
            st.tuples(st.just("flush")),
        ),
        max_size=60,
    )


def _sync_every_level(buffer):
    buffer._sync_tail_index()
    page_size = buffer.config.page_size
    for page in range(len(buffer._page_bfs)):
        buffer._sync_page_filter(page, min((page + 1) * page_size, buffer.tail_size))


class _EagerBuffer(SWAREBuffer):
    """The reference: indexes every append, at every level, before returning."""

    def add(self, key, value, tombstone=False):
        super().add(key, value, tombstone)
        _sync_every_level(self)

    def add_many(self, pairs):
        super().add_many(pairs)
        _sync_every_level(self)


def _per_key_index(buffer):
    """Filter and Zonemap state built one ``BloomFilter.add`` per tail key."""
    cfg = buffer.config
    global_bf = BloomFilter(cfg.buffer_capacity, cfg.bits_per_entry, cfg.hash_family)
    page_bfs = []
    zones = PageZonemaps(cfg.page_size)
    for position, key in enumerate(buffer._tail_keys):
        global_bf.add(key)
        if position % cfg.page_size == 0:
            page_bfs.append(
                BloomFilter(cfg.page_size, cfg.bits_per_entry, cfg.hash_family, rotation=17)
            )
        page_bfs[-1].add(key)
        zones.observe(position, key)
    return global_bf, page_bfs, zones


def _filter_state(bf):
    return bytes(bf._bits), bf.n_added


def _assert_index_matches_per_key_build(buffer):
    """Sync a *copy* — the buffer under test must reach its own first probe
    unsynced — and compare it with the per-key build."""
    buffer = copy.deepcopy(buffer)
    _sync_every_level(buffer)
    global_bf, page_bfs, zones = _per_key_index(buffer)
    cfg = buffer.config
    if cfg.enable_global_bf:
        assert _filter_state(buffer.global_bf) == _filter_state(global_bf)
    else:
        assert buffer.global_bf is None
    if cfg.enable_page_bf:
        assert [_filter_state(bf) for bf in buffer._page_bfs] == [
            _filter_state(bf) for bf in page_bfs
        ]
    else:
        assert buffer._page_bfs == []
    assert [z.as_tuple() for z in buffer.page_zonemaps._zones] == [
        z.as_tuple() for z in zones._zones
    ]


def _apply(buffer, op, value):
    """Run one op the way the index wrapper would; returns what a caller sees."""
    kind = op[0]
    if kind in ("add", "tombstone"):
        if buffer.is_full:
            buffer.prepare_flush()
        if kind == "add":
            buffer.add(op[1], value)
        else:
            buffer.add(op[1], None, tombstone=True)
        return None
    if kind == "add_many":
        pairs = [(key, value + i) for i, key in enumerate(op[1])]
        while pairs:
            if buffer.is_full:
                buffer.prepare_flush()
            space = buffer.capacity - len(buffer)
            buffer.add_many(pairs[:space])
            pairs = pairs[space:]
        return None
    if kind == "lookup":
        return buffer.lookup(op[1])
    if kind == "range":
        return buffer.range_run(op[1], op[1] + op[2])
    if kind == "query_sort":
        return buffer.query_sort()
    batch = buffer.prepare_flush()
    return batch.entries, batch.sorted_without_effort, batch.sort_algorithm


@pytest.mark.parametrize("global_bf,page_bf,read_zonemaps", FLAGS)
@pytest.mark.parametrize("family", ["splitmix64", "murmur3"])
@key_domains
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_deferred_index_is_unobservable(
    domain, family, global_bf, page_bf, read_zonemaps, data
):
    ops = data.draw(_ops_st(domain.keys(st.integers(min_value=0, max_value=120))))
    config = SWAREConfig(
        buffer_capacity=CAPACITY,
        page_size=PAGE,
        hash_family=family,
        enable_global_bf=global_bf,
        enable_page_bf=page_bf,
        enable_read_zonemaps=read_zonemaps,
    )
    lazy = SWAREBuffer(config, meter=Meter())
    eager = _EagerBuffer(config, meter=Meter())
    for step, op in enumerate(ops):
        value = 1000 * (step + 1)
        assert _apply(lazy, op, value) == _apply(eager, op, value)
        assert lazy.all_entries() == eager.all_entries()
        for name in PROBE_COUNTERS:
            assert getattr(lazy.stats, name) == getattr(eager.stats, name), name
        assert lazy.meter.snapshot() == eager.meter.snapshot()
        _assert_index_matches_per_key_build(lazy)
        _assert_index_matches_per_key_build(eager)


@key_domains
def test_appends_leave_the_index_alone_until_a_probe(domain):
    """The deferral itself: no filter work before the first tail probe, and a
    probe indexes everything appended so far through either sync path."""
    buffer = domain.wrap(SWAREBuffer(SWAREConfig(buffer_capacity=CAPACITY, page_size=PAGE)))
    buffer.add(100, "a")
    buffer.add(5, "b")  # out of order: starts the tail
    buffer.add_many([(key, key) for key in range(40, 10, -1)])
    assert buffer.tail_size == 31
    assert buffer.global_bf.n_added == 0
    assert buffer._page_bfs == [] and buffer.page_zonemaps.n_pages == 0

    # A probe the global filter turns away syncs that filter and the
    # page Zonemaps (kernel path: 31 keys at once) — and no page filter.
    assert buffer.lookup(55) == (0, None)
    assert buffer.stats.global_bf_negatives == 1
    assert buffer.global_bf.n_added == 31
    assert len(buffer._page_bfs) == buffer.page_zonemaps.n_pages == 8
    assert [bf.n_added for bf in buffer._page_bfs] == [0] * 8

    # A hit catches up the pages it consults, newest first, and only those.
    assert buffer.lookup(20) == (1, 20)
    added = [bf.n_added for bf in buffer._page_bfs]
    assert added[5] == PAGE and sum(added) < 31

    buffer.add(7, "c")
    assert buffer.global_bf.n_added == 31
    assert buffer.lookup(7) == (1, "c")  # scalar path: one key
    assert buffer.global_bf.n_added == 32
    _assert_index_matches_per_key_build(buffer)

    buffer.query_sort()
    buffer.add(3, "d")
    assert buffer.lookup(3) == (1, "d")
    assert buffer.global_bf.n_added == 1
    _assert_index_matches_per_key_build(buffer)
