"""The tail's Bloom filters and page Zonemaps are built lazily, by level.

Only the metered buffer holds them and walks them (§IV-A, billed; the answer
comes from the slot index). ``MeteredSWAREBuffer.add`` / ``add_many`` only
append; at the first probe after an append ``_sync_tail_index`` brings the page
Zonemaps and the global filter up to date, and ``_sync_page_filter`` catches
a page filter up when a probe consults that page. That nobody can tell
(results, stats, charges and the synced filters equal an eagerly indexed
twin) is the oracle's ``Sware`` check (``tests/test_oracle.py``). This file
pins the deferral itself, and that a fully synced index equals one built a
``BloomFilter.add`` per key, in both key domains (``tests/key_domains.py``).
"""

import copy

from repro.core.buffer import MeteredSWAREBuffer
from repro.core.config import SWAREConfig
from repro.core.zonemap import PageZonemaps
from repro.filters.bloom import BloomFilter
from repro.storage.costmodel import Meter
from tests.key_domains import key_domains

CAPACITY = 48
PAGE = 4


def _sync_every_level(buffer):
    buffer._sync_tail_index()
    page_size = buffer.config.page_size
    for page in range(len(buffer._page_bfs)):
        buffer._sync_page_filter(page, min((page + 1) * page_size, buffer.tail_size))


def _per_key_index(buffer):
    """Filter and Zonemap state built one ``BloomFilter.add`` per key of the
    open tail segment."""
    cfg = buffer.config
    global_bf = BloomFilter(cfg.buffer_capacity, cfg.bits_per_entry)
    page_bfs = []
    zones = PageZonemaps(cfg.page_size)
    for position, key in enumerate(buffer._tail_keys[buffer._open :]):
        global_bf.add(key)
        if position % cfg.page_size == 0:
            page_bfs.append(BloomFilter(cfg.page_size, cfg.bits_per_entry, rotation=17))
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
    assert [(z.min_key, z.max_key) for z in buffer.page_zonemaps._zones] == [
        (z.min_key, z.max_key) for z in zones._zones
    ]


@key_domains
def test_appends_leave_the_index_alone_until_a_probe(domain):
    """The deferral itself: no filter work before the first metered tail
    probe, and such a probe indexes everything appended so far through
    either sync path."""
    config = SWAREConfig(buffer_capacity=CAPACITY, page_size=PAGE)
    buffer = domain.wrap(MeteredSWAREBuffer(config, meter=Meter()))
    buffer.add(100, "a")
    buffer.add(5, "b")  # out of order: starts the tail
    buffer.add_many([(key, key) for key in range(40, 10, -1)])
    assert buffer.tail_size == 31
    assert buffer.global_bf.n_added == 0
    assert buffer._page_bfs == [] and len(buffer.page_zonemaps._zones) == 0

    # A probe the global filter turns away syncs that filter and the
    # page Zonemaps (kernel path: 31 keys at once) — and no page filter.
    assert buffer.lookup(55) == (0, None)
    assert buffer.stats.global_bf_negatives == 1
    assert buffer.global_bf.n_added == 31
    assert len(buffer._page_bfs) == len(buffer.page_zonemaps._zones) == 8
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
