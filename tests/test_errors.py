"""Rejected arguments raise typed errors.

A constructor that rejects its arguments raises ``ConfigError``, and a
write of a key outside int64, logged or not, raises ``KeyRangeError``
before it changes anything, while a read of one still answers. Both are a
``ReproError`` (one ``except`` catches everything the library raises) and
a ``ValueError`` (callers that caught the bare error still do).
"""

import pytest

from repro.btree.btree import BPlusTree
from repro.core.concurrent import ConcurrentSortednessAwareIndex
from repro.core.sware import SortednessAwareIndex
from repro.core.zonemap import PageZonemaps
from repro.errors import ConfigError, KeyRangeError, ReproError
from repro.filters.bloom import BloomFilter
from repro.obs.tracer import Tracer
from repro.storage.bufferpool import BufferPool
from repro.storage.costmodel import Meter
from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex
from repro.storage.pagefile import PageFile
from repro.storage.wal import WriteAheadLog

REJECTED = {
    "BufferPool(capacity=-1)": lambda tmp_path: BufferPool(capacity=-1),
    "Tracer(capacity=0)": lambda tmp_path: Tracer(capacity=0),
    "BloomFilter(capacity=0)": lambda tmp_path: BloomFilter(0),
    "BloomFilter(bits_per_entry=0)": lambda tmp_path: BloomFilter(8, bits_per_entry=0),
    "PageFile(slot_size=16)": lambda tmp_path: PageFile(str(tmp_path / "p.db"), slot_size=16),
    "PageZonemaps(page_size=0)": lambda tmp_path: PageZonemaps(0),
}


@pytest.mark.parametrize("construct", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_arguments_raise_config_error(tmp_path, construct):
    with pytest.raises(ConfigError) as caught:
        construct(tmp_path)
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)


def _embedded(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "index.wal"), fsync_policy="never")
    index = SortednessAwareIndex(BPlusTree(), wal=wal)
    return index, index.insert, [wal]


def _sharded(tmp_path):
    index = ShardedSortednessAwareIndex(
        str(tmp_path / "root"), ShardedConfig(n_shards=2, fsync_policy="never")
    )
    return index, index.put, [shard.wal for shard in index._shards]


OUTSIDE = pytest.mark.parametrize("key", [1 << 63, -(1 << 63) - 1], ids=["above", "below"])


@OUTSIDE
@pytest.mark.parametrize("write", ["put", "put_many", "delete"])
@pytest.mark.parametrize("build", [_embedded, _sharded], ids=["embedded", "sharded"])
def test_logged_write_refuses_a_key_outside_int64(tmp_path, build, write, key):
    # A logged write refuses a key outside int64 with one typed error,
    # logging and applying nothing.
    index, put, wals = build(tmp_path)
    put(7, "seven")
    records, items = [wal.records for wal in wals], index.items()
    attempt = {
        "put": lambda: put(key, "x"),
        "put_many": lambda: index.put_many([(8, "eight"), (key, "x")]),
        "delete": lambda: index.delete(key),
    }[write]
    with pytest.raises(KeyRangeError) as caught:
        attempt()
    assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)
    assert [wal.records for wal in wals] == records
    assert index.items() == items
    for wal in wals:
        wal.close()


UNLOGGED = {
    "bare": BPlusTree,
    "metered": lambda: BPlusTree(meter=Meter()),
    "sware": lambda: SortednessAwareIndex(BPlusTree()),
    "concurrent": lambda: ConcurrentSortednessAwareIndex(BPlusTree()),
}


@OUTSIDE
@pytest.mark.parametrize("build", list(UNLOGGED))
def test_unlogged_write_refuses_a_key_outside_int64(build, key):
    # Without a WAL too, every write verb refuses a key outside int64 and
    # changes nothing: rows, watermarks, counters, charges, stats, buffer.
    # Reads of it answer like any other.
    index = UNLOGGED[build]()
    index.insert(7, "seven")
    bare = isinstance(index, BPlusTree)
    tree = index if bare else index.backend

    def state():
        rows = list(tree.iter_items()), tree.min_key, tree.max_key, tree.top_inserts
        if bare:
            return (*rows, dict(getattr(tree.meter, "counts", {})))
        return (*rows, index.stats.snapshot(), index.buffer.all_entries())

    before = state()
    batch = sorted([(8, "eight"), (key, "x")])
    writes = [lambda: index.insert(key, "x"), lambda: index.delete(key)]
    if bare:
        writes += [lambda: index.insert_many(batch), lambda: index.bulk_load_append(batch),
                   lambda: index.insert_sorted(*map(list, zip(*batch)))]
    else:
        writes.append(lambda: index.put_many(batch))
    for write in writes:
        with pytest.raises(KeyRangeError):
            write()
        assert state() == before
    assert index.get(key) is None
    assert index.range_query(-(1 << 70), 1 << 70) == [(7, "seven")]
