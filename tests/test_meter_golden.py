"""Simulated cost is pinned: one near-sorted and one scrambled stream.

Every simulated-cost table of the reproduction (fig10, fig13, fig17, the
ablations) is a function of what the write and read paths charge to the
:class:`Meter`. These literals were recorded on the commit *before* the
tail's filters became lazily maintained (PR 16) and must not move when an
optimisation changes *when* work is done rather than *what* the paper's
algorithm does: a diff here means a results table changed too.

Regenerate (only for a change that means to alter the cost model) by
printing ``_drive(stream)`` for the two streams below. The same literals
hold with both streams shifted to end at INT64_MAX: the charges depend on
the keys' order, not their magnitude, and kernels never charge the meter.
"""

import random

import pytest

from repro.core.config import SWAREConfig
from repro.core.factory import make_sa_btree
from repro.sortedness.generator import generate_kl_keys, scrambled_keys
from repro.storage.costmodel import Meter

N = 3000


def _drive(stream):
    """put_many the first third, then insert the rest interleaved with
    get / get_many / range_query / delete; returns (snapshot, bucket_counts)."""
    meter = Meter()
    index = make_sa_btree(
        SWAREConfig(buffer_capacity=256, page_size=16),
        leaf_capacity=16,
        internal_capacity=16,
        meter=meter,
    )
    rng = random.Random(7)
    warm = len(stream) // 3
    for start in range(0, warm, 100):
        index.put_many([(key, key + 1) for key in stream[start : min(start + 100, warm)]])
    for i in range(warm, len(stream)):
        key = stream[i]
        index.insert(key, key + 1)
        if i % 3 == 0:
            index.get(stream[rng.randrange(max(0, i - 200), i + 1)])
        if i % 7 == 0:
            index.get(stream[rng.randrange(i + 1)])
        if i % 50 == 0:
            index.get_many([stream[rng.randrange(i + 1)] for _ in range(8)])
        if i % 40 == 0:
            lo = stream[rng.randrange(i + 1)]
            index.range_query(lo, lo + 60)
        if i % 97 == 0:
            index.delete(stream[rng.randrange(i + 1)])
    buckets = {name: dict(counts) for name, counts in meter.bucket_counts.items()}
    return meter.snapshot(), buckets


NEAR_SORTED = ({'bf_add': 5998.0,
  'bf_probe': 658.0,
  'buffer_append': 3001.0,
  'bulk_entry': 2764.0,
  'entry_move': 235.0,
  'internal_split': 12.0,
  'interp_step': 5576.0,
  'merge_step': 7180.0,
  'node_access': 2073.0,
  'scan_entry': 3024.0,
  'sort_comparison': 17245.0,
  'zonemap_check': 1989.0},
 {'buffer_search': {'bf_probe': 658.0,
                    'interp_step': 5576.0,
                    'merge_step': 348.0,
                    'scan_entry': 516.0,
                    'sort_comparison': 550.0,
                    'zonemap_check': 1380.0},
  'bulk_load': {'bulk_entry': 2764.0,
                'entry_move': 47.0,
                'internal_split': 12.0,
                'node_access': 223.0},
  'sort': {'merge_step': 6320.0, 'sort_comparison': 8745.0},
  'sware_ops': {'sort_comparison': 7950.0},
  'top_insert': {'entry_move': 188.0, 'node_access': 59.0},
  'tree_search': {'node_access': 1791.0, 'scan_entry': 2508.0, 'zonemap_check': 609.0}})

SCRAMBLED = ({'bf_add': 6032.0,
  'bf_probe': 1167.0,
  'buffer_append': 3018.0,
  'bulk_entry': 474.0,
  'entry_move': 17052.0,
  'internal_split': 55.0,
  'interp_step': 5367.0,
  'leaf_split': 349.0,
  'merge_step': 5870.0,
  'node_access': 12794.0,
  'scan_entry': 2314.0,
  'sort_comparison': 20529.0,
  'zonemap_check': 2356.0},
 {'buffer_search': {'bf_probe': 1167.0,
                    'interp_step': 5367.0,
                    'merge_step': 97.0,
                    'scan_entry': 499.0,
                    'sort_comparison': 2804.0,
                    'zonemap_check': 1381.0},
  'bulk_load': {'bulk_entry': 474.0, 'node_access': 52.0},
  'sort': {'merge_step': 5632.0, 'sort_comparison': 8915.0},
  'sware_ops': {'sort_comparison': 8810.0},
  'top_insert': {'entry_move': 17052.0,
                 'internal_split': 55.0,
                 'leaf_split': 349.0,
                 'node_access': 8962.0},
  'tree_search': {'node_access': 3780.0, 'scan_entry': 1815.0, 'zonemap_check': 975.0}})


def test_near_sorted_stream_charges_are_pinned():
    assert _drive(generate_kl_keys(N, 0.10, 0.05, seed=11)) == NEAR_SORTED


def test_scrambled_stream_charges_are_pinned():
    assert _drive(scrambled_keys(N, seed=11)) == SCRAMBLED


@pytest.mark.parametrize(
    "stream,expected",
    [
        (generate_kl_keys(N, 0.10, 0.05, seed=11), NEAR_SORTED),
        (scrambled_keys(N, seed=11), SCRAMBLED),
    ],
    ids=["near-sorted", "scrambled"],
)
def test_charges_are_pinned_at_the_top_of_int64(stream, expected):
    shift = 2**63 - 1 - max(stream)
    assert _drive([key + shift for key in stream]) == expected
