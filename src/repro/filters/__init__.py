"""Bloom filters and the hash functions that feed them."""

from repro.filters.bloom import BloomFilter, optimal_num_probes, theoretical_fpr
from repro.filters.hashing import rotate64, splitmix64

__all__ = [
    "BloomFilter",
    "optimal_num_probes",
    "theoretical_fpr",
    "rotate64",
    "splitmix64",
]
