"""Bloom filters and the hash functions that feed them."""

from repro.filters.bloom import BloomFilter, optimal_num_probes
from repro.filters.hashing import murmur3_32, murmur3_64, rotate64, splitmix64

__all__ = [
    "BloomFilter",
    "optimal_num_probes",
    "murmur3_32",
    "murmur3_64",
    "rotate64",
    "splitmix64",
]
