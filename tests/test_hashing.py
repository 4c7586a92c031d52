"""Tests for repro.filters.hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.filters.bloom import BloomFilter
from repro.filters.hashing import (
    murmur3_32,
    murmur3_64,
    rotate64,
    shared_base,
    splitmix64,
)


class TestMurmur3ReferenceVectors:
    """Known-answer tests against the reference murmur3 x86-32."""

    @pytest.mark.parametrize(
        "data,seed,expected",
        [
            (b"", 0, 0x00000000),
            (b"", 1, 0x514E28B7),
            (b"", 0xFFFFFFFF, 0x81F16F39),
            (b"hello", 0, 0x248BFA47),
            (b"hello, world", 0, 0x149BBB7F),
            (b"The quick brown fox jumps over the lazy dog", 0x9747B28C, 0x2FA826CD),
            (b"\xff\xff\xff\xff", 0, 0x76293B50),
            (b"\x21\x43\x65\x87", 0, 0xF55B516B),
            (b"\x21\x43\x65\x87", 0x5082EDEE, 0x2362F9DE),
            (b"\x21\x43\x65", 0, 0x7E4A8634),
            (b"\x21\x43", 0, 0xA0F7B07A),
            (b"\x21", 0, 0x72661CF4),
        ],
    )
    def test_reference_vector(self, data, seed, expected):
        assert murmur3_32(data, seed) == expected


class TestMurmur64AndSplitmix:
    def test_murmur3_64_is_deterministic(self):
        assert murmur3_64(42) == murmur3_64(42)

    def test_murmur3_64_seed_changes_output(self):
        assert murmur3_64(42, seed=1) != murmur3_64(42, seed=2)

    def test_splitmix_is_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_splitmix_fits_64_bits(self, key):
        assert 0 <= splitmix64(key) < 2**64

    @given(st.integers(min_value=0, max_value=2**63))
    def test_murmur64_fits_64_bits(self, key):
        assert 0 <= murmur3_64(key) < 2**64

    def test_splitmix_avalanche(self):
        # Neighbouring keys should differ in roughly half the bits.
        diff = bin(splitmix64(1000) ^ splitmix64(1001)).count("1")
        assert 16 <= diff <= 48


class TestRotate64:
    def test_zero_rotation_is_identity(self):
        assert rotate64(0x123456789ABCDEF0, 0) == 0x123456789ABCDEF0

    def test_full_rotation_is_identity(self):
        assert rotate64(0x123456789ABCDEF0, 64) == 0x123456789ABCDEF0

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 63))
    def test_rotation_is_invertible(self, value, bits):
        assert rotate64(rotate64(value, bits), 64 - bits) == value

    def test_rotation_moves_bits(self):
        assert rotate64(1, 1) == 2
        assert rotate64(1 << 63, 1) == 1


def _probe_bits(key, n_bits=1024, n_probes=5, rotation=0, family="splitmix64"):
    """The bit positions one key sets in a fresh filter (its probe set)."""
    bf = BloomFilter(
        1, bits_per_entry=n_bits, hash_family=family, rotation=rotation, n_probes=n_probes
    )
    bf.add_bases((shared_base(key, family),))
    bits = int.from_bytes(bf._bits, "little")
    return {pos for pos in range(len(bf._bits) * 8) if bits >> pos & 1}


class TestSharedHash:
    """Hash sharing as the filters use it: one ``shared_base`` per key,
    rotated per page filter, probed through ``may_contain_base``."""

    def test_probe_count_and_range(self):
        probes = _probe_bits(12345, n_bits=1024, n_probes=7)
        assert 1 <= len(probes) <= 7
        assert all(0 <= p < 1024 for p in probes)

    def test_probes_deterministic_per_key(self):
        assert shared_base(9) == shared_base(9)
        assert _probe_bits(9, n_bits=100) == _probe_bits(9, n_bits=100)

    def test_different_keys_differ(self):
        assert shared_base(1) != shared_base(2)
        assert _probe_bits(1, n_bits=10_000) != _probe_bits(2, n_bits=10_000)

    def test_rotated_stream_differs(self):
        base = shared_base(777)
        assert rotate64(base, 17) != base
        rotated = _probe_bits(777, n_bits=10_000, rotation=17)
        assert _probe_bits(777, n_bits=10_000) != rotated

    def test_rotated_is_deterministic(self):
        assert rotate64(shared_base(777), 17) == rotate64(shared_base(777), 17)
        bf = BloomFilter(64, rotation=17)
        bf.add(777)
        assert bf.may_contain_base(shared_base(777))
        assert _probe_bits(777, 512, rotation=17) == _probe_bits(777, 512, rotation=17)

    def test_murmur_family(self):
        base = shared_base(123, family="murmur3")
        assert base == murmur3_64(123) and base != shared_base(123)
        bf = BloomFilter(16, hash_family="murmur3")
        bf.add(123)
        assert bf.may_contain_base(base)
        assert len(_probe_bits(123, n_bits=64, n_probes=3, family="murmur3")) <= 3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            shared_base(1, family="fnv")

    def test_h2_is_odd(self):
        # The filter's step h2 is forced odd, so on a power-of-two filter
        # every probe of a key lands on a distinct slot.
        for key in range(50):
            assert len(_probe_bits(key, n_bits=64, n_probes=8)) == 8
