"""Tests for repro.filters.hashing."""

from hypothesis import given, strategies as st

from repro.filters.bloom import BloomFilter
from repro.filters.hashing import rotate64, shared_base, splitmix64


class TestMurmur64AndSplitmix:
    """splitmix64, the filters' one hash (the name keeps these tests' ids)."""

    def test_splitmix_is_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_splitmix_fits_64_bits(self, key):
        assert 0 <= splitmix64(key) < 2**64

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


def _probe_bits(key, n_bits=1024, n_probes=5, rotation=0):
    """The bit positions one key sets in a fresh filter (its probe set)."""
    bf = BloomFilter(1, bits_per_entry=n_bits, rotation=rotation, n_probes=n_probes)
    bf.add_bases((shared_base(key),))
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

    def test_h2_is_odd(self):
        # The filter's step h2 is forced odd, so on a power-of-two filter
        # every probe of a key lands on a distinct slot.
        for key in range(50):
            assert len(_probe_bits(key, n_bits=64, n_probes=8)) == 8
