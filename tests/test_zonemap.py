"""Tests for repro.core.zonemap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.zonemap import PageZonemaps, Zonemap


class TestZonemap:
    def test_empty_contains_nothing(self):
        zm = Zonemap()
        assert zm.is_empty
        assert not zm.may_contain(0)
        assert not zm.overlaps(0, 100)

    def test_single_key(self):
        zm = Zonemap()
        zm.update(5)
        assert zm.may_contain(5)
        assert not zm.may_contain(4)
        assert not zm.may_contain(6)

    def test_range_tracking(self):
        zm = Zonemap()
        for key in (10, 3, 7):
            zm.update(key)
        assert (zm.min_key, zm.max_key) == (3, 10)
        assert zm.may_contain(5)
        assert not zm.may_contain(11)

    def test_overlap_edges(self):
        zm = Zonemap()
        zm.update(10)
        zm.update(20)
        assert zm.overlaps(20, 30)
        assert zm.overlaps(0, 10)
        assert not zm.overlaps(21, 30)
        assert not zm.overlaps(0, 9)

    def test_reset(self):
        zm = Zonemap()
        zm.update(1)
        zm.reset()
        assert zm.is_empty

    @given(st.lists(st.integers(), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_never_false_negative(self, keys):
        zm = Zonemap()
        for key in keys:
            zm.update(key)
        assert all(zm.may_contain(key) for key in keys)


class TestPageZonemaps:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            PageZonemaps(0)

    def test_pages_grow_on_demand(self):
        pz = PageZonemaps(4)
        assert len(pz._zones) == 0
        pz.observe(0, 10)
        assert len(pz._zones) == 1
        pz.observe(9, 99)  # position 9 -> page 2
        assert len(pz._zones) == 3

    def test_page_membership(self):
        pz = PageZonemaps(2)
        pz.observe(0, 10)
        pz.observe(1, 20)
        pz.observe(2, 100)
        assert pz.page_may_contain(0, 15)
        assert not pz.page_may_contain(0, 21)
        assert pz.page_may_contain(1, 100)
        assert not pz.page_may_contain(5, 100)  # nonexistent page

    def test_reset(self):
        pz = PageZonemaps(2)
        pz.observe(0, 1)
        pz.reset()
        assert len(pz._zones) == 0
        assert not pz.page_may_contain(0, 1)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_every_observed_key_found_in_its_page(self, keys):
        pz = PageZonemaps(8)
        for position, key in enumerate(keys):
            pz.observe(position, key)
        for position, key in enumerate(keys):
            assert pz.page_may_contain(position // 8, key)
