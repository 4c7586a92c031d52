"""Tests for the LSM-tree substrate (extension §VI)."""

import random

import pytest

from repro.errors import BulkLoadError, ConfigError
from repro.lsm import LEVELING, TIERING, LSMConfig, LSMTree, SortedRun
from repro.storage.costmodel import Meter


def make_tree(**overrides) -> LSMTree:
    config = LSMConfig(
        memtable_capacity=overrides.pop("memtable_capacity", 16),
        size_ratio=overrides.pop("size_ratio", 3),
        **overrides,
    )
    return LSMTree(config, meter=Meter())


class TestConfig:
    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            LSMConfig(memtable_capacity=1)
        with pytest.raises(ConfigError):
            LSMConfig(size_ratio=1)
        with pytest.raises(ConfigError):
            LSMConfig(policy="lazy")

    def test_level_capacities_grow_geometrically(self):
        config = LSMConfig(memtable_capacity=10, size_ratio=4)
        assert config.level_capacity(0) == 40
        assert config.level_capacity(1) == 160


class TestSortedRun:
    def test_get_and_slice(self):
        run = SortedRun([(1, 1, "a", False), (3, 2, "b", False), (5, 3, "c", False)])
        assert run.get(3)[2] == "b"
        assert run.get(2) is None
        assert [e[0] for e in run.slice(2, 5)] == [3, 5]

    def test_overlap(self):
        a = SortedRun([(1, 1, None, False), (5, 2, None, False)])
        b = SortedRun([(6, 3, None, False), (9, 4, None, False)])
        c = SortedRun([(4, 5, None, False), (7, 6, None, False)])
        assert not a.overlaps(b)
        assert a.overlaps(c) and c.overlaps(b)

    def test_empty_run(self):
        run = SortedRun([])
        assert len(run) == 0
        assert run.get(1) is None
        assert not run.overlaps(SortedRun([(1, 1, None, False)]))

    def test_duplicates_newest_wins(self):
        run = SortedRun([(2, 1, "old", False), (2, 7, "new", False)])
        assert run.get(2)[2] == "new"


class TestBasicOperations:
    def test_memtable_hit(self):
        tree = make_tree()
        tree.insert(5, "x")
        assert tree.get(5) == "x"
        assert tree.flushes == 0

    def test_flush_and_read_from_run(self):
        tree = make_tree(memtable_capacity=4)
        for key in range(10):
            tree.insert(key, key)
        assert tree.flushes >= 2
        assert all(tree.get(key) == key for key in range(10))

    def test_upsert_across_runs(self):
        tree = make_tree(memtable_capacity=4)
        for key in range(8):
            tree.insert(key, "old")
        for key in range(8):
            tree.insert(key, "new")
        assert all(tree.get(key) == "new" for key in range(8))

    def test_delete(self):
        tree = make_tree(memtable_capacity=4)
        for key in range(12):
            tree.insert(key, key)
        tree.delete(5)
        assert tree.get(5) is None
        assert tree.get(6) == 6

    def test_range_query(self):
        tree = make_tree(memtable_capacity=4)
        for key in range(20):
            tree.insert(key, key * 10)
        tree.delete(7)
        result = tree.range_query(5, 9)
        assert result == [(5, 50), (6, 60), (8, 80), (9, 90)]

    @pytest.mark.parametrize("policy", [LEVELING, TIERING])
    @pytest.mark.parametrize("aware", [False, True])
    def test_random_ops_match_dict(self, policy, aware):
        rng = random.Random(9)
        tree = make_tree(policy=policy, sortedness_aware=aware)
        model = {}
        for i in range(4000):
            op = rng.random()
            key = rng.randrange(600)
            if op < 0.6:
                tree.insert(key, key + i)
                model[key] = key + i
            elif op < 0.72:
                tree.delete(key)
                model.pop(key, None)
            elif op < 0.95:
                assert tree.get(key) == model.get(key)
            else:
                lo, hi = key, key + 30
                expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
                assert tree.range_query(lo, hi) == expected
        tree.check_invariants()
        assert dict(tree.iter_items()) == model


class TestBulkLoad:
    def test_bulk_installs_run(self):
        tree = make_tree()
        tree.bulk_load_append([(k, k) for k in range(50)])
        assert tree.n_runs() >= 1
        assert all(tree.get(k) == k for k in range(50))

    def test_bulk_rejects_overlap(self):
        tree = make_tree()
        tree.insert(100, 1)
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(50, 0)])

    def test_bulk_rejects_unsorted(self):
        tree = make_tree()
        with pytest.raises(BulkLoadError):
            tree.bulk_load_append([(2, 0), (1, 0)])

    def test_disjoint_bulk_load_does_not_flush(self):
        """The memtable is flushed before a bulk run only when a pending
        entry could shadow it; a run clear of the memtable leaves it be."""
        tree = make_tree()
        tree.insert(10, "a")
        flushes_before = tree.flushes
        tree.bulk_load_append([(50, "c")])
        assert tree.flushes == flushes_before
        assert (tree.get(10), tree.get(50)) == ("a", "c")


class TestCompactionBehaviour:
    def test_leveling_single_run_per_level(self):
        tree = make_tree(policy=LEVELING, memtable_capacity=8)
        for key in random.Random(1).sample(range(2000), 600):
            tree.insert(key, key)
        tree.check_invariants()
        for level in tree._levels:
            assert len(level) <= 1

    def test_tiering_accumulates_runs(self):
        tree = make_tree(policy=TIERING, memtable_capacity=8, size_ratio=4)
        keys = random.Random(2).sample(range(2000), 400)
        for key in keys:
            tree.insert(key, key)
        assert tree.n_runs() >= 1
        assert dict(tree.iter_items()) == {k: k for k in keys}

    def test_plain_lsm_write_amp_is_sortedness_agnostic(self):
        amps = {}
        for label, keys in (
            ("sorted", list(range(3000))),
            ("scrambled", random.Random(3).sample(range(3000), 3000)),
        ):
            tree = make_tree(memtable_capacity=64, size_ratio=4)
            for key in keys:
                tree.insert(key, key)
            amps[label] = tree.write_amplification
        assert amps["sorted"] == pytest.approx(amps["scrambled"], rel=0.3)
        assert amps["sorted"] > 2.0

    def test_skip_merge_collapses_sorted_write_amp(self):
        tree = make_tree(memtable_capacity=64, size_ratio=4, sortedness_aware=True)
        for key in range(3000):
            tree.insert(key, key)
        # Exactly one write per flushed entry (the last memtable is still
        # unflushed, so the ratio sits just under 1.0).
        assert 0.9 <= tree.write_amplification <= 1.0
        assert tree.trivial_moves > 0
        tree.check_invariants()

    def test_sware_over_lsm_rescues_near_sorted(self):
        from repro.core.config import SWAREConfig
        from repro.core.sware import SortednessAwareIndex
        from repro.sortedness.generator import generate_kl_keys

        n = 6000
        keys = generate_kl_keys(n, 0.10, 0.05, seed=4)
        plain = make_tree(memtable_capacity=64, size_ratio=4, sortedness_aware=True)
        for key in keys:
            plain.insert(key, key)
        wrapped_lsm = make_tree(memtable_capacity=64, size_ratio=4, sortedness_aware=True)
        wrapped = SortednessAwareIndex(
            wrapped_lsm, SWAREConfig(buffer_capacity=64, page_size=8)
        )
        for key in keys:
            wrapped.insert(key, key)
        wrapped.flush_all()
        assert wrapped_lsm.entries_written / n < plain.write_amplification / 2
        # Correctness preserved.
        for key in keys[:200]:
            assert wrapped.get(key) == key


class TestStats:
    def test_level_sizes_and_runs(self):
        tree = make_tree(memtable_capacity=8)
        for key in range(100):
            tree.insert(key, key)
        assert sum(tree.level_sizes()) + len(tree._memtable) == 100
        assert tree.n_runs() >= 1

    def test_write_amp_zero_before_inserts(self):
        assert make_tree().write_amplification == 0.0
