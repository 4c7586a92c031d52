"""End-to-end integration tests reproducing the paper's headline claims at
tiny scale (the full figures are the experiment table's entries,
tests/test_experiments.py)."""

from repro.bench.experiments import common
from repro.bench.runner import run_phases, speedup
from repro.workloads.spec import INSERT, value_for


def ingest_ops(keys):
    return [(INSERT, key, value_for(key)) for key in keys]


class TestHeadlineClaims:
    """Each test pins one qualitative claim from the paper's evaluation."""

    N = 6000

    def _speedup(self, k_fraction, l_fraction, read_fraction):
        keys = common.keys_for(self.N, k_fraction, l_fraction, seed=7)
        ops = common.mixed_ops(keys, read_fraction, seed=7)
        base = run_phases(common.baseline_btree_factory(), [("mixed", ops)])
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(self.N, 0.01)),
            [("mixed", ops)],
        )
        return speedup(base, sa)

    def test_sorted_write_heavy_is_large_win(self):
        assert self._speedup(0.0, 0.0, 0.10) > 4.0

    def test_near_sorted_write_heavy_wins(self):
        assert self._speedup(0.10, 0.05, 0.10) > 1.5

    def test_scrambled_in_memory_costs_a_modest_penalty(self):
        value = self._speedup(None, None, 0.50)
        assert 0.7 < value < 1.0  # paper: ~20% slower

    def test_speedup_decays_with_reads(self):
        assert self._speedup(0.0, 0.0, 0.10) > self._speedup(0.0, 0.0, 0.90)

    def test_more_sortedness_more_speedup(self):
        sorted_w = self._speedup(0.0, 0.0, 0.25)
        near = self._speedup(0.10, 0.05, 0.25)
        less = self._speedup(1.00, 0.50, 0.25)
        assert sorted_w > near > less

    def test_ondisk_always_wins_for_sorted_data(self):
        keys = common.keys_for(self.N, 0.0, 0.0, seed=7)
        pool = common.ondisk_pool_capacity(self.N)
        for ratio in (0.10, 0.90):
            ops = common.mixed_ops(keys, ratio, seed=7)
            base = run_phases(
                common.baseline_btree_factory(pool_capacity=pool), [("mixed", ops)]
            )
            sa = run_phases(
                common.sa_btree_factory(
                    common.buffer_config(self.N, 0.04), pool_capacity=pool
                ),
                [("mixed", ops)],
            )
            assert speedup(base, sa) > 1.0


class TestIngestionRouting:
    def test_fully_sorted_never_top_inserts(self):
        keys = common.keys_for(4000, 0.0, 0.0, seed=7)
        result = run_phases(
            common.sa_btree_factory(common.buffer_config(4000, 0.01)),
            [("ingest", ingest_ops(keys))],
            flush_after="ingest",
        )
        assert result.sware_stats["top_inserted_entries"] == 0

    def test_top_inserts_grow_with_k(self):
        tops = []
        for k in (0.02, 0.10, 0.50):
            keys = common.keys_for(4000, k, 0.05, seed=7)
            result = run_phases(
                common.sa_btree_factory(common.buffer_config(4000, 0.01)),
                [("ingest", ingest_ops(keys))],
                flush_after="ingest",
            )
            tops.append(result.sware_stats["top_inserted_entries"])
        assert tops == sorted(tops)
        assert tops[0] < tops[-1]

    def test_all_entries_accounted_for(self):
        keys = common.keys_for(4000, 0.20, 0.10, seed=7)
        result = run_phases(
            common.sa_btree_factory(common.buffer_config(4000, 0.01)),
            [("ingest", ingest_ops(keys))],
            flush_after="ingest",
        )
        stats = result.sware_stats
        assert stats["bulk_loaded_entries"] + stats["top_inserted_entries"] == 4000


class TestSpaceUtilization:
    def test_sorted_ingest_saves_leaf_slots(self):
        keys = common.keys_for(6000, 0.0, 0.0, seed=7)
        base = run_phases(common.baseline_btree_factory(), [("i", ingest_ops(keys))])
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(6000, 0.01)),
            [("i", ingest_ops(keys))],
            flush_after="i",
        )
        savings = 1 - sa.index_stats["space_leaf_slots"] / base.index_stats["space_leaf_slots"]
        assert savings > 0.3  # paper: up to 48%


class TestSABeTree:
    def test_sa_betree_wins_for_sorted_writes(self):
        keys = common.keys_for(5000, 0.0, 0.0, seed=7)
        ops = common.mixed_ops(keys, 0.10, seed=7)
        be = run_phases(common.baseline_betree_factory(), [("mixed", ops)])
        sa = run_phases(
            common.sa_betree_factory(common.buffer_config(5000, 0.01)),
            [("mixed", ops)],
        )
        assert speedup(be, sa) > 2.0

    def test_betree_itself_benefits_from_sortedness(self):
        sorted_keys = common.keys_for(5000, 0.0, 0.0, seed=7)
        scrambled = common.keys_for(5000, None, None, seed=7)
        runs = {}
        for label, keys in (("sorted", sorted_keys), ("scrambled", scrambled)):
            runs[label] = run_phases(
                common.baseline_betree_factory(),
                [("ingest", ingest_ops(keys))],
            ).sim_ns
        assert runs["sorted"] < runs["scrambled"]
