"""Fig. 19 + Table II — scalability with data size.

(a) K and L proportional (5%) to N, buffer 1% of N: both indexes stay
    roughly flat (stepwise with tree height) and SA keeps a constant-factor
    lead;
(b) L and the buffer size *fixed* while N grows: SA's per-op latency
    *drops* with N because a shrinking fraction of the data lives in the
    buffer, so fewer queries touch it — quantified by Table II's
    entries-in-buffer % and unsorted pages scanned per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases, speedup
from repro.core.config import SWAREConfig

SIZES = [2_000, 4_000, 8_000, 16_000, 32_000]


@dataclass
class Fig19Result:
    report: str
    proportional: Dict[int, Dict[str, float]]  # n -> latency/op (sa, base)
    fixed_l: Dict[int, Dict[str, float]]
    table2: Dict[int, Dict[str, float]]


def run(
    n: int = SIZES[-1],
    read_fraction: float = 0.5,
    fixed_l_entries: int = 1_000,
    fixed_buffer_entries: int = 512,
    seed: int = 7,
) -> Fig19Result:
    """``n`` is the largest size; the sweep keeps ``SIZES``' proportions."""
    sizes = [size * n // SIZES[-1] for size in SIZES]
    proportional: Dict[int, Dict[str, float]] = {}
    fixed_l: Dict[int, Dict[str, float]] = {}
    table2: Dict[int, Dict[str, float]] = {}
    rows_a: List[list] = []
    rows_b: List[list] = []
    rows_t2: List[list] = []

    for n in sizes:
        # (a) K, L proportional; buffer 1% of data.
        keys = common.keys_for(n, 0.05, 0.05, seed=seed)
        ops = common.mixed_ops(keys, read_fraction, seed=seed)
        base = run_phases(common.baseline_btree_factory(), [("mixed", ops)], label="B+")
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, 0.01)),
            [("mixed", ops)],
            label="SA",
        )
        proportional[n] = {
            "sa": sa.sim_ns_per_op,
            "base": base.sim_ns_per_op,
            "speedup": speedup(base, sa),
        }
        rows_a.append(
            [n, base.sim_ns_per_op / 1e3, sa.sim_ns_per_op / 1e3, speedup(base, sa)]
        )

        # (b) fixed L and fixed buffer size.
        l_fraction = min(0.95, fixed_l_entries / n)
        keys_fixed = common.keys_for(n, 0.05, round(l_fraction, 6), seed=seed)
        ops_fixed = common.mixed_ops(keys_fixed, read_fraction, seed=seed)
        base_f = run_phases(
            common.baseline_btree_factory(), [("mixed", ops_fixed)], label="B+"
        )
        config = SWAREConfig(
            buffer_capacity=fixed_buffer_entries,
            page_size=min(common.PAGE_SIZE, fixed_buffer_entries // 2),
        )
        sa_f = run_phases(
            common.sa_btree_factory(config), [("mixed", ops_fixed)], label="SA"
        )
        fixed_l[n] = {
            "sa": sa_f.sim_ns_per_op,
            "base": base_f.sim_ns_per_op,
            "speedup": speedup(base_f, sa_f),
        }
        rows_b.append(
            [n, base_f.sim_ns_per_op / 1e3, sa_f.sim_ns_per_op / 1e3, speedup(base_f, sa_f)]
        )

        lookups = sa_f.sware_stats.get("lookups", 0) or 1
        pages_per_query = sa_f.sware_stats.get("unsorted_pages_scanned", 0) / lookups
        table2[n] = {
            "buffer_fraction": fixed_buffer_entries / n,
            "pages_scanned_per_query": pages_per_query,
        }
        rows_t2.append(
            [n, f"{fixed_buffer_entries / n:.2%}", f"{pages_per_query:.4f}"]
        )

    report = "\n".join(
        [
            format_table(
                ["entries", "B+-tree (µs/op)", "SA B+-tree (µs/op)", "speedup"],
                rows_a,
                title="Fig. 19a — scalability, K=L=5% of data, buffer=1%",
            ),
            format_table(
                ["entries", "B+-tree (µs/op)", "SA B+-tree (µs/op)", "speedup"],
                rows_b,
                title=f"Fig. 19b — scalability, fixed L={fixed_l_entries} entries, "
                f"fixed buffer={fixed_buffer_entries} entries",
            ),
            format_table(
                ["entries", "% entries in buffer", "unsorted pages scanned/query"],
                rows_t2,
                title="Table II — buffer footprint shrinks relative to data",
            ),
        ]
    )
    return Fig19Result(
        report=report, proportional=proportional, fixed_l=fixed_l, table2=table2
    )


def check(result: Fig19Result) -> None:
    sizes = sorted(result.proportional)
    # (a) proportional K/L/buffer: SA wins at every size.
    for n in sizes:
        assert result.proportional[n]["speedup"] > 1.0
    # (b) fixed L and buffer: SA wins and the buffered fraction of the data
    # shrinks as N grows (Table II), as do pages scanned per query.
    for n in sizes:
        assert result.fixed_l[n]["speedup"] > 1.0
    fractions = [result.table2[n]["buffer_fraction"] for n in sizes]
    assert fractions == sorted(fractions, reverse=True)
    pages = [result.table2[n]["pages_scanned_per_query"] for n in sizes]
    assert pages[-1] <= pages[0]
