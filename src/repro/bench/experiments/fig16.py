"""Fig. 16 — tuning query-driven sorting.

Mixed 50:50 workloads with the query-sorting threshold at 1%, 5%, 10%, 25%
and disabled, across a K sweep. Paper shape: 10% gives the best speedup
(~25% better than without); too-frequent sorting (1%) or too-rare (25%)
helps less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_matrix
from repro.bench.runner import RunResult, run_phases, speedup

K_SWEEP = [0.0, 0.02, 0.10, 0.20, 1.00]
THRESHOLDS = [0.01, 0.05, 0.10, 0.25, 1.00]  # 1.00 disables query sorting


@dataclass
class Fig16Result:
    report: str
    #: (threshold, k) -> speedup over the baseline B+-tree
    data: Dict[Tuple[float, float], float]


def run(
    n: int = 12_000,
    l_fraction: float = 0.05,
    buffer_fraction: float = 0.05,
    page_size: int = 8,
    read_fraction: float = 0.5,
    seed: int = 7,
) -> Fig16Result:
    # Geometry note: query-driven sorting pays off through cheaper scans of
    # the unsorted section, so the buffer must span many pages for the
    # threshold to matter (the paper's 5M-entry buffer has ~9.7k pages); at
    # reduced scale we use a 5% buffer with small pages.
    data: Dict[Tuple[float, float], float] = {}
    base_cache: Dict[float, RunResult] = {}
    for k_fraction in K_SWEEP:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
        ops = common.mixed_ops(keys, read_fraction, seed=seed)
        base = run_phases(common.baseline_btree_factory(), [("mixed", ops)], label="B+")
        base_cache[k_fraction] = base
        for threshold in THRESHOLDS:
            config = common.buffer_config(
                n,
                buffer_fraction,
                page_size=page_size,
                query_sorting_threshold=threshold,
            )
            sa = run_phases(
                common.sa_btree_factory(config), [("mixed", ops)], label="SA"
            )
            data[(threshold, k_fraction)] = speedup(base, sa)

    row_map = {("w/o Q-S" if t >= 1.0 else f"Q-S={t:.0%}"): t for t in THRESHOLDS}
    col_map = {f"K={k:.0%}": k for k in K_SWEEP}
    report = format_matrix(
        list(row_map),
        list(col_map),
        lambda row, col: data[(row_map[row], col_map[col])],
        title=f"Fig. 16 — query-driven sorting threshold (n={n}, 50:50 mixed)",
        row_header="threshold",
    )
    return Fig16Result(report=report, data=data)


def check(result: Fig16Result) -> None:
    # Query sorting must not catastrophically hurt any configuration, and
    # the tuned 10% threshold should be at least as good as disabling it
    # for some mid-sortedness point.
    k_mid = 0.10
    with_qs = result.data[(0.10, k_mid)]
    without = result.data[(1.00, k_mid)]
    assert with_qs >= without * 0.9
    for (threshold, k), value in result.data.items():
        assert value > 0.5, (threshold, k)
