"""Fig. 10 — SA B+-tree vs B+-tree speedup over mixed workloads (in-memory).

For every read:write ratio (10:90 … 90:10) and sortedness preset (sorted /
near-sorted / less-sorted / scrambled), run the mixed workload on both
indexes and report the simulated-latency speedup. The paper's shape: large
speedups for sorted data on write-heavy mixes (8.8×), decaying toward 1.4×
at 90% reads; scrambled data ~20% *slower* than the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_matrix
from repro.bench.runner import RunResult, run_phases, speedup


@dataclass
class Fig10Result:
    report: str
    #: (preset label, read_fraction) -> speedup over baseline
    data: Dict[Tuple[str, float], float]
    runs: Dict[Tuple[str, float, str], RunResult]


SEED = 7


def run(
    n: int,
    buffer_fraction: float = 0.01,
    pool_capacity: Optional[int] = None,
    title: str = "Fig. 10 — SA B+-tree speedup over B+-tree (mixed workloads)",
) -> Fig10Result:
    data: Dict[Tuple[str, float], float] = {}
    runs: Dict[Tuple[str, float, str], RunResult] = {}
    for label, k_fraction, l_fraction in common.SORTEDNESS_PRESETS:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=SEED)
        for ratio in common.READ_WRITE_RATIOS:
            ops = common.mixed_ops(keys, ratio, seed=SEED)
            base = run_phases(
                common.baseline_btree_factory(pool_capacity=pool_capacity),
                [("mixed", ops)],
                label=f"B+ {label} r={ratio}",
            )
            sa = run_phases(
                common.sa_btree_factory(
                    common.buffer_config(n, buffer_fraction),
                    pool_capacity=pool_capacity,
                ),
                [("mixed", ops)],
                label=f"SA {label} r={ratio}",
            )
            data[(label, ratio)] = speedup(base, sa)
            runs[(label, ratio, "base")] = base
            runs[(label, ratio, "sa")] = sa

    col_ratio = {f"{int(r * 100)}:{int((1 - r) * 100)}": r for r in common.READ_WRITE_RATIOS}
    report = format_matrix(
        [label for label, _, _ in common.SORTEDNESS_PRESETS],
        list(col_ratio),
        lambda row, col: data[(row, col_ratio[col])],
        title=f"{title}\n(n={n}, buffer={buffer_fraction:.2%} of data; columns are read:write)",
        row_header="sortedness",
    )
    return Fig10Result(report=report, data=data, runs=runs)


def check(result: Fig10Result) -> None:
    # Paper shape: sorted write-heavy is the peak; speedup decays with reads;
    # scrambled never beats the baseline in memory.
    sorted_wh = result.data[("sorted", 0.10)]
    sorted_rh = result.data[("sorted", 0.90)]
    assert sorted_wh > 4.0
    assert sorted_wh > sorted_rh > 1.0
    assert result.data[("near-sorted", 0.10)] > result.data[("near-sorted", 0.90)]
    assert result.data[("scrambled", 0.50)] < 1.0
