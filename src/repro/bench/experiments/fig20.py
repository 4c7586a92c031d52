"""Fig. 20 — SA Bε-tree vs Bε-tree, normalized speedups.

For every read:write ratio and sortedness degree (less / near / fully
sorted), both indexes' mixed-workload latency is normalized against the
Bε-tree ingesting *scrambled* data at that ratio. Paper shape: the Bε-tree
itself gains a little from sortedness (its internal buffers help), while the
SA Bε-tree amplifies it dramatically (up to 26× normalized at 10:90,
relative gains up to 7.8×).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases

DEGREES = [
    ("S", 0.0, 0.0),  # fully sorted
    ("N", 0.10, 0.05),  # near-sorted
    ("L", 1.00, 0.50),  # less sorted
]


@dataclass
class Fig20Result:
    report: str
    #: (read_fraction, degree, index) -> normalized speedup
    data: Dict[Tuple[float, str, str], float]


def run(
    n: int = 10_000,
    buffer_fraction: float = 0.01,
    ratios: List[float] = None,
    seed: int = 7,
) -> Fig20Result:
    ratios = ratios if ratios is not None else common.READ_WRITE_RATIOS
    data: Dict[Tuple[float, str, str], float] = {}
    rows: List[list] = []

    scrambled = common.keys_for(n, None, None, seed=seed)
    for ratio in ratios:
        ops_scrambled = common.mixed_ops(scrambled, ratio, seed=seed)
        reference = run_phases(
            common.baseline_betree_factory(),
            [("mixed", ops_scrambled)],
            label="Be scrambled",
        ).sim_ns
        row = [f"{int(ratio * 100)}:{int((1 - ratio) * 100)}"]
        for degree, k_fraction, l_fraction in DEGREES:
            keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
            ops = common.mixed_ops(keys, ratio, seed=seed)
            be = run_phases(
                common.baseline_betree_factory(), [("mixed", ops)], label="Be"
            )
            sa = run_phases(
                common.sa_betree_factory(common.buffer_config(n, buffer_fraction)),
                [("mixed", ops)],
                label="SA Be",
            )
            data[(ratio, degree, "betree")] = reference / be.sim_ns
            data[(ratio, degree, "sa_betree")] = reference / sa.sim_ns
            row.append(data[(ratio, degree, "sa_betree")])
            row.append(data[(ratio, degree, "betree")])
        rows.append(row)

    headers = ["read:write"]
    for degree, _, _ in DEGREES:
        headers.extend([f"SA Bε ({degree})", f"Bε ({degree})"])
    report = format_table(
        headers,
        rows,
        title=(
            f"Fig. 20 — normalized speedup vs Bε-tree on scrambled data "
            f"(n={n}; S=sorted, N=near, L=less)"
        ),
    )
    return Fig20Result(report=report, data=data)


def check(result: Fig20Result) -> None:
    for ratio in (0.10, 0.50, 0.90):
        # SA Bε amplifies sortedness well beyond the plain Bε-tree...
        assert result.data[(ratio, "S", "sa_betree")] > result.data[(ratio, "S", "betree")]
        assert result.data[(ratio, "N", "sa_betree")] > 1.0
        # ...and the plain Bε-tree itself gains a little from sortedness.
        assert result.data[(ratio, "S", "betree")] >= result.data[(ratio, "L", "betree")]
    # Write-heavy sorted is the global peak.
    assert result.data[(0.10, "S", "sa_betree")] == max(
        v for (r, d, i), v in result.data.items() if i == "sa_betree"
    )
