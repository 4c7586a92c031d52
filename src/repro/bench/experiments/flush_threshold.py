"""§V-D (text) — tuning the buffer flush threshold.

The paper varies the per-cycle flush proportion over 25% / 50% / 75% on
mixed workloads and finds 50% best overall (speedups up to 4.3× vs 4.0× and
4.2× for the neighbours, with 75% even dipping below 1× at the low end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import RunResult, run_phases, speedup

FLUSH_FRACTIONS = [0.25, 0.50, 0.75]
PRESETS = [
    ("sorted", 0.0, 0.0),
    ("near-sorted", 0.10, 0.05),
    ("less-sorted", 1.00, 0.50),
    ("scrambled", None, None),
]


@dataclass
class FlushThresholdResult:
    report: str
    #: (flush_fraction, preset) -> speedup
    data: Dict[Tuple[float, str], float]
    best: float


BUFFER_FRACTION = 0.01
READ_FRACTION = 0.5
SEED = 7


def run(n: int) -> FlushThresholdResult:
    data: Dict[Tuple[float, str], float] = {}
    base_cache: Dict[str, RunResult] = {}
    rows: List[list] = []
    for fraction in FLUSH_FRACTIONS:
        row = [f"{fraction:.0%}"]
        for label, k_fraction, l_fraction in PRESETS:
            keys = common.keys_for(n, k_fraction, l_fraction, seed=SEED)
            ops = common.mixed_ops(keys, READ_FRACTION, seed=SEED)
            base = base_cache.get(label)
            if base is None:
                base = run_phases(
                    common.baseline_btree_factory(), [("mixed", ops)], label="B+"
                )
                base_cache[label] = base
            # Small pages so the flush target is not rounded to one page —
            # at reduced buffer sizes a 64-entry page would alias all three
            # thresholds to the same page-aligned flush amount.
            sa = run_phases(
                common.sa_btree_factory(
                    common.buffer_config(
                        n, BUFFER_FRACTION, page_size=8, flush_fraction=fraction
                    )
                ),
                [("mixed", ops)],
                label=f"SA flush={fraction:.0%}",
            )
            data[(fraction, label)] = speedup(base, sa)
            row.append(data[(fraction, label)])
        rows.append(row)

    means = {
        fraction: sum(data[(fraction, label)] for label, _, _ in PRESETS) / len(PRESETS)
        for fraction in FLUSH_FRACTIONS
    }
    best = max(means, key=means.get)
    report = format_table(
        ["flush threshold"] + [label for label, _, _ in PRESETS],
        rows,
        title=f"§V-D — flush threshold sweep (n={n}, 50:50 mixed; best mean: {best:.0%})",
    )
    return FlushThresholdResult(report=report, data=data, best=best)


def check(result: FlushThresholdResult) -> None:
    # All thresholds stay in a sane band; 50% should be competitive with
    # (within 10% of) the best mean, matching the paper's default choice.
    means = {
        f: sum(result.data[(f, label)] for label in
               ("sorted", "near-sorted", "less-sorted", "scrambled")) / 4
        for f in (0.25, 0.50, 0.75)
    }
    assert means[0.50] >= max(means.values()) * 0.9
