"""Table I — leaf splits vs split ratio, normalized to 50:50.

The paper varies the split ratio of the *underlying tree index* while
ingesting data of varied sortedness and counts leaf splits. The mechanics:
near-sorted ingestion is right-deep, so a high split ratio (e.g. 90:10)
leaves the freshly created right node almost empty and it absorbs many
future in-order inserts before splitting again (fewer splits, ~1/ratio);
scrambled ingestion hits both halves uniformly, so a lopsided split leaves
the left node nearly full and it re-splits quickly (more splits). Paper
shape: 90:10 cuts near-sorted splits by ~22% but costs ~1.8× for scrambled
data; 80:20 is the overall sweet spot (and the SA default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.workloads.spec import INSERT, value_for

SPLIT_RATIOS = [0.5, 0.6, 0.7, 0.8, 0.9]
PRESETS = [
    ("K=2%, L=1%", 0.02, 0.01),
    ("K=20%, L=10%", 0.20, 0.10),
    ("K=100%, L=50%", 1.00, 0.50),
]


@dataclass
class Table1Result:
    report: str
    #: (split_ratio, preset label) -> normalized leaf splits
    data: Dict[Tuple[float, str], float]
    raw_splits: Dict[Tuple[float, str], int]


def _tree_factory(split_factor: float):
    def factory(meter):
        return BPlusTree(
            BPlusTreeConfig(split_factor=split_factor, tail_leaf_optimization=True),
            meter=meter,
        )

    return factory


SEED = 7


def run(n: int) -> Table1Result:
    raw: Dict[Tuple[float, str], int] = {}
    for label, k_fraction, l_fraction in PRESETS:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=SEED)
        ingest = [(INSERT, key, value_for(key)) for key in keys]
        for ratio in SPLIT_RATIOS:
            result = run_phases(
                _tree_factory(ratio), [("ingest", ingest)], label=f"split={ratio}"
            )
            raw[(ratio, label)] = int(result.index_stats.get("leaf_splits", 0))

    data: Dict[Tuple[float, str], float] = {}
    rows: List[list] = []
    for ratio in SPLIT_RATIOS:
        row = [f"{int(ratio * 100)}:{int(100 - ratio * 100)}"]
        for label, _, _ in PRESETS:
            reference = raw[(0.5, label)] or 1
            normalized = raw[(ratio, label)] / reference
            data[(ratio, label)] = normalized
            row.append(normalized)
        rows.append(row)
    report = format_table(
        ["split ratio"] + [label for label, _, _ in PRESETS],
        rows,
        title=f"Table I — normalized leaf splits (n={n}; 1.00 = textbook 50:50)",
    )
    return Table1Result(report=report, data=data, raw_splits=raw)


def check(result: Table1Result) -> None:
    # Near-sorted data: higher split ratios reduce splits monotonically-ish.
    assert result.data[(0.9, "K=2%, L=1%")] < result.data[(0.5, "K=2%, L=1%")]
    assert result.data[(0.8, "K=2%, L=1%")] < 1.0
    # Scrambled-ish data: aggressive ratios backfire (>= the 50:50 count).
    assert result.data[(0.9, "K=100%, L=50%")] > result.data[(0.6, "K=100%, L=50%")]
