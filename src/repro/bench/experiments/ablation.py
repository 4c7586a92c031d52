"""Ablations of the individual §III design elements.

The paper argues the SWARE elements "when combined appropriately, lead to a
better performance improvement than any one of them would do alone". These
ablations isolate each one:

* **tail-leaf pointer** — O(1) vs O(log N) node accesses for in-order
  inserts into the raw B+-tree (Fig. 3a);
* **interpolation vs binary search** — probe steps on the buffer's sorted
  section (§IV-B's "notable upgrade");
* **(K,L)-adaptive sort vs stable sort** — comparisons when sorting a
  near-sorted buffer (§IV-C's algorithm choice);
* **partial vs full flushing** — top-inserts caused by flushing everything
  (and therefore pushing entries that overlap future arrivals into the
  tree) vs retaining half the buffer (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.search.interpolation import binary_search_rightmost, interpolation_search
from repro.sortedness.klsort import KLSortStats, kl_sort
from repro.storage.costmodel import Meter
from repro.workloads.spec import INSERT, value_for


@dataclass
class AblationResult:
    report: str
    data: Dict[str, Dict[str, float]]


def _tail_leaf_ablation(n: int) -> Dict[str, float]:
    results = {}
    for label, enabled in (("with tail pointer", True), ("without", False)):
        meter = Meter()
        tree = BPlusTree(
            BPlusTreeConfig(tail_leaf_optimization=enabled), meter=meter
        )
        for key in range(n):
            tree.insert(key, key)
        results[label] = meter["node_access"] / n
    return results


def _search_ablation(n: int) -> Dict[str, float]:
    keys = list(range(0, 4 * n, 4))
    import random

    rng = random.Random(11)
    targets = [keys[rng.randrange(len(keys))] for _ in range(2000)]
    results = {}
    for label, search in (
        ("interpolation", interpolation_search),
        ("binary", binary_search_rightmost),
    ):
        steps: list = []
        for target in targets:
            search(keys, target, steps=steps)
        results[label] = sum(steps) / len(steps)
    return results


def _sort_ablation(n: int) -> Dict[str, float]:
    near = common.keys_for(n, 0.05, 0.02, seed=11)
    stats = KLSortStats()
    kl_sort(list(near), stats=stats)
    # A general stable sort does ~n log2 n comparisons on this input.
    stable_comparisons = n * max(1, n.bit_length())
    kl_comparisons = stats.comparisons + stats.merge_steps + max(
        1, stats.outliers
    ) * max(1, stats.outliers.bit_length())
    return {
        "(K,L)-adaptive (est. comparisons)": kl_comparisons,
        "stable sort (est. comparisons)": stable_comparisons,
    }


def _flush_ablation(n: int) -> Dict[str, float]:
    keys = common.keys_for(n, 0.10, 0.05, seed=11)
    ingest = [(INSERT, key, value_for(key)) for key in keys]
    results = {}
    for label, fraction in (("partial flush (50%)", 0.5), ("full flush (95%)", 0.95)):
        run = run_phases(
            common.sa_btree_factory(
                common.buffer_config(n, 0.01, page_size=8, flush_fraction=fraction)
            ),
            [("ingest", ingest)],
            flush_after="ingest",
        )
        results[label] = run.sware_stats["top_inserted_entries"]
    return results


def run(n: int) -> AblationResult:
    data = {
        "tail-leaf node accesses/insert (sorted)": _tail_leaf_ablation(n),
        "search probe steps (uniform keys)": _search_ablation(min(n, 20_000)),
        "sort work, near-sorted buffer": _sort_ablation(min(n, 8_000)),
        "top-inserts (K=10%, L=5%)": _flush_ablation(n),
    }
    sections = []
    for title, values in data.items():
        rows = [(name, f"{value:,.2f}") for name, value in values.items()]
        sections.append(format_table(["variant", "value"], rows, title=title))
    return AblationResult(report="\n".join(sections), data=data)


def check(result: AblationResult) -> None:
    tail = result.data["tail-leaf node accesses/insert (sorted)"]
    assert tail["with tail pointer"] < tail["without"] / 2

    search = result.data["search probe steps (uniform keys)"]
    assert search["interpolation"] < search["binary"]

    sort = result.data["sort work, near-sorted buffer"]
    assert (
        sort["(K,L)-adaptive (est. comparisons)"]
        < sort["stable sort (est. comparisons)"]
    )

    flush = result.data["top-inserts (K=10%, L=5%)"]
    assert flush["partial flush (50%)"] <= flush["full flush (95%)"]
