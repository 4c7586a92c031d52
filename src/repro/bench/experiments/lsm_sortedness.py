"""Extension (§VI) — sortedness-(un)awareness of LSM-trees.

The paper's Related Work argues that (i) LSM-trees "perform the same amount
of merging and (re-)writing of the data on disk even when the data arrive
fully sorted", (ii) skip-merge/least-overlap compaction rescues *fully*
sorted ingestion "however, these benefits do not apply for nearly sorted
data", and (iii) "LSM can benefit from the SWARE meta-design to better
exploit variable sortedness".

This experiment demonstrates all three with the LSM substrate: write
amplification of a plain LSM-tree, an LSM-tree with skip-merge compaction,
and SWARE wrapped over each, across the sortedness presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.lsm import LSMConfig, LSMTree
from repro.storage.costmodel import Meter

PRESETS = [
    ("sorted", 0.0, 0.0),
    ("near-sorted", 0.10, 0.05),
    ("less-sorted", 1.00, 0.50),
    ("scrambled", None, None),
]

VARIANTS = ["LSM", "LSM+skip", "SWARE(LSM)", "SWARE(LSM+skip)"]


@dataclass
class LSMSortednessResult:
    report: str
    #: (preset, variant) -> write amplification
    data: Dict[Tuple[str, str], float]


def _build(variant: str, n: int, buffer_fraction: float):
    aware = "skip" in variant
    lsm = LSMTree(
        LSMConfig(
            memtable_capacity=max(32, n // 100),
            size_ratio=4,
            sortedness_aware=aware,
        ),
        meter=Meter(),
    )
    if variant.startswith("SWARE"):
        capacity = max(64, int(n * buffer_fraction))
        config = SWAREConfig(
            buffer_capacity=capacity, page_size=max(4, min(64, capacity // 8))
        )
        return SortednessAwareIndex(lsm, config), lsm
    return lsm, lsm


def run(n: int = 16_000, buffer_fraction: float = 0.01, seed: int = 7) -> LSMSortednessResult:
    data: Dict[Tuple[str, str], float] = {}
    rows = []
    for label, k_fraction, l_fraction in PRESETS:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
        row = [label]
        for variant in VARIANTS:
            index, lsm = _build(variant, n, buffer_fraction)
            for key in keys:
                index.insert(key, key)
            if isinstance(index, SortednessAwareIndex):
                index.flush_all()
            amplification = lsm.entries_written / n
            data[(label, variant)] = amplification
            row.append(amplification)
        rows.append(row)
    report = format_table(
        ["sortedness"] + VARIANTS,
        rows,
        title=(
            f"Extension §VI — LSM write amplification (n={n}; lower is better;\n"
            "skip = skip-merge compaction, SWARE = buffer wrapped on top)"
        ),
    )
    return LSMSortednessResult(report=report, data=data)


def check(result: LSMSortednessResult) -> None:
    # (i) Plain LSM pays the same write amplification regardless of
    # sortedness — the paper's complaint.
    plain = [result.data[(p, "LSM")] for p in ("sorted", "near-sorted", "scrambled")]
    assert max(plain) / min(plain) < 1.3
    # (ii) Skip-merge rescues fully sorted ingestion only.
    assert result.data[("sorted", "LSM+skip")] < result.data[("sorted", "LSM")] / 2
    assert result.data[("near-sorted", "LSM+skip")] > result.data[("sorted", "LSM+skip")] * 1.5
    # (iii) SWARE + skip-merge extends the benefit to near-sorted data.
    assert (
        result.data[("near-sorted", "SWARE(LSM+skip)")]
        < result.data[("near-sorted", "LSM")] / 2
    )
    # And degrades gracefully for scrambled data (no catastrophic blowup).
    assert result.data[("scrambled", "SWARE(LSM+skip)")] < result.data[("scrambled", "LSM")] * 1.6
