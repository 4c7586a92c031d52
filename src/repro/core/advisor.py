"""Configuration advisor: the paper's §V findings as executable guidance.

The evaluation section is effectively a tuning guide — Fig. 14 is described
as "a guideline for applicability of the SA B+-tree design". This module
encodes those findings:

* the SWARE buffer should scale with L (§V-D: a larger buffer captures more
  displacement; even a buffer ≪ L helps);
* flush 50% per cycle (§V-D sweep);
* split at 80:20 for (near-)sorted arrivals, 50:50 for scrambled (Table I);
* query-driven sorting at 10% of the buffer when the workload has reads
  (Fig. 16);
* in memory, scrambled data or a read share above ~99% favours the plain
  B+-tree (Fig. 10: "the worst-case guarantees of a classical B+-tree are
  sufficient"; §V-B: "if a mixed workload is read-dominated (writes < 1%),
  the incurred read overhead outweighs the benefits").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.config import SWAREConfig


@dataclass
class Recommendation:
    """The advisor's output: which index, how to tune it, and why."""

    use_sware: bool
    buffer_fraction: float
    flush_fraction: float
    split_factor: float
    query_sorting_threshold: float
    rationale: List[str] = field(default_factory=list)

    def sware_config(self, n_entries: int, page_size: int = 64) -> SWAREConfig:
        """Materialize a SWAREConfig for a dataset of ``n_entries``."""
        capacity = max(16, int(n_entries * self.buffer_fraction))
        if capacity < 2 * page_size:
            page_size = max(4, capacity // 2)
        capacity = max(2 * page_size, (capacity // page_size) * page_size)
        return SWAREConfig(
            buffer_capacity=capacity,
            page_size=page_size,
            flush_fraction=self.flush_fraction,
            query_sorting_threshold=self.query_sorting_threshold,
        )

    def build(self, n_entries: int, meter=None):
        """Construct the recommended index, ready for ingestion."""
        from repro.core.factory import make_baseline_btree, make_sa_btree

        if not self.use_sware:
            return make_baseline_btree(meter=meter)
        return make_sa_btree(
            self.sware_config(n_entries),
            split_factor=self.split_factor,
            meter=meter,
        )


def recommend(
    k_fraction: float,
    l_fraction: float,
    read_fraction: float = 0.5,
) -> Recommendation:
    """Recommend an index + tuning for a workload's measured sortedness."""
    if not 0.0 <= k_fraction <= 1.0 or not 0.0 <= l_fraction <= 1.0:
        raise ValueError("k_fraction and l_fraction must be within [0, 1]")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be within [0, 1]")

    rationale: List[str] = []
    scrambled = k_fraction >= 0.85 and l_fraction >= 0.40

    use_sware = True
    if read_fraction > 0.99:
        use_sware = False
        rationale.append(
            "read share > 99%: buffer overhead outweighs ingestion benefits (§V-B)"
        )
    elif scrambled:
        use_sware = False
        rationale.append(
            "data is effectively scrambled: the classical B+-tree's "
            "worst-case guarantees are sufficient in memory (§V-A)"
        )
    else:
        rationale.append(
            f"sortedness (K={k_fraction:.0%}, L={l_fraction:.0%}) is exploitable "
            "by opportunistic bulk loading (Fig. 10/14)"
        )

    # Buffer scales with L; even a buffer well below L pays off (§V-D/F).
    buffer_fraction = min(0.05, max(0.005, l_fraction / 4))
    if l_fraction > 0.25:
        rationale.append(
            "large displacement (L): sizing the buffer at the 5% cap to "
            "capture overlap (Fig. 21)"
        )

    split_factor = 0.5 if scrambled else 0.8
    if not scrambled:
        rationale.append("80:20 splits minimize leaf splits for near-sorted data (Table I)")
    else:
        rationale.append("textbook 50:50 splits are safest for scrambled data (Table I)")

    query_sorting_threshold = 0.10 if read_fraction > 0.0 else 1.0
    if read_fraction == 0.0:
        rationale.append("write-only workload: query-driven sorting never triggers")

    return Recommendation(
        use_sware=use_sware,
        buffer_fraction=buffer_fraction,
        flush_fraction=0.5,
        split_factor=split_factor,
        query_sorting_threshold=query_sorting_threshold,
        rationale=rationale,
    )

