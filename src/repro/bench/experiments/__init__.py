"""The paper's evaluation as data: one table, :data:`EXPERIMENTS`.

Each module here reproduces one paper figure or table. It exposes
``run(**kwargs)``, returning a result with a plain-text ``report`` and
structured fields, and ``check(result)``, the paper-shape assertions that
result must satisfy. The table is the single declaration of every
experiment: the kwargs its committed report was generated with, the
``results/<report>.txt`` file that run reproduces byte for byte, and a
reduced size at which the tier-1 suite still evaluates its check.

``python -m repro experiment NAME`` runs an entry at its pinned kwargs
(``--n`` overrides the size), prints the report and evaluates the check;
CI does that for every entry and diffs each report against ``results/``.
The checks are ``assert`` statements, so ``python -O`` skips them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Mapping, Optional


@dataclass(frozen=True)
class Experiment:
    #: module under ``repro.bench.experiments``; also the CLI name
    name: str
    #: stem of the committed ``results/<report>.txt``
    report: str
    #: run kwargs the committed report was generated with
    kwargs: Mapping[str, int]
    #: reduced ``n`` at which ``check`` still holds (tier-1)
    quick_n: int

    @property
    def module(self) -> ModuleType:
        return importlib.import_module(f"{__name__}.{self.name}")

    def run_kwargs(self, n: Optional[int] = None) -> Dict[str, int]:
        """The pinned kwargs, with ``n`` overriding the size when given."""
        return dict(self.kwargs) if n is None else {**self.kwargs, "n": n}


EXPERIMENTS: Dict[str, Experiment] = {
    entry.name: entry
    for entry in (
        Experiment("fig09", "fig09_workloads", {"n": 2_000}, 1_000),
        Experiment("fig10", "fig10_mixed_ratio", {"n": 20_000}, 2_500),
        Experiment("fig11", "fig11_topinserts", {"n": 20_000}, 5_000),
        Experiment("fig12", "fig12_raw", {"n": 20_000}, 4_000),
        Experiment("fig13", "fig13_breakdown", {"n": 20_000}, 5_000),
        Experiment("fig14", "fig14_kl_grid", {"n": 8_000}, 1_000),
        Experiment("fig15", "fig15_buffer_size", {"n": 20_000}, 5_000),
        Experiment("fig16", "fig16_query_sorting", {"n": 12_000}, 3_000),
        Experiment("fig17", "fig17_bloom", {"n": 16_000}, 4_000),
        Experiment("fig18", "fig18_ondisk", {"n": 12_000}, 8_000),
        Experiment("fig19", "fig19_scalability", {}, 8_000),
        Experiment("fig20", "fig20_betree", {"n": 10_000}, 1_500),
        Experiment("fig21", "fig21_high_l", {"n": 16_000}, 4_000),
        Experiment("table1", "table1_split_factor", {"n": 20_000}, 5_000),
        Experiment("table3", "table3_tpch", {"n": 40_000}, 5_000),
        Experiment("flush_threshold", "flush_threshold", {"n": 12_000}, 3_000),
        Experiment("zonemap_ablation", "zonemap_ablation", {"n": 16_000}, 4_000),
        Experiment("space", "space_amplification", {"n": 20_000}, 5_000),
        Experiment("lsm_sortedness", "lsm_extension", {"n": 16_000}, 2_000),
        Experiment("ablation", "ablation_components", {"n": 12_000}, 3_000),
    )
}
