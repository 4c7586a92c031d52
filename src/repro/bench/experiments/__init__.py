"""The paper's evaluation as data: one table, :data:`EXPERIMENTS`.

Each module here reproduces one paper figure or table. It exposes
``run(n)``, returning a result with a plain-text ``report`` and structured
fields, and ``check(result)``, the paper-shape assertions that result must
satisfy; every other setting of a run is a module constant. The table is
the single declaration of every experiment: the ``n`` its committed report
was generated with, the ``results/<report>.txt`` file that run reproduces
byte for byte, and a reduced size at which the tier-1 suite still evaluates
its check.

``python -m repro experiment NAME`` runs an entry at its pinned ``n``
(``--n`` overrides it), prints the report and evaluates the check;
CI does that for every entry and diffs each report against ``results/``.
The checks are ``assert`` statements, so ``python -O`` skips them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Dict


@dataclass(frozen=True)
class Experiment:
    #: module under ``repro.bench.experiments``; also the CLI name
    name: str
    #: stem of the committed ``results/<report>.txt``
    report: str
    #: ``n`` the committed report was generated with
    n: int
    #: reduced ``n`` at which ``check`` still holds (tier-1)
    quick_n: int

    @property
    def module(self) -> ModuleType:
        return importlib.import_module(f"{__name__}.{self.name}")


EXPERIMENTS: Dict[str, Experiment] = {
    entry.name: entry
    for entry in (
        Experiment("fig09", "fig09_workloads", 2_000, 1_000),
        Experiment("fig10", "fig10_mixed_ratio", 20_000, 2_500),
        Experiment("fig11", "fig11_topinserts", 20_000, 5_000),
        Experiment("fig12", "fig12_raw", 20_000, 4_000),
        Experiment("fig13", "fig13_breakdown", 20_000, 5_000),
        Experiment("fig14", "fig14_kl_grid", 8_000, 1_000),
        Experiment("fig15", "fig15_buffer_size", 20_000, 5_000),
        Experiment("fig16", "fig16_query_sorting", 12_000, 3_000),
        Experiment("fig17", "fig17_bloom", 16_000, 4_000),
        Experiment("fig18", "fig18_ondisk", 12_000, 8_000),
        Experiment("fig19", "fig19_scalability", 32_000, 8_000),  # fig19.SIZES[-1]
        Experiment("fig20", "fig20_betree", 10_000, 1_500),
        Experiment("fig21", "fig21_high_l", 16_000, 4_000),
        Experiment("table1", "table1_split_factor", 20_000, 5_000),
        Experiment("table3", "table3_tpch", 40_000, 5_000),
        Experiment("flush_threshold", "flush_threshold", 12_000, 3_000),
        Experiment("zonemap_ablation", "zonemap_ablation", 16_000, 4_000),
        Experiment("space", "space_amplification", 20_000, 5_000),
        Experiment("lsm_sortedness", "lsm_extension", 16_000, 2_000),
        Experiment("ablation", "ablation_components", 12_000, 3_000),
    )
}
