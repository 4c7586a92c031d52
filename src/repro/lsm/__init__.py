"""LSM-tree substrate with optional sortedness-aware (skip-merge)
compaction — the §VI extension of the reproduction."""

from repro.lsm.lsm import LSMConfig, LSMTree
from repro.lsm.run import SortedRun

__all__ = ["LSMConfig", "LSMTree", "SortedRun"]
