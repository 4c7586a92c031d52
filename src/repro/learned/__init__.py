"""``repro.learned`` — model-based competitor indexes for the SOSD bench.

Two :class:`~repro.core.sware.TreeBackend`-compatible structures the paper's
evaluation positions SWARE against:

* :class:`~repro.learned.index.LearnedIndex` — a PGM/FITing-tree style
  piecewise-linear learned index: a sorted data layer plus an
  epsilon-bounded shrinking-cone segmentation (fitted by
  :func:`repro.kernels.pla_fit_segments`), dynamized with a
  sorted delta buffer that merges back on a size threshold;
* :class:`~repro.learned.cracking.CrackingIndex` — database cracking: an
  unsorted column that partitions itself a little more on every query, plus
  the same delta-buffer dynamization.

Both charge the shared :class:`~repro.storage.costmodel.Meter` for every
structural step (model probes, epsilon-window search steps, partition
passes, merges), so ``repro experiment sosd`` ranks them under the same cost
model as the trees. Neither supports page-image checkpointing — see
:class:`~repro.errors.CheckpointUnsupportedError`.
"""

from repro.learned.cracking import CrackingIndex, CrackingIndexConfig
from repro.learned.index import LearnedIndex, LearnedIndexConfig

__all__ = [
    "CrackingIndex",
    "CrackingIndexConfig",
    "LearnedIndex",
    "LearnedIndexConfig",
]
