"""Workload specifications and operation streams.

The paper's evaluation (§V) drives indexes with two workload shapes:

* **raw** — ingest N entries, then run point lookups / range scans
  (Fig. 12);
* **mixed** — ingest the first 80% of the data, then interleave the
  remaining inserts with uniform random non-empty point lookups at a given
  read:write ratio (Fig. 10, 14, 18, 20, Tables I/III).

Operations are plain tuples ``(op, a, b)`` with ``op`` one of the
:data:`INSERT`/:data:`LOOKUP`/:data:`RANGE`/:data:`DELETE` constants — cheap
to generate and to dispatch in the runner's hot loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

INSERT = 0
LOOKUP = 1
RANGE = 2
DELETE = 3

Operation = Tuple[int, int, int]  # (op, key_or_lo, payload_or_hi)


def value_for(key: int) -> int:
    """The deterministic payload used across workloads (tests rely on it)."""
    return key * 2 + 1


@dataclass(frozen=True)
class MixedWorkloadSpec:
    """A paper-style mixed workload over a given arrival-ordered key list.

    ``read_fraction`` is reads/(reads+writes) over the *interleaved phase*;
    the paper expresses it as ratios like "25:75" (reads:writes).
    """

    keys: Sequence[int]
    read_fraction: float
    preload_fraction: float = 0.8
    seed: int = 0
    max_reads: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction < 1.0:
            raise ValueError("read_fraction must be within [0, 1)")
        if not 0.0 <= self.preload_fraction <= 1.0:
            raise ValueError("preload_fraction must be within [0, 1]")

    @property
    def n_preload(self) -> int:
        return int(len(self.keys) * self.preload_fraction)

    def operations(self) -> Iterator[Operation]:
        """Yield the full operation stream (preload, then interleaved)."""
        keys = self.keys
        n_preload = self.n_preload
        for key in keys[:n_preload]:
            yield (INSERT, key, value_for(key))

        remaining = list(keys[n_preload:])
        n_writes = len(remaining)
        r = self.read_fraction
        n_reads = int(n_writes * r / (1.0 - r)) if n_writes else 0
        if self.max_reads is not None:
            n_reads = min(n_reads, self.max_reads)
        rng = random.Random(self.seed)
        # Interleave by drawing from a shuffled schedule so reads and writes
        # mix uniformly rather than in phases. Lookups are uniform random
        # over everything ingested *so far* (non-empty lookups over the
        # whole current domain, as in the paper's benchmark) — which means
        # recently ingested, still-buffered keys are eligible targets.
        schedule = [INSERT] * n_writes + [LOOKUP] * n_reads
        rng.shuffle(schedule)
        write_pos = 0
        for op in schedule:
            if op == INSERT:
                key = remaining[write_pos]
                write_pos += 1
                yield (INSERT, key, value_for(key))
            else:
                ingested = n_preload + write_pos
                if ingested == 0:
                    continue
                key = keys[rng.randrange(ingested)]
                yield (LOOKUP, key, 0)

    def materialize(self) -> List[Operation]:
        return list(self.operations())


@dataclass(frozen=True)
class RawWorkloadSpec:
    """Ingest everything, then query (the paper's Fig. 12 shape).

    ``n_lookups`` uniform random non-empty point lookups follow ingestion;
    optionally ``range_selectivities`` adds range scans whose width is the
    given fraction of the key domain.
    """

    keys: Sequence[int]
    n_lookups: int = 0
    n_ranges: int = 0
    range_selectivity: float = 0.0
    seed: int = 0

    def lookup_operations(self) -> Iterator[Operation]:
        rng = random.Random(self.seed)
        keys = self.keys
        for _ in range(self.n_lookups):
            yield (LOOKUP, keys[rng.randrange(len(keys))], 0)

    def range_operations(self) -> Iterator[Operation]:
        if self.n_ranges == 0:
            return
        rng = random.Random(self.seed + 1)
        lo_domain = min(self.keys)
        hi_domain = max(self.keys)
        width = max(1, int((hi_domain - lo_domain) * self.range_selectivity))
        for _ in range(self.n_ranges):
            lo = rng.randint(lo_domain, max(lo_domain, hi_domain - width))
            yield (RANGE, lo, lo + width)
