"""Operation statistics for a sortedness-aware index.

These counters back most of the paper's analysis figures: Fig. 11 (top
inserts vs bulk loads), Fig. 13 (latency breakdown via meter buckets),
Fig. 17 (BF ablation), Table I (split counts, via the tree's own counters),
and Table II (buffer pages scanned per query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SWAREStats:
    """Counters maintained by :class:`~repro.core.sware.SortednessAwareIndex`."""

    inserts: int = 0
    deletes: int = 0
    lookups: int = 0
    range_queries: int = 0

    # Ingestion path.
    flushes: int = 0
    flushes_without_sort: int = 0
    flushes_with_sort: int = 0
    bulk_loaded_entries: int = 0
    top_inserted_entries: int = 0
    tombstones_buffered: int = 0
    tombstones_applied: int = 0
    tombstones_noop: int = 0
    tombstones_dropped: int = 0
    # The §IV-C sorts billed: metered-only, like the filter-walk group below
    # (only ``MeteredSWAREBuffer`` bills a sort and keeps the (K,L) estimate).
    kl_sorts: int = 0
    stable_sorts: int = 0
    sorted_entries: int = 0  #: tail entries billed a §IV-C sort

    # Read path.
    buffer_hits: int = 0
    buffer_tombstone_hits: int = 0
    tree_searches: int = 0
    buffer_skips_by_zonemap: int = 0
    query_sorts: int = 0
    # The §IV-A filter walk's counters, from here to ``zonemap_page_skips``:
    # the walk runs only in ``MeteredSWAREBuffer``, to bill a meter (a tail
    # probe answers from the buffer's slot index), so they count metered
    # lookups only.
    unsorted_pages_scanned: int = 0
    global_bf_negatives: int = 0
    page_bf_negatives: int = 0
    # Probes the filter approved but the scan missed: the numerator of the
    # observed false-positive rate (negatives are the true-negative column —
    # Bloom filters have no false negatives).
    global_bf_false_positives: int = 0
    page_bf_false_positives: int = 0
    zonemap_page_skips: int = 0

    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ingested_entries(self) -> int:
        """Entries that have reached the underlying tree."""
        return self.bulk_loaded_entries + self.top_inserted_entries

    @property
    def bulk_load_fraction(self) -> float:
        total = self.ingested_entries
        return self.bulk_loaded_entries / total if total else 0.0

    @property
    def pages_scanned_per_lookup(self) -> float:
        """Table II's 'pages scanned per query' metric (metered runs only)."""
        return self.unsorted_pages_scanned / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A flat dict of every counter (for reports and tests)."""
        fields = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "extra"
        }
        fields.update(self.extra)
        fields["ingested_entries"] = self.ingested_entries
        fields["bulk_load_fraction"] = self.bulk_load_fraction
        fields["pages_scanned_per_lookup"] = self.pages_scanned_per_lookup
        # Which kernel implementation produced these numbers; a string, so the obs
        # gauge collector (numeric-only) skips it while JSON reports keep it.
        from repro import kernels

        fields["kernel_backend"] = kernels.active_backend()
        return fields
