"""Configuration for the SWARE meta-design.

Defaults follow the paper's §V "Default Setup" and "SWARE Tuning", scaled
per DESIGN.md: the SWARE-buffer flushes 50% when saturated, query-driven
sorting triggers at 10% of the buffer, Bloom filters get 10 bits per entry
at two levels (global + per page), and the (K,L)-adaptive sort is chosen
when the estimated K < 20% or L < 5% of the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class SWAREConfig:
    """Tuning knobs of the SWARE-buffer (§IV-C).

    Attributes
    ----------
    buffer_capacity:
        Buffer size in entries. The paper's default (40 MB = 5M entries) is
        1% of the 500M-entry workload; experiments here size it as a
        fraction of the data in the same way.
    page_size:
        Entries per buffer page — the granularity of Zonemaps, per-page
        Bloom filters and flush alignment.
    flush_fraction:
        Portion of the buffer flushed per cycle (paper default 50%).
    query_sorting_threshold:
        Unsorted-tail size (as a fraction of capacity) at which the next
        read query freezes the tail into a query-sorted block; 1.0 disables
        query-driven sorting (the paper's "w/o Q-S" configuration).
    bits_per_entry:
        Bloom-filter budget for both filter levels.
    enable_global_bf / enable_page_bf:
        Ablation switches for Fig. 17 (naive SA has both off; "Global BF"
        keeps only the global filter).
    enable_read_zonemaps:
        Ablation switch for the §V-D Zonemap experiment: when off, point
        lookups scan unsorted pages without consulting page Zonemaps.
    kl_k_threshold / kl_l_threshold:
        Estimated-sortedness cutoffs below which the flush-time sort uses
        the (K,L)-adaptive algorithm rather than a general stable sort.
    """

    buffer_capacity: int = 4096
    page_size: int = 64
    flush_fraction: float = 0.5
    query_sorting_threshold: float = 0.10
    bits_per_entry: float = 10.0
    enable_global_bf: bool = True
    enable_page_bf: bool = True
    enable_read_zonemaps: bool = True
    kl_k_threshold: float = 0.20
    kl_l_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.buffer_capacity < 2:
            raise ConfigError("buffer_capacity must be >= 2")
        if self.page_size < 1:
            raise ConfigError("page_size must be >= 1")
        if self.page_size > self.buffer_capacity:
            raise ConfigError("page_size cannot exceed buffer_capacity")
        if not 0.05 <= self.flush_fraction <= 0.95:
            raise ConfigError("flush_fraction must be within [0.05, 0.95]")
        if not 0.0 < self.query_sorting_threshold <= 1.0:
            raise ConfigError("query_sorting_threshold must be in (0, 1]")
        if self.bits_per_entry <= 0:
            raise ConfigError("bits_per_entry must be positive")
        if not 0.0 <= self.kl_k_threshold <= 1.0:
            raise ConfigError("kl_k_threshold must be within [0, 1]")
        if not 0.0 <= self.kl_l_threshold <= 1.0:
            raise ConfigError("kl_l_threshold must be within [0, 1]")

    @property
    def query_sort_trigger(self) -> float:
        """Tail size (entries) from which a read freezes the tail into a
        query-sorted block; ``inf`` when query-driven sorting is off."""
        if self.query_sorting_threshold >= 1.0:
            return float("inf")
        return max(1, int(self.query_sorting_threshold * self.buffer_capacity))
