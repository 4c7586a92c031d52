"""The SWARE-buffer (§IV of the paper).

An in-memory buffer that intercepts every index insert, detects and exploits
arrival sortedness, and periodically *partially* flushes so the underlying
tree can ingest as much as possible through opportunistic bulk loading.

Layout (logical; see Fig. 8 of the paper)::

    [ main sorted section | query-sorted blocks ... | unsorted tail ]
      ^previous_boundary                              ^most recent data

* The **main sorted section** holds the entries retained (and re-sorted) by
  the previous flush; while the buffer has no blocks and no tail, in-order
  appends extend it directly (the paper's ``previous_boundary`` "may only
  move rightward as long as entries are inserted in fully sorted order").
* The first out-of-order insert starts the **unsorted tail**; every later
  insert lands there. The tail carries a global Bloom filter, per-page Bloom
  filters and per-page Zonemaps, all built by the first probe after an append.
* When the tail grows past the query-sorting threshold, the next read query
  freezes it into a **query-sorted block** (§IV-C, inspired by cracking /
  adaptive merging).

``last_sorted_zone`` — the page-aligned prefix of the main section that does
not overlap any later buffer entry — is derived from a running minimum of
everything after the main section (the paper maintains it with the page
Zonemaps; a running min over appends is the same quantity at lower constant
cost, and the page Zonemaps still serve the read path).

Entries are 4-tuples ``(key, seq, value, is_tombstone)``; ``seq`` is a
buffer-wide arrival counter so recency survives re-sorting (sorting is by
``(key, seq)``, making every sort stable and the rightmost duplicate the
newest).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import kernels
from repro.core.config import SWAREConfig
from repro.core.stats import SWAREStats
from repro.core.zonemap import PageZonemaps, Zonemap
from repro.filters.bloom import BloomFilter
from repro.filters.hashing import SharedHash
from repro.search.interpolation import interpolation_search
from repro.sortedness.klsort import kl_sort
from repro.sortedness.metrics import RunningSortednessEstimate
from repro.errors import KLSortCapacityError
from repro.obs import DEFAULT_SIZE_BUCKETS, Observability, current_obs
from repro.storage.costmodel import NULL_METER, Meter

#: Lookup outcomes.
MISS = 0
HIT = 1
TOMBSTONE = 2

Entry = Tuple[int, int, object, bool]  # (key, seq, value, is_tombstone)

#: Unindexed tail keys from which _sync_tail_index() uses the batch kernels;
#: below it their fixed cost exceeds the per-key ``add_shared`` loop.
_SYNC_KERNEL_MIN = 8


@dataclass
class FlushBatch:
    """The outcome of one flush cycle, handed to the index wrapper.

    ``entries`` are sorted by (key, seq) and may contain duplicates and
    tombstones; the wrapper dedups (newest wins) and splits them into a
    bulk-loadable part and top-inserts.
    """

    entries: List[Entry]
    sorted_without_effort: bool  #: True when no sort was needed (cases 1-3)
    sort_algorithm: Optional[str] = None  #: "kl" / "stable" when a sort ran
    retained: int = 0


@dataclass
class _SortedBlock:
    """A query-sorted block: entries sorted by (key, seq) + a key column."""

    entries: List[Entry]
    keys: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.keys:
            self.keys = [entry[0] for entry in self.entries]


class SWAREBuffer:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        stats: Optional[SWAREStats] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or SWAREConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.stats = stats if stats is not None else SWAREStats()
        self.obs = obs if obs is not None else current_obs()
        cfg = self.config
        self._main: List[Entry] = []
        self._main_keys: List[int] = []
        self._blocks: List[_SortedBlock] = []
        self._tail: List[Entry] = []
        #: Running entry count over all three components (``len(self)``).
        self._n = 0
        self._seq = 0
        # Running min over every entry *after* the main section; this is the
        # quantity the paper's Zonemap overlap test maintains for the
        # last_sorted_zone marker.
        self._min_after_main: Optional[int] = None
        self.zonemap = Zonemap()  # whole-buffer range
        self.page_zonemaps = PageZonemaps(cfg.page_size)
        self.global_bf: Optional[BloomFilter] = (
            BloomFilter(cfg.buffer_capacity, cfg.bits_per_entry, cfg.hash_family)
            if cfg.enable_global_bf
            else None
        )
        self._page_bfs: List[BloomFilter] = []
        #: Filter levels a tail append is billed for (``bf_add`` each).
        self._bf_levels = int(cfg.enable_global_bf) + int(cfg.enable_page_bf)
        #: The filters and page Zonemaps cover ``_tail[:_indexed]``.
        self._indexed = 0
        # Set when the tail is known sorted (used by range queries to avoid
        # re-sorting, reset by any new tail append), plus the lazily built
        # key column of that sorted tail for searchsorted range probes.
        self._tail_sorted_cache: Optional[List[Entry]] = None
        self._tail_keys_cache = None
        self.kl_estimate = RunningSortednessEstimate()

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return self.config.buffer_capacity

    @property
    def is_full(self) -> bool:
        return self._n >= self.config.buffer_capacity

    @property
    def is_empty(self) -> bool:
        return self._n == 0

    @property
    def sorted_section_size(self) -> int:
        """Size of the main sorted section (the ``previous_boundary``)."""
        return len(self._main)

    @property
    def tail_size(self) -> int:
        return len(self._tail)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def last_sorted_zone(self) -> int:
        """Page-aligned non-overlapping prefix of the main section (entries)."""
        if not self._main:
            return 0
        if self._min_after_main is None:
            prefix = len(self._main)
        else:
            prefix = bisect_right(self._main_keys, self._min_after_main)
        page = self.config.page_size
        return (prefix // page) * page

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add(self, key: int, value: object, tombstone: bool = False) -> None:
        """Append an entry (the caller checks :attr:`is_full` afterwards)."""
        self.meter.charge("buffer_append")
        self._n += 1
        self._seq += 1
        entry: Entry = (key, self._seq, value, tombstone)
        self.zonemap.update(key)
        self.kl_estimate.observe(key)

        in_order = (
            not self._blocks
            and not self._tail
            and (not self._main_keys or key >= self._main_keys[-1])
        )
        if in_order:
            self._main.append(entry)
            self._main_keys.append(key)
            return

        self._tail.append(entry)
        self._tail_sorted_cache = None
        self._tail_keys_cache = None
        if self._min_after_main is None or key < self._min_after_main:
            self._min_after_main = key
        # Filter upkeep is billed now and done at the first probe; the page
        # Zonemap's is priced into ``buffer_append`` like the whole-buffer
        # Zonemap's above (the in-order path keeps the same aggregates free).
        if self._bf_levels:
            self.meter.charge("bf_add", self._bf_levels)

    def add_many(self, pairs: Sequence[Tuple[int, object]]) -> None:
        """Append a chunk of ``(key, value)`` upserts in arrival order.

        Observably identical to calling :meth:`add` per pair — same entries,
        ``seq`` numbering, component layout, meter charges and (once a probe
        has synced it) Zonemap/Bloom state — but amortized: one sortedness
        check partitions the chunk into an in-order prefix (extends the main
        section directly) and a tail remainder, which pays a single
        ``_tail_sorted_cache`` invalidation and one ``bf_add`` charge.

        The caller is responsible for capacity: like :meth:`add`, this does
        not flush — :class:`~repro.core.sware.SortednessAwareIndex.put_many`
        chunks its input by the remaining capacity so flush boundaries match
        the sequential path exactly.
        """
        n = len(pairs)
        if n == 0:
            return
        self.meter.charge("buffer_append", n)
        self._n += n
        keys = [key for key, _value in pairs]
        observe = self.kl_estimate.observe
        for key in keys:
            observe(key)
        self.zonemap.update(min(keys))
        self.zonemap.update(max(keys))

        seq = self._seq
        split = 0
        if not self._blocks and not self._tail:
            # The longest prefix that continues the in-order run of the main
            # section; everything after it starts the tail.
            last = self._main_keys[-1] if self._main_keys else None
            split = kernels.nondecreasing_prefix_len(keys, last)
            if split:
                main = self._main
                for key, value in pairs[:split]:
                    seq += 1
                    main.append((key, seq, value, False))
                self._main_keys.extend(keys[:split])

        if split < n:
            tail = self._tail
            for key, value in pairs[split:]:
                seq += 1
                tail.append((key, seq, value, False))
            self._tail_sorted_cache = None
            self._tail_keys_cache = None
            lowest = min(keys[split:])
            if self._min_after_main is None or lowest < self._min_after_main:
                self._min_after_main = lowest
            if self._bf_levels:
                self.meter.charge("bf_add", (n - split) * self._bf_levels)
        self._seq = seq

    def _sync_tail_index(self) -> None:
        """Index the tail entries appended since the last probe.

        Afterwards the global filter, the page filters and the page Zonemaps
        hold exactly what per-append upkeep would have built
        (``BloomFilter.add_many`` sets the same bits as ``add``).
        """
        tail = self._tail
        start = self._indexed
        if start == len(tail):
            return
        self._indexed = len(tail)
        keys = [entry[0] for entry in tail[start:]]
        self.page_zonemaps.observe_many(start, keys)
        if not self._bf_levels:
            return
        cfg = self.config
        page_size = cfg.page_size
        page_bfs = self._page_bfs
        if cfg.enable_page_bf:
            while len(page_bfs) * page_size < len(tail):
                page_bfs.append(
                    BloomFilter(page_size, cfg.bits_per_entry, cfg.hash_family, rotation=17)
                )
        global_bf = self.global_bf
        if len(keys) < _SYNC_KERNEL_MIN:
            for position, key in enumerate(keys, start):
                shared = SharedHash(key, cfg.hash_family)
                if global_bf is not None:
                    global_bf.add_shared(shared)
                if cfg.enable_page_bf:
                    page_bfs[position // page_size].add_shared(shared)
            return
        bases = kernels.shared_bases(keys, cfg.hash_family)
        if global_bf is not None:
            global_bf.add_many(keys, bases=bases)
        if cfg.enable_page_bf:
            for page in range(start // page_size, len(page_bfs)):
                lo = max(page * page_size - start, 0)
                hi = (page + 1) * page_size - start
                page_bfs[page].add_many(keys[lo:hi], bases=bases[lo:hi])

    def _reset_tail_index(self) -> None:
        """Empty the filters and page Zonemaps (the tail was just emptied)."""
        self._indexed = 0
        self.page_zonemaps.reset()
        if self.global_bf is not None:
            self.global_bf.clear()
        self._page_bfs = []

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def prepare_flush(self) -> FlushBatch:
        """Run one flush cycle; returns the batch to push into the tree.

        Implements the §IV-A strategy: flush the non-overlapping sorted
        prefix when one exists (no sorting effort), otherwise sort the whole
        buffer and flush ``flush_fraction``. The retained remainder is always
        left fully sorted at the front of the buffer.
        """
        page = self.config.page_size
        total = len(self)
        target = int(self.config.buffer_capacity * self.config.flush_fraction)
        target = max(page, (target // page) * page)
        half = target  # paper language: "half the pages" at the default 50%

        fully_sorted = not self._blocks and not self._tail
        sort_algorithm: Optional[str] = None

        if fully_sorted:
            flush_n = min(half, len(self._main))
            flushed = self._main[:flush_n]
            retained_main = self._main[flush_n:]
            retained = self._merge_retained(retained_main)
            effortless = True
        else:
            prefix = self.last_sorted_zone
            if prefix > 0:
                flush_n = min(prefix, half)
                flushed = self._main[:flush_n]
                retained_main = self._main[flush_n:]
                retained = self._merge_retained(retained_main)
                effortless = True
            else:
                # No flushable prefix: sort everything, flush the fraction.
                merged, sort_algorithm = self._sort_everything()
                flush_n = min(half, len(merged))
                flushed = merged[:flush_n]
                retained = merged[flush_n:]
                effortless = False

        self.stats.flushes += 1
        if effortless:
            self.stats.flushes_without_sort += 1
        else:
            self.stats.flushes_with_sort += 1

        self._reset_after_flush(retained)
        return FlushBatch(
            entries=flushed,
            sorted_without_effort=effortless,
            sort_algorithm=sort_algorithm,
            retained=total - len(flushed),
        )

    def drain(self) -> FlushBatch:
        """Flush *everything* (used by ``flush_all`` and at shutdown)."""
        merged, sort_algorithm = self._sort_everything()
        effortless = sort_algorithm is None
        self._reset_after_flush([])
        return FlushBatch(
            entries=merged,
            sorted_without_effort=effortless,
            sort_algorithm=sort_algorithm,
            retained=0,
        )

    def _sort_tail(self) -> Tuple[List[Entry], Optional[str]]:
        """Sort the unsorted tail, choosing the algorithm per §IV-C."""
        if not self._tail:
            return [], None
        if self._tail_sorted_cache is not None:
            return self._tail_sorted_cache, None
        n = len(self._tail)
        cfg = self.config
        estimate = self.kl_estimate
        use_kl = (
            estimate.k_fraction < cfg.kl_k_threshold
            or estimate.l_fraction < cfg.kl_l_threshold
        )
        algorithm = "stable"
        if use_kl:
            capacity = max(16, int((cfg.kl_k_threshold + cfg.kl_l_threshold) * n) * 2)
            try:
                sorted_tail = kl_sort(self._tail, key=lambda e: (e[0], e[1]), capacity=capacity)
                algorithm = "kl"
                self.stats.kl_sorts += 1
                # O(n log(K+L)) comparisons.
                self.meter.charge(
                    "sort_comparison", n * max(1, (capacity).bit_length())
                )
            except KLSortCapacityError:
                sorted_tail = kernels.sort_tail_entries(self._tail)
                self.stats.stable_sorts += 1
                self.meter.charge("sort_comparison", n * max(1, n.bit_length()))
        else:
            sorted_tail = kernels.sort_tail_entries(self._tail)
            self.stats.stable_sorts += 1
            self.meter.charge("sort_comparison", n * max(1, n.bit_length()))
        self.stats.sorted_entries += n
        self._tail_sorted_cache = sorted_tail
        obs = self.obs
        if obs.enabled:
            obs.event("buffer.tail_sort", n=n, algorithm=algorithm)
        obs.observe_hist("buffer_sort_entries", n, buckets=DEFAULT_SIZE_BUCKETS)
        return sorted_tail, algorithm

    def _merge_streams(self, streams: List[List[Entry]]) -> List[Entry]:
        """Stable k-way merge of (key, seq)-sorted entry lists."""
        streams = [s for s in streams if s]
        if not streams:
            return []
        if len(streams) == 1:
            return list(streams[0])
        merged = kernels.merge_entry_streams(streams)
        self.meter.charge("merge_step", len(merged))
        return merged

    def _merge_retained(self, retained_main: List[Entry]) -> List[Entry]:
        """Sort-merge the retained main rest, the blocks, and the tail."""
        sorted_tail, _ = self._sort_tail()
        streams = [retained_main] + [b.entries for b in self._blocks] + [sorted_tail]
        return self._merge_streams(streams)

    def _sort_everything(self) -> Tuple[List[Entry], Optional[str]]:
        sorted_tail, algorithm = self._sort_tail()
        streams = [self._main] + [b.entries for b in self._blocks] + [sorted_tail]
        return self._merge_streams(streams), algorithm

    def _reset_after_flush(self, retained: List[Entry]) -> None:
        self._main = retained
        self._n = len(retained)
        self._main_keys = [entry[0] for entry in retained]
        self._blocks = []
        self._tail = []
        self._tail_sorted_cache = None
        self._tail_keys_cache = None
        self._min_after_main = None
        self._reset_tail_index()
        self.kl_estimate.reset()
        self.zonemap.reset()
        for entry in retained:
            self.zonemap.update(entry[0])

    # ------------------------------------------------------------------
    # query-driven sorting (§IV-C)
    # ------------------------------------------------------------------
    def should_query_sort(self) -> bool:
        threshold = self.config.query_sorting_threshold
        if threshold >= 1.0:
            return False
        return len(self._tail) >= max(1, int(threshold * self.config.buffer_capacity))

    def query_sort(self) -> None:
        """Freeze the unsorted tail into a new query-sorted block."""
        if not self._tail:
            return
        if self.obs.enabled:
            self.obs.event(
                "buffer.query_sort", tail=len(self._tail), blocks=len(self._blocks)
            )
        sorted_tail, _ = self._sort_tail()
        self._blocks.append(_SortedBlock(entries=sorted_tail))
        self.stats.query_sorts += 1
        self._tail = []
        self._tail_sorted_cache = None
        self._tail_keys_cache = None
        self._reset_tail_index()
        # _min_after_main is unchanged: the same keys remain after main.

    # ------------------------------------------------------------------
    # point lookups (§IV-B, Fig. 6/7)
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Tuple[int, object]:
        """Search the buffer for ``key``; returns (state, value).

        State is :data:`HIT`, :data:`TOMBSTONE` or :data:`MISS`. The newest
        version wins, so the scan order is: unsorted tail (newest pages
        first), query-sorted blocks (newest first), main sorted section.
        """
        if self.config.enable_read_zonemaps:
            self.meter.charge("zonemap_check")
            if not self.zonemap.may_contain(key):
                self.stats.buffer_skips_by_zonemap += 1
                return MISS, None

        state, value = self._search_tail(key)
        if state != MISS:
            return state, value

        for block in reversed(self._blocks):
            idx = self._search_sorted(block.keys, key)
            if idx >= 0:
                entry = block.entries[idx]
                return (TOMBSTONE if entry[3] else HIT), entry[2]

        idx = self._search_sorted(self._main_keys, key)
        if idx >= 0:
            entry = self._main[idx]
            return (TOMBSTONE if entry[3] else HIT), entry[2]
        return MISS, None

    def _search_sorted(self, keys: List[int], key: int) -> int:
        if not keys:
            return -1
        steps: List[int] = []
        idx = interpolation_search(keys, key, steps=steps)
        # Even an immediate out-of-range rejection reads the component's
        # boundary keys, so a probe costs at least one step.
        self.meter.charge("interp_step", max(steps[0], 1) if steps else 1)
        return idx

    def _search_tail(self, key: int) -> Tuple[int, object]:
        """Scan the unsorted tail, gated by the BFs and page Zonemaps."""
        tail = self._tail
        if not tail:
            return MISS, None
        self._sync_tail_index()
        cfg = self.config
        shared: Optional[SharedHash] = None
        global_bf_approved = False
        if self.global_bf is not None:
            self.meter.charge("bf_probe")
            shared = SharedHash(key, cfg.hash_family)
            if not self.global_bf.may_contain_shared(shared):
                self.stats.global_bf_negatives += 1
                if self.obs.enabled:
                    self.obs.event("buffer.global_bf_skip", key=key)
                return MISS, None
            global_bf_approved = True

        page_size = cfg.page_size
        last_page = (len(tail) - 1) // page_size
        for page in range(last_page, -1, -1):
            if cfg.enable_read_zonemaps:
                self.meter.charge("zonemap_check")
                if not self.page_zonemaps.page_may_contain(page, key):
                    self.stats.zonemap_page_skips += 1
                    if self.obs.enabled:
                        self.obs.event("buffer.zonemap_page_skip", key=key, page=page)
                    continue
            page_bf_approved = False
            if cfg.enable_page_bf and page < len(self._page_bfs):
                self.meter.charge("bf_probe")
                if shared is None:
                    shared = SharedHash(key, cfg.hash_family)
                if not self._page_bfs[page].may_contain_shared(shared):
                    self.stats.page_bf_negatives += 1
                    continue
                page_bf_approved = True
            start = page * page_size
            stop = min(start + page_size, len(tail))
            self.stats.unsorted_pages_scanned += 1
            self.meter.charge("scan_entry", stop - start)
            for position in range(stop - 1, start - 1, -1):
                entry = tail[position]
                if entry[0] == key:
                    return (TOMBSTONE if entry[3] else HIT), entry[2]
            if page_bf_approved:
                # Page BF said "maybe" but the page scan found nothing.
                self.stats.page_bf_false_positives += 1
        if global_bf_approved:
            # The global BF approved the probe, yet no tail page held the
            # key: one observed false positive (the FPR numerator).
            self.stats.global_bf_false_positives += 1
        return MISS, None

    # ------------------------------------------------------------------
    # range scans (§IV-C "Supporting Range Queries")
    # ------------------------------------------------------------------
    def range_entries(self, lo: int, hi: int) -> List[Entry]:
        """All buffered entries with lo <= key <= hi, sorted by (key, seq).

        Sorts the tail first (cached until the next out-of-order insert, as
        the paper's dedicated flag prescribes) and merges the qualifying
        slices of every component.
        """
        self.meter.charge("zonemap_check")
        if self.is_empty or not self.zonemap.overlaps(lo, hi):
            return []
        sorted_tail, _ = self._sort_tail()
        streams: List[List[Entry]] = []
        for entries, keys in self._iter_sorted_components(sorted_tail):
            left, right = kernels.searchsorted_range(keys, lo, hi)
            if left < right:
                streams.append(entries[left:right])
            self.meter.charge("interp_step", 2)
        return self._merge_streams(streams)

    def _iter_sorted_components(self, sorted_tail: List[Entry]):
        yield self._main, self._main_keys
        for block in self._blocks:
            yield block.entries, block.keys
        if sorted_tail:
            if self._tail_keys_cache is None:
                self._tail_keys_cache = kernels.key_column(sorted_tail)
            yield sorted_tail, self._tail_keys_cache

    # ------------------------------------------------------------------
    # introspection / debugging
    # ------------------------------------------------------------------
    def all_entries(self) -> List[Entry]:
        """Every buffered entry in arrival-agnostic component order."""
        out = list(self._main)
        for block in self._blocks:
            out.extend(block.entries)
        out.extend(self._tail)
        return out

    def component_sizes(self) -> dict:
        return {
            "main": len(self._main),
            "blocks": [len(b.entries) for b in self._blocks],
            "tail": len(self._tail),
            "last_sorted_zone": self.last_sorted_zone,
        }

    def check_invariants(self) -> None:
        """Validate component ordering invariants (test helper)."""
        from repro.errors import InvariantViolation

        for name, entries in [("main", self._main)] + [
            (f"block{i}", b.entries) for i, b in enumerate(self._blocks)
        ]:
            for i in range(1, len(entries)):
                if (entries[i - 1][0], entries[i - 1][1]) > (entries[i][0], entries[i][1]):
                    raise InvariantViolation(f"{name} not sorted by (key, seq)")
        if self._main_keys != [entry[0] for entry in self._main]:
            raise InvariantViolation("main key column out of sync")
        for block in self._blocks:
            if block.keys != [entry[0] for entry in block.entries]:
                raise InvariantViolation("block key column out of sync")
        components = len(self._main) + sum(len(b.entries) for b in self._blocks) + len(self._tail)
        if self._n != components:
            raise InvariantViolation(f"entry count {self._n} != component sum {components}")
        if self._n > self.config.buffer_capacity:
            raise InvariantViolation("buffer above capacity")
