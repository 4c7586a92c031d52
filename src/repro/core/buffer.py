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
  insert lands there. A tail probe is answered from ``_slot_of`` (key to
  newest slot), which catches up with the appends at probe time. The
  paper's tail index — a global Bloom filter, per-page Bloom filters and
  per-page Zonemaps — is cost-model state: only under a meter does a probe
  walk it (§IV-A), and it is built lazily *by level* then: the first
  metered probe after an append brings the page Zonemaps and the global
  filter up to date, and a page filter catches up when a probe consults
  that page.
* When the tail grows past the query-sorting threshold, the next read query
  freezes it into a **query-sorted block** (§IV-C, inspired by cracking /
  adaptive merging).

``last_sorted_zone`` — the page-aligned prefix of the main section that does
not overlap any later buffer entry — is derived from a running minimum of
everything after the main section (the paper maintains it with the page
Zonemaps; a running min is the same quantity at lower constant cost).

Storage is **columnar** — no per-entry objects. The tail is two append-only
lists (keys, values; slot ``i``'s ``seq`` follows from the arrival counter);
a sorted component is a :class:`Run` of parallel columns: keys as Python
ints for the scalar searches, the same keys and the ``seq`` numbers as kernel
columns (int64 arrays, or lists once a key outside int64 demotes them), and
a value list in which a tombstone
is the marker :class:`DELETED`. Components are sorted and merged oldest
first, so a stable sort by key alone orders by ``(key, seq)`` and the
rightmost duplicate is the newest. A range query sorts no component and
merges none: the meter bills §IV-C's tail sort and merge, and an overlay
of the components, oldest first, resolves the newest version per key. Only
the tail's key column is kept sorted for it (``_tail_order``): extended
with the appends since the last range and re-sorted, never rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro import kernels
from repro.core.config import SWAREConfig
from repro.core.stats import SWAREStats
from repro.core.zonemap import PageZonemaps, Zonemap
from repro.errors import InvariantViolation
from repro.filters.bloom import BloomFilter
from repro.filters.hashing import shared_base
from repro.search.interpolation import interpolation_probe
from repro.sortedness.klsort import kl_split_fits
from repro.sortedness.metrics import RunningSortednessEstimate
from repro.obs import DEFAULT_SIZE_BUCKETS, Observability, current_obs
from repro.storage.costmodel import NULL_METER, Meter

MISS, HIT, TOMBSTONE = 0, 1, 2  #: lookup outcomes

Entry = Tuple[int, int, object, bool]  # (key, seq, value, is_tombstone)


class DELETED:
    """What a tombstone holds in a value column. A class, not an instance:
    it keeps its identity through ``copy.deepcopy`` and ``pickle``."""


class Run(NamedTuple):
    """Parallel columns ordered by ``(key, seq)``: a sorted component or a
    slice of one."""

    keys: List[int]  #: Python ints: the scalar-search column
    vals: list  #: values, :class:`DELETED` for a tombstone
    seqs: object  #: arrival numbers, a kernel column
    col: object  #: ``keys`` again, as the kernels' column type

    def slice(self, start: int, stop: Optional[int] = None) -> "Run":
        return Run(
            self.keys[start:stop], self.vals[start:stop],
            self.seqs[start:stop], self.col[start:stop],
        )

    def entries(self) -> List[Entry]:
        """The run as entry tuples (tests and debugging)."""
        return [
            (key, seq, None if value is DELETED else value, value is DELETED)
            for key, seq, value in zip(self.keys, kernels.as_list(self.seqs), self.vals)
        ]


def _empty_run() -> Run:
    return Run([], [], [], [])


def _permuted(col, vals: list, seqs, order) -> Run:
    """The columns reordered by ``order``; an int ``seqs`` stands for the
    consecutive arrival numbers starting there (the tail's implied column)."""
    if type(seqs) is not int:
        seqs = kernels.gather(seqs, order)
    elif type(order) is list:
        seqs = [seqs + i for i in order]
    else:
        seqs = order + seqs
    col = kernels.gather(col, order)
    return Run(kernels.as_list(col), kernels.gather(vals, order), seqs, col)


@dataclass
class FlushBatch:
    """One flush cycle's outcome: columns sorted by (key, seq) that may repeat
    keys and hold ``tombstones`` :class:`DELETED` values; the index wrapper
    dedups (newest wins) and splits them into bulk load and top-inserts."""

    run: Run  #: ``col`` / ``vals`` are what the wrapper routes
    tombstones: int
    sorted_without_effort: bool  #: True when no sort was needed (cases 1-3)
    sort_algorithm: Optional[str] = None  #: "kl" / "stable" when a sort ran
    retained: int = 0

    @property
    def entries(self) -> List[Entry]:
        return self.run.entries()


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
        self._main = _empty_run()
        #: In-order appends are consecutive arrivals — main slot ``i`` gets
        #: seq ``i + shift`` — so they extend ``keys`` / ``vals`` only, and
        #: ``seqs`` / ``col`` catch up in :meth:`_main_run`.
        self._main_seq_shift = 1
        self._blocks: List[Run] = []
        self._tail_keys: List[int] = []
        self._tail_vals: list = []
        #: Newest tail slot per key, what answers a tail probe; it covers
        #: ``_tail_keys[:_slotted]`` and catches up at the next probe.
        self._slot_of: dict = {}
        self._slotted = 0
        #: The tail's keys in sorted order, what answers a range: it covers
        #: ``_tail_keys[:len(_tail_order)]`` and catches up at the next range.
        self._tail_order: List[int] = []
        #: Tail length the §IV-C sort was last billed at: the paper's flag,
        #: cleared by the next out-of-order insert.
        self._tail_billed = 0
        self._n = 0  #: entries over all three components (``len(self)``)
        self._seq = 0  #: buffer-wide arrival counter
        self._tombstones = 0  #: DELETED values currently buffered
        #: Running min over every entry *after* the main section: what the
        #: paper's Zonemap overlap test maintains for ``last_sorted_zone``.
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
        #: The global filter and the page Zonemaps cover ``_tail_keys[:_indexed]``;
        #: page filter ``p`` its page's first ``_page_bfs[p].n_added`` slots.
        self._indexed = 0
        self.query_sort_at = cfg.query_sort_trigger  #: tail size that triggers
        #: Fed at sort time, the only time it is read: in-order main appends
        #: from ``_observed_main`` on, then the tail past the last sorted run.
        self.kl_estimate = RunningSortednessEstimate()
        self._observed_main = 0

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
        return len(self._main.keys)

    @property
    def tail_size(self) -> int:
        return len(self._tail_keys)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def last_sorted_zone(self) -> int:
        """Page-aligned non-overlapping prefix of the main section (entries)."""
        keys = self._main.keys
        low = self._min_after_main
        prefix = len(keys) if low is None else bisect_right(keys, low)
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
        if tombstone:
            value = DELETED
            self._tombstones += 1
        zonemap = self.zonemap
        if zonemap.min_key is None:
            zonemap.min_key = zonemap.max_key = key
        elif key < zonemap.min_key:
            zonemap.min_key = key
        elif key > zonemap.max_key:
            zonemap.max_key = key

        tail = self._tail_keys
        if not tail and not self._blocks:
            main_keys = self._main.keys
            if not main_keys or key >= main_keys[-1]:
                main_keys.append(key)
                self._main.vals.append(value)
                return

        tail.append(key)
        self._tail_vals.append(value)
        if self._min_after_main is None or key < self._min_after_main:
            self._min_after_main = key
        # Filter upkeep is billed now and done at the first metered probe;
        # the page Zonemap's is priced into ``buffer_append`` like the
        # whole-buffer one.
        if self._bf_levels:
            self.meter.charge("bf_add", self._bf_levels)

    def add_many(self, pairs: Sequence[Tuple[int, object]]) -> None:
        """Append a chunk of ``(key, value)`` upserts in arrival order.

        Observably identical to calling :meth:`add` per pair — same entries,
        ``seq`` numbering, component layout, meter charges and (once a probe
        has synced it) Zonemap/Bloom state — but column-at-once: an in-order
        prefix extends the main section, the rest the tail, with one
        ``bf_add`` charge. Like :meth:`add` this does not flush: ``put_many``
        chunks its input by the remaining capacity so flush boundaries match
        the sequential path exactly.
        """
        n = len(pairs)
        if n == 0:
            return
        self.meter.charge("buffer_append", n)
        self._n += n
        self._seq += n
        keys, vals = map(list, zip(*pairs))
        self.zonemap.update(min(keys))
        self.zonemap.update(max(keys))

        split = 0
        if not self._blocks and not self._tail_keys:
            # The longest prefix that continues the in-order run of the main
            # section; everything after it starts the tail.
            main_keys = self._main.keys
            split = kernels.nondecreasing_prefix_len(keys, main_keys[-1] if main_keys else None)
            main_keys.extend(keys[:split])
            self._main.vals.extend(vals[:split])
            if split == n:
                return
            keys = keys[split:]
            vals = vals[split:]

        self._tail_keys.extend(keys)
        self._tail_vals.extend(vals)
        lowest = min(keys)
        if self._min_after_main is None or lowest < self._min_after_main:
            self._min_after_main = lowest
        if self._bf_levels:
            self.meter.charge("bf_add", (n - split) * self._bf_levels)

    def _sync_tail_index(self) -> None:
        """Index the tail keys appended since the last metered probe: page
        Zonemaps and global filter; a page filter catches up in
        :meth:`_sync_page_filter` when a probe consults it. Bits are only
        ever added, so a filter synced up to slot ``n`` answers exactly as
        one kept per append (``add_many`` sets ``add``'s bits)."""
        keys = self._tail_keys
        start = self._indexed
        n = len(keys)
        if start == n:
            return
        self._indexed = n
        fresh = keys[start:] if start else keys
        self.page_zonemaps.observe_many(start, fresh)
        cfg = self.config
        if cfg.enable_page_bf:
            page_bfs = self._page_bfs
            while len(page_bfs) * cfg.page_size < n:
                page_bfs.append(
                    BloomFilter(cfg.page_size, cfg.bits_per_entry, cfg.hash_family, rotation=17)
                )
        if self.global_bf is not None:
            self.global_bf.add_many(fresh)

    def _sync_page_filter(self, page: int, stop: int) -> BloomFilter:
        """Page ``page``'s filter, caught up to tail slot ``stop``; its own
        ``n_added`` is the watermark."""
        bf = self._page_bfs[page]
        have = page * self.config.page_size + bf.n_added
        if have < stop:
            bf.add_many(self._tail_keys[have:stop])
        return bf

    def _reset_tail(self) -> None:
        """Empty the tail with its slot index, key order, filters and page
        Zonemaps."""
        self._tail_keys = []
        self._tail_vals = []
        self._slot_of = {}
        self._slotted = 0
        self._tail_order = []
        self._tail_billed = 0
        if self._indexed and self.global_bf is not None:
            self.global_bf.clear()  # only a metered probe fills it
        self._indexed = 0
        self.page_zonemaps.reset()
        self._page_bfs = []

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def prepare_flush(self) -> FlushBatch:
        """Run one flush cycle; returns the batch to push into the tree.

        The §IV-A strategy: flush the non-overlapping sorted prefix when one
        exists (no sorting effort), otherwise sort the whole buffer and flush
        ``flush_fraction``; the retained remainder is left fully sorted at
        the front of the buffer."""
        page = self.config.page_size
        total = self._n
        target = int(self.config.buffer_capacity * self.config.flush_fraction)
        target = max(page, (target // page) * page)  # "half the pages" at 50%

        main = self._main_run()
        fully_sorted = not self._blocks and not self._tail_keys
        prefix = len(main.keys) if fully_sorted else self.last_sorted_zone
        sort_algorithm: Optional[str] = None
        effortless = fully_sorted or prefix > 0
        if effortless:
            flush_n = min(prefix, target)
            flushed = main.slice(0, flush_n)
            sorted_tail, _ = self._sort_tail()
            retained = self._merge_runs([main.slice(flush_n), *self._blocks, sorted_tail])
        else:
            # No flushable prefix: sort everything, flush the fraction.
            merged, sort_algorithm = self._sort_everything()
            flush_n = min(target, len(merged.keys))
            flushed = merged.slice(0, flush_n)
            retained = merged.slice(flush_n)

        self.stats.flushes += 1
        if effortless:
            self.stats.flushes_without_sort += 1
        else:
            self.stats.flushes_with_sort += 1
        return self._flush_batch(flushed, retained, effortless, sort_algorithm, total - flush_n)

    def drain(self) -> FlushBatch:
        """Flush *everything* (used by ``flush_all`` and at shutdown)."""
        merged, sort_algorithm = self._sort_everything()
        return self._flush_batch(merged, _empty_run(), sort_algorithm is None, sort_algorithm, 0)

    def _flush_batch(self, flushed: Run, retained: Run, effortless, algorithm, n_retained):
        """Make ``retained`` the new main section and wrap ``flushed``."""
        dead = flushed.vals.count(DELETED) if self._tombstones else 0
        self._tombstones -= dead
        self._main = retained
        self._n = len(retained.keys)
        self._main_seq_shift = self._seq + 1 - self._n
        self._observed_main = self._n
        self._blocks = []
        self._min_after_main = None
        self._reset_tail()
        self.kl_estimate.reset()
        zonemap = self.zonemap
        zonemap.min_key = retained.keys[0] if self._n else None
        zonemap.max_key = retained.keys[-1] if self._n else None
        return FlushBatch(flushed, dead, effortless, algorithm, n_retained)

    def _main_run(self) -> Run:
        """The main section with ``seqs`` and ``col`` caught up with the
        in-order appends since the last flush."""
        main = self._main
        n = len(main.keys)
        have = len(main.seqs)
        if have < n:
            shift = self._main_seq_shift
            seqs = kernels.key_array(range(have + shift, n + shift))
            if have:
                seqs = kernels.concat_columns([main.seqs, seqs])
            main = self._main = Run(main.keys, main.vals, seqs, kernels.key_array(main.keys))
        return main

    def _bill_tail_sort(self) -> Optional[str]:
        """Bill the §IV-C tail sort without running it (the (K,L) estimate,
        the algorithm choice, the charges), once per tail length; returns the
        algorithm billed, or None when this length already was."""
        keys = self._tail_keys
        n = len(keys)
        if n == self._tail_billed:
            return None
        cfg = self.config
        estimate = self.kl_estimate
        main_keys = self._main.keys
        if self._observed_main < len(main_keys):
            estimate.observe_many(main_keys[self._observed_main :])
            self._observed_main = len(main_keys)
        estimate.observe_many(keys[self._tail_billed :])
        self._tail_billed = n
        algorithm, work = "stable", n * max(1, n.bit_length())
        if estimate.k_fraction < cfg.kl_k_threshold or estimate.l_fraction < cfg.kl_l_threshold:
            # (K,L)-sort's split pass decides; its merge and the general
            # stable sort produce the same (key, seq) order, so one kernel
            # sorts either way and only the accounting differs.
            capacity = max(16, int((cfg.kl_k_threshold + cfg.kl_l_threshold) * n) * 2)
            if kl_split_fits(keys, capacity):
                algorithm, work = "kl", n * max(1, capacity.bit_length())  # O(n log(K+L))
        if algorithm == "kl":
            self.stats.kl_sorts += 1
        else:
            self.stats.stable_sorts += 1
        self.meter.charge("sort_comparison", work)
        self.stats.sorted_entries += n
        obs = self.obs
        if obs.enabled:
            obs.event("buffer.tail_sort", n=n, algorithm=algorithm)
        obs.observe_hist("buffer_sort_entries", n, buckets=DEFAULT_SIZE_BUCKETS)
        return algorithm

    def _sort_tail(self) -> Tuple[Optional[Run], Optional[str]]:
        """The tail sorted by (key, seq) (None when empty) and the algorithm
        :meth:`_bill_tail_sort` billed for it."""
        n = len(self._tail_keys)
        if not n:
            return None, None
        algorithm = self._bill_tail_sort()
        col = kernels.key_array(self._tail_keys)
        # The tail is the newest n arrivals: slot i has seq ``_seq - n + 1 + i``.
        run = _permuted(col, self._tail_vals, self._seq - n + 1, kernels.stable_argsort(col))
        return run, algorithm

    def _merge_runs(self, runs: Sequence[Optional[Run]]) -> Run:
        """Stable merge of (key, seq)-sorted runs given oldest first."""
        runs = [run for run in runs if run is not None and run.keys]
        if not runs:
            return _empty_run()
        if len(runs) == 1:
            return runs[0]
        col = kernels.concat_columns([run.col for run in runs])
        seqs = kernels.concat_columns([run.seqs for run in runs])
        vals = list(chain.from_iterable(run.vals for run in runs))
        merged = _permuted(col, vals, seqs, kernels.stable_argsort(col))
        self.meter.charge("merge_step", len(merged.keys))
        return merged

    def _sort_everything(self) -> Tuple[Run, Optional[str]]:
        sorted_tail, algorithm = self._sort_tail()
        return self._merge_runs([self._main_run(), *self._blocks, sorted_tail]), algorithm

    # ------------------------------------------------------------------
    # query-driven sorting (§IV-C)
    # ------------------------------------------------------------------
    def should_query_sort(self) -> bool:
        return len(self._tail_keys) >= self.query_sort_at

    def query_sort(self) -> None:
        """Freeze the unsorted tail into a new query-sorted block."""
        if not self._tail_keys:
            return
        if self.obs.enabled:
            self.obs.event("buffer.query_sort", tail=self.tail_size, blocks=self.n_blocks)
        self._blocks.append(self._sort_tail()[0])
        self.stats.query_sorts += 1
        self._reset_tail()
        # _min_after_main is unchanged: the same keys remain after main.

    # ------------------------------------------------------------------
    # point lookups (§IV-B, Fig. 6/7)
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Tuple[int, object]:
        """Search the buffer for ``key``; returns (state, value), state being
        :data:`HIT`, :data:`TOMBSTONE` or :data:`MISS`. The newest version
        wins, so the search order is: unsorted tail, query-sorted blocks
        (newest first), main sorted section. The tail answers from
        ``_slot_of``, a sorted run by bisection. Under a meter, §IV-A's
        filter walk and §IV-B's interpolation search run too, to bill what
        the paper's lookup costs, and each must reach the executed slot."""
        meter = self.meter
        if self.config.enable_read_zonemaps:
            meter.charge("zonemap_check")
            low = self.zonemap.min_key
            if low is None or key < low or key > self.zonemap.max_key:
                self.stats.buffer_skips_by_zonemap += 1
                return MISS, None
        metered = meter is not NULL_METER
        tail = self._tail_keys
        if tail:
            n = len(tail)
            have = self._slotted
            if have < n:
                # A later slot overwrites an earlier one: the newest wins.
                self._slot_of.update(zip(tail[have:], range(have, n)))
                self._slotted = n
            slot = self._slot_of.get(key, -1)
            if metered and self._search_tail(key) != slot:
                raise InvariantViolation(f"the billed tail walk misses slot {slot} of {key!r}")
            if slot >= 0:
                value = self._tail_vals[slot]
                return (TOMBSTONE, None) if value is DELETED else (HIT, value)
        for run in reversed((self._main, *self._blocks)):
            keys = run.keys
            if not keys:
                continue
            slot = bisect_right(keys, key) - 1  # the rightmost: the newest version
            if slot < 0 or keys[slot] != key:
                slot = -1
            if metered:
                # At least one step: a rejection reads the boundary keys.
                billed, steps = interpolation_probe(keys, key)
                meter.charge("interp_step", max(steps, 1))
                if billed != slot:
                    raise InvariantViolation(f"the billed search misses slot {slot} of {key!r}")
            if slot >= 0:
                value = run.vals[slot]
                return (TOMBSTONE, None) if value is DELETED else (HIT, value)
        return MISS, None

    def _search_tail(self, key: int) -> int:
        """§IV-A's walk of the non-empty unsorted tail, run to bill a meter:
        the global filter, then per page (newest first) its Zonemap and
        filter, then a scan. Returns the newest tail slot holding ``key``
        or -1; it syncs the filters, which only this walk reads."""
        tail = self._tail_keys
        if self._indexed != len(tail):
            self._sync_tail_index()
        cfg = self.config
        meter = self.meter
        stats = self.stats
        base: Optional[int] = None
        global_bf = self.global_bf
        if global_bf is not None:
            meter.charge("bf_probe")
            base = shared_base(key, cfg.hash_family)
            if not global_bf.may_contain_base(base):
                stats.global_bf_negatives += 1
                if self.obs.enabled:
                    self.obs.event("buffer.global_bf_skip", key=key)
                return -1

        page_size = cfg.page_size
        n = len(tail)
        for page in range((n - 1) // page_size, -1, -1):
            if cfg.enable_read_zonemaps:
                meter.charge("zonemap_check")
                if not self.page_zonemaps.page_may_contain(page, key):
                    stats.zonemap_page_skips += 1
                    if self.obs.enabled:
                        self.obs.event("buffer.zonemap_page_skip", key=key, page=page)
                    continue
            start = page * page_size
            stop = min(start + page_size, n)
            if cfg.enable_page_bf:
                meter.charge("bf_probe")
                if base is None:
                    base = shared_base(key, cfg.hash_family)
                if not self._sync_page_filter(page, stop).may_contain_base(base):
                    stats.page_bf_negatives += 1
                    continue
            stats.unsorted_pages_scanned += 1
            meter.charge("scan_entry", stop - start)
            slots = tail[start:stop]
            if key in slots:
                slots.reverse()  # the newest duplicate sits rightmost
                return stop - 1 - slots.index(key)
            if cfg.enable_page_bf:
                # Page BF said "maybe" but the page scan found nothing.
                stats.page_bf_false_positives += 1
        if global_bf is not None:
            # The global BF approved the probe, yet no tail page held the
            # key: one observed false positive (the FPR numerator).
            stats.global_bf_false_positives += 1
        return -1

    # ------------------------------------------------------------------
    # range scans (§IV-C "Supporting Range Queries")
    # ------------------------------------------------------------------
    def range_run(self, lo: int, hi: int) -> Tuple[dict, int]:
        """The newest buffered version per key in [lo, hi] (:class:`DELETED`
        for a tombstone) and the count of buffered entries there. The meter
        bills §IV-C — sort the tail once until the next insert (the paper's
        flag), merge the qualifying slices — but the versions come from an
        overlay, oldest first: main's and each block's slice, then the
        tail's keys in range, found in ``_tail_order`` (the tail's key
        column kept sorted, caught up here) and resolved to their newest
        slot by ``_slot_of``."""
        meter = self.meter
        meter.charge("zonemap_check")
        if not self._n or not self.zonemap.overlaps(lo, hi):
            return {}, 0
        tail = self._tail_keys
        if tail:
            self._bill_tail_sort()
        resolved: dict = {}
        n_entries = parts = 0
        for run in (self._main, *self._blocks):
            keys = run.keys
            left, right = bisect_left(keys, lo), bisect_right(keys, hi)
            meter.charge("interp_step", 2)
            if right > left:
                resolved.update(zip(keys[left:right], run.vals[left:right]))
                n_entries += right - left
                parts += 1
        if tail:
            n = len(tail)
            have = self._slotted
            if have < n:
                # A later slot overwrites an earlier one: the newest wins.
                self._slot_of.update(zip(tail[have:], range(have, n)))
                self._slotted = n
            order = self._tail_order
            if len(order) < n:
                # Timsort takes the sorted prefix as one run: linear in it.
                order += tail[len(order):]
                order.sort()
            left, right = bisect_left(order, lo), bisect_right(order, hi)
            meter.charge("interp_step", 2)
            if right > left:
                keys = order[left:right]
                slots = map(self._slot_of.__getitem__, keys)
                resolved.update(zip(keys, map(self._tail_vals.__getitem__, slots)))
                n_entries += right - left
                parts += 1
        if parts > 1:
            meter.charge("merge_step", n_entries)
        return resolved, n_entries

    def range_entries(self, lo: int, hi: int) -> List[Entry]:
        """Buffered entries in [lo, hi] by (key, seq); unbilled (tests and debugging)."""
        return sorted(entry for entry in self.all_entries() if lo <= entry[0] <= hi)

    # ------------------------------------------------------------------
    # introspection / debugging
    # ------------------------------------------------------------------
    def all_entries(self) -> List[Entry]:
        """Every buffered entry in arrival-agnostic component order."""
        tail_seqs = list(range(self._seq - len(self._tail_keys) + 1, self._seq + 1))
        tail = Run(self._tail_keys, self._tail_vals, tail_seqs, None)
        runs = (self._main_run(), *self._blocks, tail)
        return [entry for run in runs for entry in run.entries()]

    def component_sizes(self) -> dict:
        return {
            "main": len(self._main.keys),
            "blocks": [len(block.keys) for block in self._blocks],
            "tail": len(self._tail_keys),
            "last_sorted_zone": self.last_sorted_zone,
        }

    def check_invariants(self) -> None:
        """Validate component ordering invariants (test helper)."""
        for name, run in [("main", self._main_run())] + [
            (f"block{i}", block) for i, block in enumerate(self._blocks)
        ]:
            order = list(zip(run.keys, kernels.as_list(run.seqs)))
            if order != sorted(order):
                raise InvariantViolation(f"{name} not sorted by (key, seq)")
            if kernels.as_list(run.col) != run.keys or len(run.vals) != len(order):
                raise InvariantViolation(f"{name} columns out of sync")
        if len(self._tail_keys) != len(self._tail_vals):
            raise InvariantViolation("tail columns out of sync")
        sizes = self.component_sizes()
        components = sizes["main"] + sum(sizes["blocks"]) + sizes["tail"]
        if self._n != components:
            raise InvariantViolation(f"entry count {self._n} != component sum {components}")
        if self._n > self.config.buffer_capacity:
            raise InvariantViolation("buffer above capacity")
