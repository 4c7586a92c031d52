"""The SWARE-buffer (§IV of the paper).

An in-memory buffer that intercepts every index insert, detects and exploits
arrival sortedness, and periodically *partially* flushes so the underlying
tree can ingest as much as possible through opportunistic bulk loading.

Layout (logical; see Fig. 8 of the paper)::

    [ main sorted section | query-sorted blocks ... | unsorted tail ]
      ^previous_boundary                              ^most recent data

:class:`SWAREBuffer` is what runs: it bills nothing and holds none of the
paper's cost-model state. :class:`MeteredSWAREBuffer`, which
``MeteredSortednessAwareIndex`` builds, runs the same buffer and also the
paper's mechanisms, to bill them, checking that each reaches the executed
answer.

* The **main sorted section** holds the entries retained (and re-sorted) by
  the previous flush; while there is no tail, in-order appends extend it
  (the paper's ``previous_boundary`` "may only move rightward as long as
  entries are inserted in fully sorted order").
* The first out-of-order insert starts the **tail**; every later insert
  lands there. A probe answers from ``_slot_of`` (key to newest tail slot),
  a range from ``_tail_order`` (the tail's keys, sorted); both cover the
  whole tail and catch up when read.
* When the open tail segment reaches the query-sorting threshold, the next
  read closes it as a **query-sorted block** (§IV-C). A hash lookup needs no
  sorted copy, so a block is a boundary (``_block_ends``) and the query sort
  moves nothing; the metered buffer sorts a block's keys only to bill
  searching it.
* The paper's tail index (a global Bloom filter, per-page Bloom filters and
  Zonemaps over the open segment) and its (K,L) estimate belong to the
  metered buffer, which builds the filters lazily *by level*: a probe after
  an append brings the page Zonemaps and the global filter up to date, and
  a page filter catches up when a probe consults its page.

``last_sorted_zone`` — the page-aligned prefix of the main section that does
not overlap any later buffer entry — is derived from a running minimum of
everything after the main section (the paper maintains it with the page
Zonemaps; a running min is the same quantity at lower constant cost).

Storage is **columnar**. The tail is two append-only lists (keys, values;
slot ``i``'s ``seq`` follows from the arrival counter); a sorted component
is a :class:`Run` of parallel columns: keys as Python ints for the scalar
searches, the same keys and the ``seq`` numbers as int64 arrays for the
kernels (the index refuses any key outside int64 before it reaches the
buffer), and values, in which a tombstone is :class:`DELETED`. A flush
sorts the whole tail once, stably by key — the tail is newer than main, so
that is ``(key, seq)`` order, the merge of the paper's blocks — and the
rightmost duplicate is the newest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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
from repro.storage.pages import I64_MAX, I64_MIN, check_keys

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
    seqs: object  #: arrival numbers, an int64 array
    col: object  #: ``keys`` again, as an int64 array

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
    seqs = order + seqs if type(seqs) is int else kernels.gather(seqs, order)
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
    #: The tail sort: the one billed ("kl" / "stable") under a meter, else
    #: "stable" when one ran.
    sort_algorithm: Optional[str] = None
    retained: int = 0

    @property
    def entries(self) -> List[Entry]:
        return self.run.entries()


class SWAREBuffer:
    """The executed buffer; see module docstring. It takes no meter."""

    def __init__(
        self,
        config: Optional[SWAREConfig] = None,
        stats: Optional[SWAREStats] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or SWAREConfig()
        self.stats = stats if stats is not None else SWAREStats()
        self.obs = obs if obs is not None else current_obs()
        self._main = _empty_run()
        #: In-order appends are consecutive arrivals — main slot ``i`` gets
        #: seq ``i + shift`` — so they extend ``keys`` / ``vals`` only, and
        #: ``seqs`` / ``col`` catch up in :meth:`_main_run`.
        self._main_seq_shift = 1
        self._tail_keys: List[int] = []
        self._tail_vals: list = []
        #: Query-sorted block ``i`` is tail slots ``[_block_ends[i - 1],
        #: _block_ends[i])``; the open segment starts at ``_open``, the last
        #: end (0 without blocks).
        self._block_ends: List[int] = []
        self._open = 0
        #: Newest tail slot per key, what answers a tail probe; it covers
        #: ``_tail_keys[:_slotted]`` and catches up at the next read.
        self._slot_of: dict = {}
        self._slotted = 0
        #: The tail's keys in sorted order, what answers a range: it covers
        #: ``_tail_keys[:len(_tail_order)]`` and catches up at the next range.
        self._tail_order: List[int] = []
        self._n = 0  #: entries in main and tail (``len(self)``)
        self._seq = 0  #: buffer-wide arrival counter
        self._tombstones = 0  #: DELETED values currently buffered
        #: Running min over every entry *after* the main section: what the
        #: paper's Zonemap overlap test maintains for ``last_sorted_zone``.
        self._min_after_main: Optional[int] = None
        self.zonemap = Zonemap()  # whole-buffer range
        #: tail length from which a read query-sorts: ``_open`` + the trigger
        self._query_sort_len = self.config.query_sort_trigger
        self._capacity = self.config.buffer_capacity  #: the config is frozen

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def is_full(self) -> bool:
        return self._n >= self._capacity

    @property
    def is_empty(self) -> bool:
        return self._n == 0

    @property
    def tail_size(self) -> int:
        """Size of the open tail segment: the paper's unsorted tail."""
        return len(self._tail_keys) - self._open

    @property
    def n_blocks(self) -> int:
        return len(self._block_ends)

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
    def add(self, key: int, value: object, tombstone: bool = False) -> bool:
        """Append an entry; return whether the buffer is now full (the
        caller flushes). A key outside int64 raises ``KeyRangeError``
        before anything changes: only a key past the Zonemap's extremes
        can be one, so the test rides on the Zonemap's own."""
        zonemap = self.zonemap
        if zonemap.min_key is None:
            if not I64_MIN <= key <= I64_MAX:
                check_keys(key, key)
            zonemap.min_key = zonemap.max_key = key
        elif key < zonemap.min_key:
            if key < I64_MIN:
                check_keys(key, key)
            zonemap.min_key = key
        elif key > zonemap.max_key:
            if key > I64_MAX:
                check_keys(key, key)
            zonemap.max_key = key
        n = self._n = self._n + 1
        self._seq += 1
        if tombstone:
            value = DELETED
            self._tombstones += 1

        tail = self._tail_keys
        if not tail:
            main_keys = self._main.keys
            if not main_keys or key >= main_keys[-1]:
                main_keys.append(key)
                self._main.vals.append(value)
                return n >= self._capacity

        tail.append(key)
        self._tail_vals.append(value)
        if self._min_after_main is None or key < self._min_after_main:
            self._min_after_main = key
        return n >= self._capacity

    def add_many(self, pairs: Sequence[Tuple[int, object]]) -> None:
        """Append a chunk of ``(key, value)`` upserts in arrival order.

        Observably identical to calling :meth:`add` per pair — same entries,
        ``seq`` numbering and component layout — but column-at-once: an
        in-order prefix extends the main section, the rest the tail. Like
        :meth:`add` this does not flush: ``put_many`` chunks its input by the
        remaining capacity so flush boundaries match the sequential path
        exactly.
        """
        n = len(pairs)
        if n == 0:
            return
        self._n += n
        self._seq += n
        keys, vals = map(list, zip(*pairs))
        self.zonemap.update(min(keys))
        self.zonemap.update(max(keys))

        if not self._tail_keys:
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

    def _reset_tail(self) -> None:
        """Empty the tail with its blocks, slot index and key order."""
        self._tail_keys = []
        self._tail_vals = []
        self._block_ends = []
        self._query_sort_len -= self._open
        self._open = 0
        self._slot_of = {}
        self._slotted = 0
        self._tail_order = []

    def _catch_up_slots(self) -> None:
        """Bring ``_slot_of`` up to the whole tail; a later slot overwrites
        an earlier one, so the newest wins."""
        tail = self._tail_keys
        n = len(tail)
        have = self._slotted
        if have < n:
            self._slot_of.update(zip(tail[have:], range(have, n)))
            self._slotted = n

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
        fully_sorted = not self._tail_keys
        prefix = len(main.keys) if fully_sorted else self.last_sorted_zone
        sort_algorithm: Optional[str] = None
        effortless = fully_sorted or prefix > 0
        if effortless:
            flush_n = min(prefix, target)
            flushed = main.slice(0, flush_n)
            retained, _ = self._merge_with_tail(main.slice(flush_n))
        else:
            # No flushable prefix: sort everything, flush the fraction.
            merged, sort_algorithm = self._merge_with_tail(main)
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
        merged, sort_algorithm = self._merge_with_tail(self._main_run())
        return self._flush_batch(merged, _empty_run(), sort_algorithm is None, sort_algorithm, 0)

    def _flush_batch(self, flushed: Run, retained: Run, effortless, algorithm, n_retained):
        """Make ``retained`` the new main section and wrap ``flushed``."""
        dead = flushed.vals.count(DELETED) if self._tombstones else 0
        self._tombstones -= dead
        self._main = retained
        self._n = len(retained.keys)
        self._main_seq_shift = self._seq + 1 - self._n
        self._min_after_main = None
        self._reset_tail()
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

    def _merge_with_tail(self, head: Run) -> Tuple[Run, Optional[str]]:
        """``head`` (a slice of main, older than the whole tail) and the tail
        merged by (key, seq), and the sort that ran: ``"stable"``, or None
        when there is no tail. One stable sort of the whole tail is the
        merge of its sorted blocks and open segment."""
        n = len(self._tail_keys)
        if not n:
            return head, None
        col = kernels.key_array(self._tail_keys)
        # The tail is the newest n arrivals: slot i has seq ``_seq - n + 1 + i``.
        tail = _permuted(col, self._tail_vals, self._seq - n + 1, kernels.stable_argsort(col))
        return self._merge_runs([head, tail]), "stable"

    def _merge_runs(self, runs: Sequence[Run]) -> Run:
        """Stable merge of (key, seq)-sorted runs, oldest first, not all empty."""
        runs = [run for run in runs if run.keys]
        if len(runs) == 1:
            return runs[0]
        col = kernels.concat_columns([run.col for run in runs])
        seqs = kernels.concat_columns([run.seqs for run in runs])
        vals = list(chain.from_iterable(run.vals for run in runs))
        return _permuted(col, vals, seqs, kernels.stable_argsort(col))

    # ------------------------------------------------------------------
    # query-driven sorting (§IV-C)
    # ------------------------------------------------------------------
    def should_query_sort(self) -> bool:
        return len(self._tail_keys) >= self._query_sort_len

    def query_sort(self) -> None:
        """Close the open tail segment as a query-sorted block: a boundary,
        O(1), since the slot index and key order cover the whole tail."""
        n = len(self._tail_keys)
        if n == self._open:
            return
        if self.obs.enabled:
            self.obs.event("buffer.query_sort", tail=n - self._open, blocks=self.n_blocks)
        self._block_ends.append(n)
        self._query_sort_len += n - self._open
        self._open = n
        self.stats.query_sorts += 1

    # ------------------------------------------------------------------
    # point lookups (§IV-B, Fig. 6/7)
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Tuple[int, object]:
        """Search the buffer for ``key``; returns (state, value), state being
        :data:`HIT`, :data:`TOMBSTONE` or :data:`MISS`. The newest version
        wins: the tail answers from ``_slot_of``, then the main section by
        bisection when the key lies between its first and last key."""
        if self.config.enable_read_zonemaps:
            low = self.zonemap.min_key
            if low is None or key < low or key > self.zonemap.max_key:
                self.stats.buffer_skips_by_zonemap += 1
                return MISS, None
        if self._tail_keys:
            self._catch_up_slots()
            slot = self._slot_of.get(key, -1)
            if slot >= 0:
                value = self._tail_vals[slot]
                return (TOMBSTONE, None) if value is DELETED else (HIT, value)
        keys = self._main.keys
        # Main is sorted: a key outside its first and last key is not there,
        # and a key inside has a rightmost slot (the newest version) >= 0.
        if keys and keys[0] <= key <= keys[-1]:
            slot = bisect_right(keys, key) - 1
            if keys[slot] == key:
                value = self._main.vals[slot]
                return (TOMBSTONE, None) if value is DELETED else (HIT, value)
        return MISS, None

    # ------------------------------------------------------------------
    # range scans (§IV-C "Supporting Range Queries")
    # ------------------------------------------------------------------
    def range_run(self, lo: int, hi: int) -> Tuple[dict, int]:
        """The newest buffered version per key in [lo, hi] (:class:`DELETED`
        for a tombstone) and the count of buffered entries there, by
        overlay: main's slice, then the tail's keys in range, found in
        ``_tail_order`` (the tail's key column kept sorted, caught up here
        with the appends since the last range) and resolved to their newest
        slot by ``_slot_of``."""
        if not self._n or not self.zonemap.overlaps(lo, hi):
            return {}, 0
        resolved: dict = {}
        keys = self._main.keys
        n_entries = 0
        if keys and lo <= keys[-1] and hi >= keys[0]:  # main is sorted
            left, right = bisect_left(keys, lo), bisect_right(keys, hi)
            n_entries = right - left
            resolved.update(zip(keys[left:right], self._main.vals[left:right]))
        tail = self._tail_keys
        if tail:
            self._catch_up_slots()
            order = self._tail_order
            have = len(order)
            if have < len(tail):
                fresh = tail[have:]
                # An insort is a bisection plus a shift of the keys above it;
                # a re-sort passes over the whole order (timsort takes the
                # sorted prefix as one run) and merges the fresh keys in.
                # Measured on CPython 3.11 for 128 to 4,096 keys, they break
                # even near len(fresh) = sqrt(have) / 2.
                if 4 * len(fresh) * len(fresh) < have:
                    for key in fresh:
                        insort(order, key)
                else:
                    order += fresh
                    order.sort()
            left, right = bisect_left(order, lo), bisect_right(order, hi)
            if right > left:
                keys = order[left:right]
                slots = map(self._slot_of.__getitem__, keys)
                resolved.update(zip(keys, map(self._tail_vals.__getitem__, slots)))
                n_entries += right - left
        return resolved, n_entries

    def range_entries(self, lo: int, hi: int) -> List[Entry]:
        """Buffered entries in [lo, hi] by (key, seq); unbilled (tests and debugging)."""
        return sorted(entry for entry in self.all_entries() if lo <= entry[0] <= hi)

    # ------------------------------------------------------------------
    # introspection / debugging
    # ------------------------------------------------------------------
    def all_entries(self) -> List[Entry]:
        """Every buffered entry: main in (key, seq) order, then the tail in
        arrival order."""
        tail_seqs = list(range(self._seq - len(self._tail_keys) + 1, self._seq + 1))
        tail = Run(self._tail_keys, self._tail_vals, tail_seqs, None)
        return self._main_run().entries() + tail.entries()

    def component_sizes(self) -> dict:
        starts = [0, *self._block_ends]
        return {
            "main": len(self._main.keys),
            "blocks": [stop - start for start, stop in zip(starts, self._block_ends)],
            "tail": self.tail_size,
            "last_sorted_zone": self.last_sorted_zone,
        }

    def check_invariants(self) -> None:
        """Validate component ordering invariants (test helper)."""
        main = self._main_run()
        order = list(zip(main.keys, kernels.as_list(main.seqs)))
        if order != sorted(order):
            raise InvariantViolation("main not sorted by (key, seq)")
        if kernels.as_list(main.col) != main.keys or len(main.vals) != len(order):
            raise InvariantViolation("main columns out of sync")
        n_tail = len(self._tail_keys)
        if n_tail != len(self._tail_vals):
            raise InvariantViolation("tail columns out of sync")
        ends = [0, *self._block_ends]
        if ends != sorted(set(ends)) or ends[-1] != self._open or self._open > n_tail:
            raise InvariantViolation(f"block ends {self._block_ends} out of order")
        if self._n != len(main.keys) + n_tail:
            raise InvariantViolation(f"entry count {self._n} != component sum")
        if self._n > self.config.buffer_capacity:
            raise InvariantViolation("buffer above capacity")
        order = self._tail_order
        if order != sorted(self._tail_keys[: len(order)]):
            raise InvariantViolation("tail key order out of sync with the tail")


#: Estimated-sortedness cutoffs below which a tail sort is billed as the
#: (K,L)-adaptive algorithm rather than a general stable sort.
KL_K_THRESHOLD = 0.20
KL_L_THRESHOLD = 0.05


class MeteredSWAREBuffer(SWAREBuffer):
    """:class:`SWAREBuffer` under a meter, the one class that bills.

    Every verb runs the executed buffer's, then bills what the paper's
    buffer costs for it: ``buffer_append`` and ``bf_add`` per append; §IV-A's
    filter walk of the open segment and §IV-B's interpolation search of each
    block and of main per lookup, each checked against the executed slot
    (:class:`InvariantViolation` on a mismatch); the §IV-C tail sort — (K,L)
    or stable, chosen by the running estimate and the split pass — once per
    open-segment length; and the merges of main, blocks and open segment.
    """

    def __init__(
        self,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        stats: Optional[SWAREStats] = None,
        obs: Optional[Observability] = None,
    ):
        super().__init__(config, stats, obs)
        cfg = self.config
        self.meter = meter if meter is not None else NULL_METER
        #: Over the open segment, page ``p`` its slots ``_open + p * page_size``
        #: onwards; built by the first probe that needs them.
        self.page_zonemaps = PageZonemaps(cfg.page_size)
        self.global_bf: Optional[BloomFilter] = (
            BloomFilter(cfg.buffer_capacity, cfg.bits_per_entry) if cfg.enable_global_bf else None
        )
        self._page_bfs: List[BloomFilter] = []
        #: Filter levels a tail append is billed for (``bf_add`` each).
        self._bf_levels = int(cfg.enable_global_bf) + int(cfg.enable_page_bf)
        #: The global filter and the page Zonemaps cover tail slots
        #: ``[_open, _indexed)``; page filter ``p`` its page's first
        #: ``_page_bfs[p].n_added`` slots.
        self._indexed = 0
        #: Per query-sorted block: its keys sorted, and each one's tail slot.
        self._blocks: List[Tuple[List[int], List[int]]] = []
        #: Tail length the §IV-C sort was last billed at: the paper's flag,
        #: cleared by the next out-of-order insert.
        self._tail_billed = 0
        #: Fed at sort time, the only time it is read: in-order main appends
        #: from ``_observed_main`` on, then the tail past the last billed sort.
        self.kl_estimate = RunningSortednessEstimate()
        self._observed_main = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add(self, key: int, value: object, tombstone: bool = False) -> bool:
        n = len(self._tail_keys)
        full = super().add(key, value, tombstone)
        self.meter.charge("buffer_append")
        # Filter upkeep is billed now and done at the first probe; the page
        # Zonemap's is priced into ``buffer_append`` like the whole-buffer one.
        if self._bf_levels and len(self._tail_keys) > n:
            self.meter.charge("bf_add", self._bf_levels)
        return full

    def add_many(self, pairs: Sequence[Tuple[int, object]]) -> None:
        if not pairs:
            return
        self.meter.charge("buffer_append", len(pairs))
        n = len(self._tail_keys)
        super().add_many(pairs)
        if self._bf_levels and len(self._tail_keys) > n:
            self.meter.charge("bf_add", (len(self._tail_keys) - n) * self._bf_levels)

    def _sync_tail_index(self) -> None:
        """Index the open-segment keys appended since the last probe: page
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
        self.page_zonemaps.observe_many(start - self._open, fresh)
        cfg = self.config
        if cfg.enable_page_bf:
            page_bfs = self._page_bfs
            while len(page_bfs) * cfg.page_size < n - self._open:
                page_bfs.append(BloomFilter(cfg.page_size, cfg.bits_per_entry, rotation=17))
        if self.global_bf is not None:
            self.global_bf.add_many(fresh)

    def _sync_page_filter(self, page: int, stop: int) -> BloomFilter:
        """Page ``page``'s filter, caught up to open-segment slot ``stop``;
        its own ``n_added`` is the watermark."""
        bf = self._page_bfs[page]
        have = page * self.config.page_size + bf.n_added
        if have < stop:
            bf.add_many(self._tail_keys[self._open + have : self._open + stop])
        return bf

    def _reset_open_index(self) -> None:
        """Empty the filters and page Zonemaps for a new open segment."""
        if self.global_bf is not None and self.global_bf.n_added:
            self.global_bf.clear()  # only a probe fills it
        self._indexed = self._open
        self.page_zonemaps.reset()
        self._page_bfs = []

    def _reset_tail(self) -> None:
        """A flush's reset, after the retained run became main: the blocks,
        the filters and the (K,L) estimate start over with the tail."""
        super()._reset_tail()
        self._blocks = []
        self._tail_billed = 0
        self._reset_open_index()
        self.kl_estimate.reset()
        self._observed_main = self._n

    # ------------------------------------------------------------------
    # sorting: billed, not run
    # ------------------------------------------------------------------
    def _bill_tail_sort(self, start: int) -> Optional[str]:
        """Bill the §IV-C sort of the open segment (tail slots from
        ``start``) without running it: the (K,L) estimate, the algorithm
        choice, the charges, once per tail length. Returns the algorithm
        billed, or None when this length already was."""
        keys = self._tail_keys
        n = len(keys)
        if n == self._tail_billed:
            return None
        estimate = self.kl_estimate
        main_keys = self._main.keys
        if self._observed_main < len(main_keys):
            estimate.observe_many(main_keys[self._observed_main :])
            self._observed_main = len(main_keys)
        estimate.observe_many(keys[self._tail_billed :])
        self._tail_billed = n
        m = n - start
        algorithm, work = "stable", m * max(1, m.bit_length())
        if estimate.k_fraction < KL_K_THRESHOLD or estimate.l_fraction < KL_L_THRESHOLD:
            # (K,L)-sort's split pass decides; its merge and the general
            # stable sort produce the same (key, seq) order, so only the
            # accounting differs.
            capacity = max(16, int((KL_K_THRESHOLD + KL_L_THRESHOLD) * m) * 2)
            if kl_split_fits(keys[start:] if start else keys, capacity):
                algorithm, work = "kl", m * max(1, capacity.bit_length())  # O(n log(K+L))
        if algorithm == "kl":
            self.stats.kl_sorts += 1
        else:
            self.stats.stable_sorts += 1
        self.meter.charge("sort_comparison", work)
        self.stats.sorted_entries += m
        obs = self.obs
        if obs.enabled:
            obs.event("buffer.tail_sort", n=m, algorithm=algorithm)
        obs.observe_hist("buffer_sort_entries", m, buckets=DEFAULT_SIZE_BUCKETS)
        return algorithm

    def _merge_with_tail(self, head: Run) -> Tuple[Run, Optional[str]]:
        """The executed merge, billed as the paper's: the open segment's
        sort, then a merge of ``head``, the blocks and the sorted open
        segment when more than one of them holds entries. Returns the
        algorithm billed (None when nothing was)."""
        open_n = self.tail_size
        algorithm = self._bill_tail_sort(self._open) if open_n else None
        merged, _ = super()._merge_with_tail(head)
        if bool(head.keys) + len(self._blocks) + bool(open_n) > 1:
            self.meter.charge("merge_step", len(merged.keys))
        return merged, algorithm

    def query_sort(self) -> None:
        """Close the open segment as the executed buffer does, and bill
        sorting it: the block's keys are sorted here only so that a metered
        lookup can run §IV-B's search over them."""
        start, stop = self._open, len(self._tail_keys)
        super().query_sort()
        if start == stop:
            return
        self._bill_tail_sort(start)
        tail = self._tail_keys
        slots = sorted(range(start, stop), key=tail.__getitem__)  # stable: newest rightmost
        self._blocks.append(([tail[slot] for slot in slots], slots))
        self._reset_open_index()

    # ------------------------------------------------------------------
    # point lookups: answered by the executed buffer, then billed
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Tuple[int, object]:
        """The executed lookup, billed as the paper's (Fig. 6/7): the
        Zonemap, §IV-A's filter walk of the open segment, then §IV-B's
        interpolation search of each block (newest first) and of main, up
        to the component holding the newest version. Each billed search
        must reach the slot the executed lookup answered from. Only reads
        reach a lookup, so it bills into ``buffer_search`` itself."""
        meter = self.meter
        with meter.bucket("buffer_search"):
            gated = self.config.enable_read_zonemaps
            if gated:
                meter.charge("zonemap_check")
            answer = super().lookup(key)
            if gated and not self.zonemap.may_contain(key):
                return answer
            slot = self._slot_of.get(key, -1)
            start = self._open
            if len(self._tail_keys) > start:
                if self._search_tail(key) != (slot if slot >= start else -1):
                    raise InvariantViolation(f"the billed tail walk misses slot {slot} of {key!r}")
                if slot >= start:
                    return answer
            ends = self._block_ends
            for i in range(len(self._blocks) - 1, -1, -1):
                keys, slots = self._blocks[i]
                # At least one step: a rejection reads the boundary keys.
                billed, steps = interpolation_probe(keys, key)
                meter.charge("interp_step", max(steps, 1))
                inside = (ends[i - 1] if i else 0) <= slot < ends[i]
                if (slots[billed] if billed >= 0 else -1) != (slot if inside else -1):
                    raise InvariantViolation(f"the billed search misses slot {slot} of {key!r}")
                if inside:
                    return answer
            keys = self._main.keys
            if keys:
                billed, steps = interpolation_probe(keys, key)
                meter.charge("interp_step", max(steps, 1))
                slot = bisect_right(keys, key) - 1
                if billed != (slot if slot >= 0 and keys[slot] == key else -1):
                    raise InvariantViolation(
                        f"the billed search misses main slot {slot} of {key!r}")
            return answer

    def _search_tail(self, key: int) -> int:
        """§IV-A's walk of the non-empty open segment, run to bill a meter:
        the global filter, then per page (newest first) its Zonemap and
        filter, then a scan. Returns the newest open-segment slot holding
        ``key`` or -1; it syncs the filters, which only this walk reads."""
        tail = self._tail_keys
        self._sync_tail_index()
        cfg = self.config
        meter = self.meter
        stats = self.stats
        base: Optional[int] = None
        global_bf = self.global_bf
        if global_bf is not None:
            meter.charge("bf_probe")
            base = shared_base(key)
            if not global_bf.may_contain_base(base):
                stats.global_bf_negatives += 1
                if self.obs.enabled:
                    self.obs.event("buffer.global_bf_skip", key=key)
                return -1

        page_size = cfg.page_size
        n = len(tail)
        first = self._open
        for page in range((n - first - 1) // page_size, -1, -1):
            if cfg.enable_read_zonemaps:
                meter.charge("zonemap_check")
                if not self.page_zonemaps.page_may_contain(page, key):
                    stats.zonemap_page_skips += 1
                    if self.obs.enabled:
                        self.obs.event("buffer.zonemap_page_skip", key=key, page=page)
                    continue
            start = first + page * page_size
            stop = min(start + page_size, n)
            if cfg.enable_page_bf:
                meter.charge("bf_probe")
                if base is None:
                    base = shared_base(key)
                if not self._sync_page_filter(page, stop - first).may_contain_base(base):
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
    # range scans: resolved by the executed buffer, then billed
    # ------------------------------------------------------------------
    def range_run(self, lo: int, hi: int) -> Tuple[dict, int]:
        """The executed range, billed as §IV-C's: the Zonemap, the open
        segment's sort (once until the next insert, the paper's flag), two
        searches per component — main, each block, the open segment — and a
        merge when more than one holds entries in range. Only reads reach
        it, so it bills into ``buffer_search`` itself."""
        meter = self.meter
        with meter.bucket("buffer_search"):
            meter.charge("zonemap_check")
            resolved, n_entries = super().range_run(lo, hi)
            if not self._n or not self.zonemap.overlaps(lo, hi):
                return resolved, n_entries
            open_n = self.tail_size
            if open_n:
                self._bill_tail_sort(self._open)
            counts = [bisect_right(keys, hi) - bisect_left(keys, lo)
                      for keys in (self._main.keys, *(keys for keys, _slots in self._blocks))]
            if open_n:
                counts.append(n_entries - sum(counts))
            meter.charge("interp_step", 2 * len(counts))
            if len(counts) - counts.count(0) > 1:
                meter.charge("merge_step", n_entries)
            return resolved, n_entries
