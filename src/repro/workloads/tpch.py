"""Synthetic TPC-H lineitem date columns (§V-H).

The paper's TPC-H experiment sorts lineitem by ``shipdate`` and indexes
``receiptdate``; because dbgen derives the three dates from ``orderdate``
with small bounded offsets (ship = order + U[1, 121], commit = order +
U[30, 90], receipt = ship + U[1, 30]), sorting on one date leaves the others
*near-sorted* — the paper measures K = 96.67% and L = 0.1% on receiptdate
for 6M tuples.

dbgen itself is unavailable offline (DESIGN.md substitution #3); this module
generates date columns with the same derivation rules, reproducing the same
clustering phenomenon. Dates are integers (days since epoch) scaled to a few
thousand distinct values; duplicates are expected and intentional — real
date columns are dense — but indexes in this library store unique keys, so
:func:`receiptdate_keys` disambiguates duplicates into unique integer keys
while *preserving displacement structure* (key = date * spread + counter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

#: dbgen generates orderdates over ~2,406 days (1992-01-01 .. 1998-08-02).
ORDERDATE_DAYS = 2406


@dataclass(frozen=True)
class LineitemDates:
    """Parallel date columns for a synthetic lineitem table."""

    orderdate: List[int]
    shipdate: List[int]
    commitdate: List[int]
    receiptdate: List[int]

    @property
    def n(self) -> int:
        return len(self.orderdate)


def generate_lineitem_dates(n: int, seed: int = 0) -> LineitemDates:
    """Generate ``n`` lineitem rows' date columns with dbgen's rules."""
    rng = random.Random(seed)
    orderdate = [rng.randrange(ORDERDATE_DAYS) for _ in range(n)]
    shipdate = [d + rng.randint(1, 121) for d in orderdate]
    commitdate = [d + rng.randint(30, 90) for d in orderdate]
    receiptdate = [s + rng.randint(1, 30) for s in shipdate]
    return LineitemDates(orderdate, shipdate, commitdate, receiptdate)


def sorted_by_shipdate(dates: LineitemDates) -> LineitemDates:
    """Reorder all columns by (shipdate, original position) — the paper's
    clustering step that leaves receiptdate near-sorted."""
    order = sorted(range(dates.n), key=lambda i: (dates.shipdate[i], i))
    return LineitemDates(
        orderdate=[dates.orderdate[i] for i in order],
        shipdate=[dates.shipdate[i] for i in order],
        commitdate=[dates.commitdate[i] for i in order],
        receiptdate=[dates.receiptdate[i] for i in order],
    )


#: Keys per receipt date: a date's ``i``-th occurrence becomes ``date * SPREAD + i``.
SPREAD = 1 << 20


def receiptdate_keys(n: int, seed: int = 0) -> List[int]:
    """Unique integer keys whose arrival order mirrors receiptdate's
    near-sortedness after sorting lineitem by shipdate.

    Each duplicate date d becomes ``d * SPREAD + occurrence_counter`` —
    order-preserving within a date, so the (K,L) character of the column is
    unchanged while keys become unique (as the indexes require).
    """
    dates = sorted_by_shipdate(generate_lineitem_dates(n, seed=seed))
    seen: dict = {}
    keys = []
    for date in dates.receiptdate:
        occurrence = seen.get(date, 0)
        seen[date] = occurrence + 1
        keys.append(date * SPREAD + occurrence)
    return keys

