"""Key domains: the axis the model suites run over.

Keys are int64: every write refuses a key outside it (``KeyRangeError``).
The suites that pin a model run in two domains, under the ids they have
always reported:

* ``numpy`` (:data:`INT64`) — the keys the suite was written with; a bulk
  load is handed them as an int64 column, as a SWARE flush hands them;
* ``python`` (:data:`WIDE`) — the same workloads moved up by
  :data:`WIDE_SHIFT`: keys past 2**53, where a float no longer tells
  neighbouring keys apart (interpolation, hashing and delta arithmetic
  must stay exact), yet inside int64; a bulk load is handed them as a list
  of Python ints, as ``BPlusTree.insert_many`` hands them.

Suites that draw keys shift what they draw (:meth:`KeyDomain.keys`).
Suites written with literal keys move every key up by ``shift``
(:meth:`KeyDomain.wrap`, :class:`Shifted`); the largest literal key, 2**61,
still fits, and order — so every assertion about sortedness, routing and
cost — is unchanged.
"""

from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro import kernels

WIDE_SHIFT = 2**62


class KeyDomain(NamedTuple):
    shift: int  #: added to every key

    def keys(self, strategy):
        """``strategy`` with its draws shifted."""
        return strategy.map(self.shift.__add__) if self.shift else strategy

    def column(self, keys):
        """``keys`` as the column a bulk load is handed in this domain: an
        int64 array, or a list."""
        return list(keys) if self.shift else kernels.key_array(keys)

    def wrap(self, target):
        """``target`` with its callers' keys shifted (itself at shift 0)."""
        return Shifted(target, self.shift) if self.shift else target


INT64 = KeyDomain(0)
WIDE = KeyDomain(WIDE_SHIFT)

#: Parametrizes ``domain`` over :data:`INT64` and :data:`WIDE`.
key_domains = pytest.mark.parametrize(
    "domain", [pytest.param(INT64, id="numpy"), pytest.param(WIDE, id="python")]
)


class Shifted:
    """A buffer or index whose callers' keys are moved up by ``shift``.

    The key-taking verbs take unshifted keys, and every entry, row or flush
    batch comes back unshifted; anything else is the target's own.
    """

    def __init__(self, target, shift: int):
        self._target = target
        self._shift = shift

    def __getattr__(self, name):
        if name == "_target":  # unset: a copy under construction
            raise AttributeError(name)
        return getattr(self._target, name)

    def __len__(self) -> int:
        return len(self._target)

    def _entries(self, entries):
        return [(key - self._shift, *rest) for key, *rest in entries]

    def _batch(self, batch):
        return SimpleNamespace(
            run=batch.run,
            entries=self._entries(batch.entries),
            sorted_without_effort=batch.sorted_without_effort,
            sort_algorithm=batch.sort_algorithm,
        )

    # buffer verbs
    def add(self, key, value, tombstone=False):
        return self._target.add(key + self._shift, value, tombstone)

    def add_many(self, pairs):
        self._target.add_many([(key + self._shift, value) for key, value in pairs])

    def lookup(self, key):
        return self._target.lookup(key + self._shift)

    def range_entries(self, lo, hi):
        return self._entries(self._target.range_entries(lo + self._shift, hi + self._shift))

    def range_run(self, lo, hi):
        versions, n_entries = self._target.range_run(lo + self._shift, hi + self._shift)
        return {key - self._shift: value for key, value in versions.items()}, n_entries

    def prepare_flush(self):
        return self._batch(self._target.prepare_flush())

    def drain(self):
        return self._batch(self._target.drain())

    def all_entries(self):
        return self._entries(self._target.all_entries())

    # index verbs
    def insert(self, key, value):
        return self._target.insert(key + self._shift, value)

    def delete(self, key):
        return self._target.delete(key + self._shift)

    def get(self, key):
        return self._target.get(key + self._shift)

    def range_query(self, lo, hi):
        return self._entries(self._target.range_query(lo + self._shift, hi + self._shift))

    def iter_items(self):
        return iter(self._entries(self._target.iter_items()))
