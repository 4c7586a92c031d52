"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause,
while still being able to discriminate configuration problems from runtime
invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigError(ReproError, ValueError):
    """A configuration object was constructed with invalid parameters."""


class BulkLoadError(ReproError, ValueError):
    """A bulk-load batch violated its precondition.

    Bulk loading in this library is *append-only*: the batch must be sorted
    in non-decreasing key order and every key must be strictly greater than
    the current maximum key of the index.
    """


class KeyRangeError(ReproError, ValueError):
    """A write's key lies outside int64.

    Keys are signed 64-bit integers everywhere: in the index, its WAL
    records, checkpoint pages and the wire. Every write verb, and every
    record encoder, refuses such a key before it changes, logs or sends
    anything; a read of one answers like any other (a miss).
    """


class InvariantViolation(ReproError, AssertionError):
    """An internal structural invariant check failed.

    Raised by the explicit ``check_invariants()`` validators on the tree
    structures; these are exercised heavily by the test suite and are cheap
    enough to call after metamorphic operation sequences.
    """


class CheckpointUnsupportedError(ReproError, TypeError):
    """The backend behind an index cannot be checkpointed.

    The page-image checkpoint format serializes B+-tree nodes; every other
    backend (the Bε-tree, whose nodes buffer messages, and the LSM-tree,
    whose data lives in a memtable and sorted runs) raises this instead of
    failing deep inside the serializer. Persist their contents through the
    WAL or re-ingest instead.
    """


class WALError(ReproError, RuntimeError):
    """The write-ahead log cannot accept the requested operation.

    Raised for lifecycle misuse (appending to a closed log), for
    configuration problems (an unknown fsync policy), and when a frame that
    passes its CRC does not decode (the log is then left untouched). Torn
    tails discovered on replay are *not* errors — they are the expected
    aftermath of a crash and are reported through
    :class:`~repro.storage.wal.WALReplay` instead.
    """
