"""Deterministic fault injection for the durability subsystem.

The crash-recovery acceptance test needs to kill the "process" at *every*
I/O boundary the WAL and checkpoint paths cross, and to leave behind the
kind of wreckage a real crash leaves — a torn final write, a rename that
never happened, a truncate that never ran. This module provides that as a
seeded, fully deterministic harness:

* :class:`FaultyEnv` owns a global mutating-I/O counter shared by every
  file it opens. Operation ``crash_at`` raises :class:`SimulatedCrash`;
  for a ``write`` the crash first commits a random *prefix* of the data
  (the torn write), for ``flush``/``fsync``/``truncate``/``replace`` it
  fires before the effect. After the crash every further I/O through the
  environment raises immediately — the process is dead — and every file
  the environment opened is closed without a flush: a dead process writes
  nothing more, so bytes still in a file object's buffer are lost.
* :class:`FaultyFile` wraps a real file object and routes its mutating
  calls through the environment's counter. Reads can also be shortened
  (``short_read_at``) to exercise torn-read handling on the replay side.

Determinism contract: the same ``(seed, crash_at)`` against the same
workload produces byte-identical on-disk wreckage, so every crash point in
an acceptance sweep is reproducible in isolation. The counters are
lock-guarded, so with I/O from a second thread (the server's off-loop
group-commit fsync) exactly one operation is still the crash point — which
one is then up to the interleaving, so sweeps drive their I/O from one thread.
A call another thread has in flight when the crash closes its file raises
:class:`SimulatedCrash` too.

Durability model: bytes are considered durable once the file object has
handed them to the OS (its buffer filled, or ``flush`` / ``fsync`` ran;
page-cache loss is not simulated), and bytes still buffered at the crash
are lost; the torn write at the crash point is what models a partially
persisted frame. Under the WAL's default
``fsync_policy="always"`` the distinction is immaterial — an acknowledged
append has already fsynced.

:class:`SimulatedCrash` deliberately does **not** subclass ``ReproError``:
library code that politely catches its own exception family must never
swallow a crash.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Optional


class SimulatedCrash(Exception):
    """The fault harness killed the process at an I/O boundary."""


class FaultyEnv:
    """A seeded crash schedule shared by every file opened through it.

    Parameters
    ----------
    crash_at:
        Index (0-based) of the mutating I/O operation that crashes. ``None``
        never crashes (useful for counting a workload's total I/O ops).
    seed:
        Seeds the torn-write cut point.
    short_read_at:
        Optional index (0-based, separate counter) of a read operation to
        shorten to a random prefix.
    """

    def __init__(
        self,
        crash_at: Optional[int] = None,
        seed: int = 0,
        short_read_at: Optional[int] = None,
    ):
        self.crash_at = crash_at
        self.rng = random.Random(seed)
        self.short_read_at = short_read_at
        self.ops = 0  # mutating I/O operations performed so far
        self.reads = 0
        self.crashed = False
        self._files: list = []  # the real file objects opened, still open
        self._lock = threading.Lock()  # the counters are read-modify-write

    # -- scheduling --------------------------------------------------------
    def _check_alive(self) -> None:
        if self.crashed:
            raise SimulatedCrash("I/O after simulated crash")

    def _tick(self) -> bool:
        """Advance the op counter; True when this op is the crash point."""
        with self._lock:
            self._check_alive()
            op = self.ops
            self.ops += 1
            if self.crash_at is not None and op >= self.crash_at:
                self.crashed = True
                return True
            return False

    def _crash(self, message: str) -> SimulatedCrash:
        """Kill the process: close every file it opened without flushing
        (closing the innermost raw file drops the buffers above it, a text
        file's included); returns the exception."""
        with self._lock:
            files, self._files = self._files, []
        for fobj in files:
            binary = getattr(fobj, "buffer", fobj)
            getattr(binary, "raw", binary).close()
        return SimulatedCrash(message)

    def _tick_read(self) -> bool:
        with self._lock:
            self._check_alive()
            op = self.reads
            self.reads += 1
            return self.short_read_at is not None and op == self.short_read_at

    # -- environment surface ------------------------------------------------
    def open(self, path: str, mode: str = "rb") -> "FaultyFile":
        self._check_alive()
        fobj = open(path, mode)
        with self._lock:
            self._files = [f for f in self._files if not f.closed]
            self._files.append(fobj)
        return FaultyFile(fobj, self)

    def replace(self, src: str, dst: str) -> None:
        """``os.replace`` with a crash point *before* the atomic rename."""
        if self._tick():
            raise self._crash(f"crash before replace({src!r}, {dst!r})")
        os.replace(src, dst)


class FaultyFile:
    """A file wrapper whose mutating calls pass through a :class:`FaultyEnv`."""

    def __init__(self, fobj, env: FaultyEnv):
        self._file = fobj
        self._env = env

    def _call(self, method, *args):
        """``method(*args)`` on the real file; a crash that closed the file
        under it (from another thread) raises :class:`SimulatedCrash`."""
        try:
            return method(*args)
        except ValueError:
            self._env._check_alive()
            raise

    # -- mutating operations (crash-scheduled) -------------------------------
    def write(self, data: bytes) -> int:
        if self._env._tick():
            # Torn write: a random strict prefix reaches the platter.
            cut = self._env.rng.randrange(len(data)) if data else 0
            if cut:
                self._file.write(data[:cut])
                self._file.flush()
            raise self._env._crash(f"torn write: {cut}/{len(data)} bytes persisted")
        return self._call(self._file.write, data)

    def flush(self) -> None:
        if self._env._tick():
            raise self._env._crash("crash before flush")
        self._call(self._file.flush)

    def fsync(self) -> None:
        if self._env._tick():
            raise self._env._crash("crash before fsync")
        self._call(self._file.flush)
        os.fsync(self._call(self._file.fileno))

    def truncate(self, size: Optional[int] = None) -> int:
        if self._env._tick():
            raise self._env._crash("crash before truncate")
        return self._call(self._file.truncate, size)

    # -- reads (short-read injection, never crash-scheduled) -----------------
    def read(self, size: int = -1) -> bytes:
        if self._env._tick_read():
            data = self._call(self._file.read, size)
            cut = self._env.rng.randrange(len(data)) if data else 0
            return data[:cut]
        return self._call(self._file.read, size)

    # -- passthrough ---------------------------------------------------------
    def seek(self, offset: int) -> int:
        self._env._check_alive()
        return self._call(self._file.seek, offset)

    def tell(self) -> int:
        return self._call(self._file.tell)

    def fileno(self) -> int:
        return self._call(self._file.fileno)

    def close(self) -> None:
        # Always allowed, even post-crash (then a no-op: the crash closed the
        # file): cleanup paths must not re-raise.
        self._file.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
