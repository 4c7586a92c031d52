"""A slow disk for tests: an ``open``-compatible factory whose files take
``delay`` seconds to fsync, through the ``fsync`` hook that
:func:`repro.storage.wal.fsync_file` honours.

``delay`` starts at 0 so building an index is fast; a test raises it once
the state it wants is set up. ``started`` is set as a slow fsync begins,
``threads`` names the thread each one ran on, and ``in_flight`` counts
fsyncs between begin and end. Setting ``error`` (an exception) makes every
later fsync fail with it, after the delay, as a failing disk would.
"""

import asyncio
import os
import threading
import time


class SlowFsync:
    def __init__(self):
        self.delay = 0.0
        self.error = None
        self.started = threading.Event()
        self.in_flight = 0
        self.threads = []

    def __call__(self, path, mode="r"):
        return _SlowFile(open(path, mode), self)

    async def wait_started(self, timeout=5.0):
        """Await, without blocking the event loop, the start of an fsync."""
        deadline = time.monotonic() + timeout
        while not self.started.is_set():
            assert time.monotonic() < deadline, "no fsync started"
            await asyncio.sleep(0.001)


class _SlowFile:
    def __init__(self, fobj, disk):
        self._file = fobj
        self._disk = disk

    def fsync(self):
        disk = self._disk
        disk.in_flight += 1
        if disk.delay:
            disk.threads.append(threading.current_thread().name)
            disk.started.set()
        try:
            time.sleep(disk.delay)
            if disk.error is not None:
                raise disk.error
            self._file.flush()
            os.fsync(self._file.fileno())  # raises on a closed descriptor
        finally:
            disk.in_flight -= 1

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()
