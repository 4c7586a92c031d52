"""The asyncio front door over a :class:`ShardedSortednessAwareIndex`.

One :class:`IndexServer` owns the sharded index and serves the binary
protocol of :mod:`repro.net.protocol` over TCP. Connections are handled
concurrently; within a connection requests are *pipelined* — the client
may send many frames without waiting, and responses are matched back by
``request_id``, not by order (write acks routinely overtake later reads
under group commit).

**Group commit / ack-after-fsync.** Mutating opcodes (``MUTATING_OPS``)
are applied to the index immediately, but under ``fsync_policy="batch"``
their OK responses are *parked* instead of being written back. A
background commit loop, woken by the first parked ack, fsyncs every
unsynced shard WAL via :meth:`ShardedSortednessAwareIndex.commit` and only
then releases the acks it had parked *before the fsync started*. The
client therefore never observes an acknowledgement for a write that a
crash could lose — the invariant the crash harness
(``tests/test_sharded_crash.py``) kills the server to check. Under
``fsync_policy="always"`` the WAL appends sync inline and acks are
written immediately; under ``"never"`` durability is explicitly waived
and acks are also immediate; neither starts the commit loop.

The commit loop is clocked by load, not by a timer. After the first ack
parks it yields to the event loop, turn by turn, until either

* ``QUIET_TURNS`` consecutive turns dispatched no request — the server is
  *quiescent*: every client that could have joined this batch is waiting
  on us, so waiting longer only adds latency; or
* ``commit_interval`` has passed since that first ack and the turn just
  taken still dispatched a request — the *cap*: requests keep arriving,
  the batch is as big as we let it get.

At quiescence the fsync runs off the loop, on a one-thread executor
(``os.fsync`` releases the GIL): reads on other connections are answered
while the disk works, and writes that arrive meanwhile are applied, parked
and covered by the *next* commit. At the cap the loop is saturated and the
fsync stays inline — handing it to a thread then would leave that thread
waiting out CPython's GIL switch interval (5 ms) behind the busy loop
thread just to report completion. Both branches call the same
``index.commit()``; the choice reads only what the server observes.

Protocol violations (bad magic, CRC mismatch, torn frame) close the
connection — a structurally corrupt stream cannot be re-synchronized.
Index-level errors (and malformed payloads that decode but fail) are
returned as ``RESP_ERR`` frames and the connection lives on.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.net import protocol as p
from repro.net.sharded import ShardedSortednessAwareIndex
from repro.obs import Observability, current_obs
from repro.storage.wal import FSYNC_BATCH


#: Consecutive event-loop turns without a dispatched request after which
#: the commit loop stops waiting for more writes to join the batch. Two,
#: because bytes that reach the socket in one turn are dispatched in the next.
QUIET_TURNS = 2

#: ``serve.commit`` span ``trigger`` values.
QUIESCENT = "quiescent"
CAP = "cap"
STOP = "stop"


class IndexServer:
    """See module docstring."""

    def __init__(
        self,
        index: ShardedSortednessAwareIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        commit_interval: float = 0.002,
        obs: Optional[Observability] = None,
    ):
        self.index = index
        self.host = host
        self.port = port
        self.commit_interval = commit_interval
        self.obs = obs if obs is not None else current_obs()
        self._server: Optional[asyncio.AbstractServer] = None
        self._commit_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Ack frames awaiting the next commit, per connection.
        self._parked: Dict[asyncio.StreamWriter, List[bytes]] = {}
        self._parked_since = 0.0  # loop time of the oldest parked ack
        self._commit_wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._group_commit = index.config.fsync_policy == FSYNC_BATCH
        self.requests = 0
        self.errors = 0
        self.commits = 0
        self.commits_quiescent = 0
        self.commits_capped = 0
        self.connections = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._commit_wake = asyncio.Event()
        self._server = await asyncio.start_server(self._serve_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self._group_commit:
            self._executor = ThreadPoolExecutor(1, thread_name_prefix="repro-commit")
            self._commit_task = asyncio.create_task(self._commit_loop())

    async def stop(self) -> None:
        """Stop serving. Every parked ack is delivered after its fsync, or its
        connection is dropped so the caller fails with ``ConnectionError``."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            if self._commit_task is not None:
                # Not cancel(): a commit in flight has already taken its acks
                # off the parked list, and a cancel would drop them unsent.
                self._stopping = True
                self._commit_wake.set()
                task, self._commit_task = self._commit_task, None
                await task
                await self._commit(STOP)  # whatever parked since
        finally:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
            self._drop(self._parked)
            self.index.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    async def _commit_loop(self) -> None:
        while True:
            await self._commit_wake.wait()
            self._commit_wake.clear()
            if self._stopping:
                return
            await self._commit(await self._batch_window())

    async def _batch_window(self) -> str:
        """Let pipelined mutations pile onto this cycle so one fsync covers
        them all; returns what closed the window (see module docstring)."""
        loop = asyncio.get_running_loop()
        deadline = self._parked_since + self.commit_interval
        quiet, seen = 0, self.requests
        while not self._stopping:
            await asyncio.sleep(0)  # one turn of the event loop
            if self.requests == seen:
                quiet += 1
                if quiet == QUIET_TURNS:
                    return QUIESCENT
            else:
                quiet, seen = 0, self.requests
                # Only a turn that dispatched a request can hit the cap: acks
                # that outwaited it behind a slow commit in flight say nothing
                # about how busy the loop is now.
                if loop.time() >= deadline:
                    return CAP
        return STOP

    async def _commit(self, trigger: str) -> None:
        """One commit cycle: fsync, then release the acks parked before it."""
        if not self._parked:
            return
        # Swap before the sync starts: an ack that parks while the fsync is
        # in flight belongs to a write the fsync may not cover.
        parked, self._parked = self._parked, {}
        acks = sum(map(len, parked.values()))
        try:
            if trigger == QUIESCENT:
                await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._sync_index, acks, trigger
                )
            else:
                self._sync_index(acks, trigger)
        except BaseException:
            self._drop(parked)  # durability unknown: never ack, fail the callers
            raise
        self.commits += 1
        if trigger == QUIESCENT:
            self.commits_quiescent += 1
        elif trigger == CAP:
            self.commits_capped += 1
        live = [writer for writer in parked if not writer.is_closing()]
        for writer in live:
            writer.write(b"".join(parked[writer]))
        for writer in live:
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its acks are moot

    def _sync_index(self, acks: int, trigger: str) -> None:
        """fsync every unsynced shard WAL (on whichever thread runs this)."""
        with self.obs.span(
            "serve.commit", acks=acks, trigger=trigger, offloaded=trigger == QUIESCENT
        ):
            self.index.commit()

    @staticmethod
    def _drop(parked: Dict[asyncio.StreamWriter, List[bytes]]) -> None:
        """Abort the connections of acks that will never be sent, so their
        callers fail with ``ConnectionError`` instead of waiting forever."""
        for writer in parked:
            writer.transport.abort()
        parked.clear()

    def _ack(self, writer: asyncio.StreamWriter, opcode: int, frame: bytes) -> None:
        """Write a response now, or park it until the covering commit."""
        if self._group_commit and opcode in p.MUTATING_OPS:
            if not self._parked:
                self._parked_since = asyncio.get_running_loop().time()
                self._commit_wake.set()
            self._parked.setdefault(writer, []).append(frame)
        else:
            writer.write(frame)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    frame = await p.read_frame(reader)
                except p.ProtocolError:
                    self.errors += 1
                    break  # corrupt stream: cannot resync, drop the connection
                if frame is None:
                    break  # clean EOF
                opcode, request_id, payload = frame
                self.requests += 1
                try:
                    result = self._dispatch(opcode, payload)
                except p.ProtocolError:
                    self.errors += 1
                    break
                except Exception as exc:  # noqa: BLE001 - becomes a wire error
                    self.errors += 1
                    writer.write(
                        p.encode_frame(p.RESP_ERR, request_id, p.encode_error(repr(exc)))
                    )
                    await writer.drain()
                    continue
                self._ack(
                    writer,
                    opcode,
                    p.encode_frame(p.RESP_OK, request_id, p.encode_result(result)),
                )
                if reader.at_eof() or not self._group_commit:
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            if not writer.is_closing():
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    def _dispatch(self, opcode: int, payload: bytes) -> object:
        index = self.index
        if opcode == p.OP_PUT:
            key, value = p.decode_put(payload)
            index.put(key, value)
            return None
        if opcode == p.OP_GET:
            return index.get(p.decode_key(payload))
        if opcode == p.OP_DEL:
            index.delete(p.decode_key(payload))
            return None
        if opcode == p.OP_RANGE:
            lo, hi = p.decode_range(payload)
            return index.range_query(lo, hi)
        if opcode == p.OP_PUT_MANY:
            index.put_many(p.decode_put_many(payload))
            return None
        if opcode == p.OP_GET_MANY:
            return index.get_many(p.decode_get_many(payload))
        if opcode == p.OP_STATS:
            stats = index.describe()
            stats["server"] = {
                "requests": self.requests,
                "errors": self.errors,
                "commits": self.commits,
                "commits_quiescent": self.commits_quiescent,
                "commits_capped": self.commits_capped,
                "connections": self.connections,
                "group_commit": self._group_commit,
            }
            stats["shard_map"] = index.shard_map()
            return stats
        raise p.ProtocolError(f"opcode {opcode} is not a request")
