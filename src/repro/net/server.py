"""The asyncio front door over a :class:`ShardedSortednessAwareIndex`.

One :class:`IndexServer` owns the sharded index and serves the binary
protocol of :mod:`repro.net.protocol` over TCP. Each accepted socket gets
one :class:`asyncio.Protocol` (``_Connection``) and no task: its bytes go
through a :class:`~repro.net.protocol.FrameDecoder` and every frame they
complete is dispatched inside ``data_received``, in the event-loop turn the
bytes arrive, and its response goes out with one ``transport.write``.
Within a connection requests are *pipelined* — the
client may send many frames without waiting, and responses are matched
back by ``request_id``, not by order (write acks routinely overtake later
reads under group commit).

**Flow control.** A connection whose peer does not read stops being read:
``pause_writing`` (the transport's write buffer passed its high-water mark)
pauses reading that socket, and the frames already received but not yet
dispatched stay in its decoder until ``resume_writing``. The pause is
checked after every response, so one read cannot buffer more than the
high-water mark plus one reply however many replies it asks for.
:meth:`IndexServer.stop` gives each connection ``CLOSE_GRACE`` seconds to
flush what it was sent, then aborts it.

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

**STATS** answers ``index.describe()`` plus the server's counters
(``server``), the routing table (``shard_map``) and ``obs``, the server's
:meth:`~repro.obs.Observability.snapshot` (what ``repro observe --connect``
reads).

**Fail-stop.** A commit whose fsync raises leaves the durability of every
write since the last good commit unknown, and an fsync error is not
retryable. The server records the error, closes its listener, aborts every
connection (their callers see ``ConnectionError``; no ack is sent after
the failure), emits one ``serve.fail_stop`` event, and
:meth:`IndexServer.serve_forever` and :meth:`IndexServer.stop` raise
:class:`CommitFailed` with the error as ``__cause__``.

Protocol violations (bad magic, CRC mismatch, torn frame) close the
connection — a structurally corrupt stream cannot be re-synchronized.
Index-level errors (and malformed payloads that decode but fail) are
returned as ``RESP_ERR`` frames and the connection lives on; so is a reply
whose payload would exceed ``MAX_PAYLOAD`` (a RANGE or GET_MANY too large
for the peer's decoder).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

from repro.errors import ReproError
from repro.net import protocol as p
from repro.net.sharded import ShardedSortednessAwareIndex
from repro.obs import Observability, current_obs
from repro.storage.wal import FSYNC_BATCH


#: Consecutive event-loop turns without a dispatched request after which
#: the commit loop stops waiting for more writes to join the batch. Two,
#: because a connection's read callback also takes the bytes its peer wrote
#: earlier in the same turn: a peer on this loop that writes on every turn
#: is dispatched on every other one, and one quiet turn would call it idle.
QUIET_TURNS = 2

#: Seconds :meth:`IndexServer.stop` lets a closing connection flush its
#: write buffer before aborting it.
CLOSE_GRACE = 1.0

#: ``serve.commit`` span ``trigger`` values.
QUIESCENT = "quiescent"
CAP = "cap"
STOP = "stop"


class CommitFailed(ReproError):
    """A group commit's fsync raised and the server fail-stopped.

    ``__cause__`` is the error the commit raised. No write applied since the
    last good commit was acknowledged.
    """


class _Connection(asyncio.Protocol):
    """One accepted socket: frames decoded and dispatched as bytes arrive."""

    def __init__(self, server: "IndexServer"):
        self.server = server
        self.decoder = p.FrameDecoder()
        self.transport: Optional[asyncio.Transport] = None
        self.lost: Optional[asyncio.Future] = None  # resolved by connection_lost
        self.paused = False  # the peer is not reading: neither do we

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()
        self.server._accept(self)

    def data_received(self, data: bytes) -> None:
        self._serve(data)

    def eof_received(self) -> None:
        try:
            self.decoder.eof()
        except p.ProtocolError:
            self.server.errors += 1  # torn frame
        # returning None closes the transport

    def connection_lost(self, exc) -> None:
        self.server._conns.discard(self)
        self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if not self.transport.is_closing():  # a closing buffer drains without new work
            self.transport.resume_reading()
            self._serve(b"")  # what was received before the pause

    def _serve(self, data: bytes) -> None:
        server = self.server
        try:
            for opcode, request_id, payload in self.decoder.feed(data):
                server.requests += 1
                try:
                    result = server._dispatch(opcode, payload)
                except p.ProtocolError:
                    raise
                except Exception as exc:  # noqa: BLE001 - becomes a wire error
                    server.errors += 1
                    self.transport.write(
                        p.encode_frame(p.RESP_ERR, request_id, p.encode_error(repr(exc)))
                    )
                else:
                    try:
                        frame = p.encode_frame(p.RESP_OK, request_id, p.encode_result(result))
                    except p.ProtocolError as exc:  # a reply over the cap: refused, not sent
                        server.errors += 1
                        frame = p.encode_frame(p.RESP_ERR, request_id, p.encode_error(repr(exc)))
                    if server._group_commit and opcode in p.MUTATING_OPS:
                        server._park(self, frame)
                    else:
                        self.transport.write(frame)
                if self.paused:
                    break  # the rest waits in the decoder for resume_writing
        except p.ProtocolError:
            server.errors += 1
            self.transport.close()  # a corrupt stream cannot be resynchronized


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
        self._conns: Set[_Connection] = set()  # live connections
        #: Ack frames awaiting the next commit, per connection.
        self._parked: Dict[_Connection, List[bytes]] = {}
        self._parked_since = 0.0  # loop time of the oldest parked ack
        self._commit_wake: Optional[asyncio.Event] = None
        self._halted: Optional[asyncio.Event] = None  # set by stop() or a fail-stop
        self._failure: Optional[BaseException] = None  # what fail-stopped the server
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
        self._halted = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._group_commit:
            self._executor = ThreadPoolExecutor(1, thread_name_prefix="repro-commit")
            self._commit_task = asyncio.create_task(self._commit_loop())

    async def stop(self) -> None:
        """Stop serving. Every parked ack is delivered after its fsync, or its
        connection is dropped so the caller fails with ``ConnectionError``;
        a connection whose peer stops reading is aborted after
        ``CLOSE_GRACE``. Raises :class:`CommitFailed` if the server
        fail-stopped."""
        if self._server is not None:
            self._server.close()
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
            self._parked.clear()  # never sent: closing their connections fails the callers
            await self._close_connections()
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
            if self._halted is not None:
                self._halted.set()
            try:
                self.index.close()
            finally:
                self._raise_if_failed()

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop`; raises :class:`CommitFailed` on a fail-stop."""
        if self._server is None:
            await self.start()
        await self._halted.wait()
        self._raise_if_failed()

    async def _close_connections(self) -> None:
        conns = list(self._conns)
        for conn in conns:
            conn.transport.close()  # flushes what was written, then closes
        if conns:
            await asyncio.wait([conn.lost for conn in conns], timeout=CLOSE_GRACE)
        # A peer that does not read never lets its write buffer drain.
        stuck = [conn for conn in conns if not conn.lost.done()]
        for conn in stuck:
            conn.transport.abort()
        if stuck:
            await asyncio.wait([conn.lost for conn in stuck])

    def _accept(self, conn: _Connection) -> None:
        if self._failure is not None:
            conn.transport.abort()  # accepted just before the listener closed
            return
        self.connections += 1
        self._conns.add(conn)

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            raise CommitFailed(
                f"group commit failed, server stopped: {self._failure!r}"
            ) from self._failure

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
        except Exception as exc:  # noqa: BLE001 - any commit error is fatal
            self._fail_stop(exc, acks)
            return
        self.commits += 1
        if trigger == QUIESCENT:
            self.commits_quiescent += 1
        elif trigger == CAP:
            self.commits_capped += 1
        for conn, frames in parked.items():
            if not conn.transport.is_closing():
                conn.transport.write(b"".join(frames))

    def _sync_index(self, acks: int, trigger: str) -> None:
        """fsync every unsynced shard WAL (on whichever thread runs this)."""
        with self.obs.span(
            "serve.commit", acks=acks, trigger=trigger, offloaded=trigger == QUIESCENT
        ):
            self.index.commit()

    def _fail_stop(self, exc: BaseException, acks: int) -> None:
        """Durability is unknown from here on: never ack again, stop serving."""
        self._failure = exc
        self._stopping = True
        self._commit_wake.set()  # the commit loop exits
        self.obs.event(
            "serve.fail_stop", error=repr(exc), acks=acks, connections=len(self._conns)
        )
        if self._server is not None:
            self._server.close()
        self._parked.clear()
        for conn in list(self._conns):
            conn.transport.abort()
        self._halted.set()

    def _park(self, conn: _Connection, frame: bytes) -> None:
        """Hold a mutation's ack until the commit that covers it."""
        if not self._parked:
            self._parked_since = asyncio.get_running_loop().time()
            self._commit_wake.set()
        self._parked.setdefault(conn, []).append(frame)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
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
            if payload:
                raise p.ProtocolError("STATS payload must be empty")
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
            stats["obs"] = self.obs.snapshot()
            return stats
        raise p.ProtocolError(f"opcode {opcode} is not a request")
