"""Client library for the sharded index server.

:class:`IndexClient` is the asyncio-native client, and is itself the
connection's :class:`asyncio.Protocol`. It pipelines freely: every request
parks a future under its ``request_id``, and ``data_received`` runs the
bytes through a :class:`~repro.net.protocol.FrameDecoder` and resolves the
futures of the responses they complete in the I/O callback itself — there
is no receive task, so a response reaches its caller one event-loop turn
after its bytes arrive. Many calls may be awaiting concurrently on one
connection (``asyncio.gather`` over a batch of puts is the intended usage —
the server's group commit will fold their fsyncs together). When the
transport's write buffer passes its high-water mark, new requests wait for
it to drain before awaiting their response.

:class:`SyncIndexClient` wraps it for blocking callers (the CLI, tests)
by driving a private event loop per call.

Server-side failures surface as :class:`ServerError`; transport-level
corruption as :class:`~repro.net.protocol.ProtocolError`; a connection
that dies with requests in flight fails those requests with
:class:`ConnectionError`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.net import protocol as p


class ServerError(ReproError):
    """The server processed the frame but the operation failed."""


class IndexClient(asyncio.Protocol):
    """See module docstring. Construct via :meth:`connect`."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = p.FrameDecoder()
        self._next_id = 0
        self._inflight: Dict[int, asyncio.Future] = {}
        self._drained: Optional[asyncio.Future] = None  # set while writing is paused
        self._lost: Optional[asyncio.Future] = None  # resolved by connection_lost
        self._error: Optional[BaseException] = None  # what ended the connection

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0) -> "IndexClient":
        _transport, client = await asyncio.get_running_loop().create_connection(
            cls, host, port
        )
        return client

    # ------------------------------------------------------------------
    # asyncio.Protocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        self._lost = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        try:
            for opcode, request_id, payload in self._decoder.feed(data):
                future = self._inflight.pop(request_id, None)
                if future is None or future.done():
                    continue  # response to a caller that gave up
                if opcode == p.RESP_OK:
                    future.set_result(payload)
                elif opcode == p.RESP_ERR:
                    future.set_exception(ServerError(p.decode_error(payload)))
                else:
                    raise p.ProtocolError(f"unexpected response opcode {opcode}")
        except p.ProtocolError as exc:
            self._error = exc
            self._transport.abort()

    def eof_received(self) -> None:
        try:
            self._decoder.eof()
        except p.ProtocolError as exc:
            self._error = exc
        # returning None closes the transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        # Whatever ended the connection fails every in-flight request: a
        # deferred group-commit ack that never arrives must not hang its
        # caller forever.
        self._fail_inflight(
            self._error or exc or ConnectionError("server closed the connection")
        )
        self.resume_writing()
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._drained is not None:
            self._drained.set_result(None)
            self._drained = None

    def _fail_inflight(self, error: BaseException) -> None:
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(error)
        self._inflight.clear()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _request(self, opcode: int, payload: bytes = b"") -> bytes:
        if self._transport.is_closing():
            raise ConnectionError("connection is closed")
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        frame = p.encode_frame(opcode, request_id, payload)  # refuses an oversized request
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = future
        self._transport.write(frame)
        if self._drained is not None:
            await asyncio.shield(self._drained)  # one caller's cancel must not wake the rest
        return await future

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def put(self, key: int, value: object) -> None:
        await self._request(p.OP_PUT, p.encode_put(key, value))

    async def get(self, key: int) -> Optional[object]:
        return p.decode_result(await self._request(p.OP_GET, p.encode_key(key)))

    async def delete(self, key: int) -> None:
        await self._request(p.OP_DEL, p.encode_key(key))

    async def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        return p.decode_result(await self._request(p.OP_RANGE, p.encode_range(lo, hi)))

    async def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        await self._request(p.OP_PUT_MANY, p.encode_put_many(items))

    async def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        return p.decode_result(
            await self._request(p.OP_GET_MANY, p.encode_get_many(keys))
        )

    async def stats(self) -> dict:
        return p.decode_result(await self._request(p.OP_STATS))

    async def close(self) -> None:
        self._error = self._error or ConnectionError("client closed")
        self._fail_inflight(self._error)
        self._transport.close()
        await self._lost

    async def __aenter__(self) -> "IndexClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class SyncIndexClient:
    """Blocking facade over :class:`IndexClient` (one private event loop)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._loop.run_until_complete(IndexClient.connect(host, port))
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def put(self, key: int, value: object) -> None:
        self._run(self._client.put(key, value))

    def get(self, key: int) -> Optional[object]:
        return self._run(self._client.get(key))

    def delete(self, key: int) -> None:
        self._run(self._client.delete(key))

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        return self._run(self._client.range_query(lo, hi))

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        self._run(self._client.put_many(items))

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        return self._run(self._client.get_many(keys))

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "SyncIndexClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
