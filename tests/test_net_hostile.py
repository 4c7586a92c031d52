"""Hostile bytes on the socket: a peer can neither run code nor take the server down.

Every bad request below passes its frame CRC, so only payload decoding can
catch it. The server must refuse each one as a protocol error and drop just
that connection while another connection keeps being served, and a pickle
that would call a function in this module must never get to call it — not
on the server, not on the client.
"""

import asyncio
import pickle
import struct
import zlib

import pytest

from repro.errors import KeyRangeError
from repro.net import protocol as p
from repro.net.client import IndexClient, ServerError
from repro.storage import pages
from repro.storage.pages import KEY_BLOCK_HEADER
from tests.test_serve_e2e import start_server

CALLS = []


def sentinel(*args):
    CALLS.append(args)
    return "ran"


class Exploit:
    def __reduce__(self):
        return sentinel, ("called",)


EXPLOIT = pickle.dumps(Exploit(), protocol=pickle.HIGHEST_PROTOCOL)
KEYS = struct.pack("<2q", 1, 2)


def leaf(count, body, flags=0):
    """A leaf page whose own CRC holds, whatever its header claims."""
    header = struct.pack("<HBBII", pages.MAGIC, pages.KIND_LEAF, flags, count, zlib.crc32(body))
    return header + body


def block(count, width=0, anchor=1):
    """A delta block header that packs no deltas at all."""
    return KEY_BLOCK_HEADER.pack(count, anchor, anchor, width)


BOTH_DELTA = pages.FLAG_COMPRESSED_KEYS | pages.FLAG_COMPRESSED_VALUES
CAP = 1 << 16  # pages.MAX_UNTRUSTED_RECORDS (asserted below)

BAD_REQUESTS = [
    ("put-exploit", p.OP_PUT, struct.pack("<q", 1) + EXPLOIT),
    ("put-no-value", p.OP_PUT, struct.pack("<q", 1)),
    ("put-garbage-value", p.OP_PUT, struct.pack("<q", 1) + b"\x80\x05garbage"),
    ("put-trailing-bytes", p.OP_PUT, p.encode_put(1, "x") + b"junk"),
    ("get-short", p.OP_GET, b"\x00" * 7),
    ("del-long", p.OP_DEL, b"\x00" * 9),
    ("range-short", p.OP_RANGE, b"\x00" * 15),
    ("put-many-exploit", p.OP_PUT_MANY, leaf(2, KEYS + pickle.dumps([Exploit(), "x"]))),
    ("put-many-count-over", p.OP_PUT_MANY, leaf(3, KEYS + pickle.dumps(["a", "b"]))),
    ("put-many-count-under", p.OP_PUT_MANY, leaf(1, KEYS + pickle.dumps(["a", "b"]))),
    # Width-0 delta columns cost no bytes per record: this 54-byte page claims
    # 65,537 records, and only the cap refuses it.
    ("put-many-over-cap", p.OP_PUT_MANY, leaf(CAP + 1, block(CAP + 1) * 2, BOTH_DELTA)),
    ("put-many-block-lies", p.OP_PUT_MANY, leaf(2, block(5) + pickle.dumps(["a", "b"]), 1)),
    ("put-many-value-block-lies", p.OP_PUT_MANY, leaf(2, KEYS + block(3), 2)),
    ("put-many-wide-delta", p.OP_PUT_MANY, leaf(2, block(2, width=200) + b"\xff" * 30, 1)),
    ("put-many-truncated", p.OP_PUT_MANY, p.encode_put_many([(1, "a"), (2, "b")])[:-3]),
    ("put-many-garbage", p.OP_PUT_MANY, b"\x7e\x5a" + b"\xab" * 40),
    ("put-many-empty", p.OP_PUT_MANY, b""),
    ("put-many-internal-page", p.OP_PUT_MANY, pages.encode_internal([1], [0, 1])),
    ("put-many-dict-column", p.OP_PUT_MANY, leaf(2, KEYS + pickle.dumps({1: "a", 2: "b"}))),
    ("put-many-str-column", p.OP_PUT_MANY, leaf(2, KEYS + pickle.dumps("ab"))),
    ("put-many-short-column", p.OP_PUT_MANY, leaf(2, KEYS + pickle.dumps(["a"]))),
    ("get-many-count-over", p.OP_GET_MANY, struct.pack("<I", 5) + KEYS),
    ("get-many-billions", p.OP_GET_MANY, struct.pack("<I", 2**32 - 1)),
    ("stats-payload", p.OP_STATS, b"x"),
]


@pytest.fixture(autouse=True)
def no_calls():
    CALLS.clear()
    yield
    assert CALLS == [], "a peer's pickle ran code"


def test_bad_requests_close_only_their_own_connection(tmp_path):
    async def run():
        server = await start_server(tmp_path)
        async with await IndexClient.connect(port=server.port) as good:
            await good.put(0, "before")
            requests = server.requests
            with pytest.raises(KeyRangeError):  # refused before sending
                await good.put_many([(1, "a"), (1 << 64, "b")])
            assert server.requests == requests
            for step, (name, opcode, payload) in enumerate(BAD_REQUESTS, 1):
                reader, writer = await asyncio.open_connection(port=server.port)
                writer.write(p.encode_frame(opcode, step, payload))
                assert await asyncio.wait_for(reader.read(), 5.0) == b"", name
                writer.close()
                await writer.wait_closed()
                assert server.errors == step, name
                await good.put(step, ("after", name))
                assert await good.get(step) == ("after", name)
                assert await good.get(0) == "before"
            assert await good.range_query(1, len(BAD_REQUESTS)) == [
                (step, ("after", name)) for step, (name, *_request) in enumerate(BAD_REQUESTS, 1)
            ]
        await server.stop()

    asyncio.run(run())
    assert pages.MAX_UNTRUSTED_RECORDS == CAP


def test_a_reply_over_the_cap_is_an_error_not_a_dead_connection(tmp_path):
    """Seventeen 1 MiB values: a RANGE or GET_MANY over them would answer
    with more than ``MAX_PAYLOAD``, which the client's decoder refuses. The
    server refuses to send it instead, and the connection lives on."""
    big = 17
    with pytest.raises(p.ProtocolError, match="exceeds the cap"):
        p.encode_frame(p.RESP_OK, 1, bytes(p.MAX_PAYLOAD + 1))

    async def run():
        server = await start_server(tmp_path)
        async with await IndexClient.connect(port=server.port) as client:
            for key in range(big):
                await client.put(key, bytes([key]) * (1 << 20))
            errors = server.errors
            with pytest.raises(ServerError, match="exceeds the cap"):
                await client.range_query(0, big - 1)
            with pytest.raises(ServerError, match="exceeds the cap"):
                await client.get_many(list(range(big)))
            assert server.errors == errors + 2
            assert await client.get(3) == bytes([3]) * (1 << 20)
            assert [key for key, _value in await client.range_query(0, 1)] == [0, 1]
        await server.stop()

    asyncio.run(run())


def test_client_refuses_a_response_that_would_run_code():
    async def run():
        async def answer(reader, writer):
            _op, request_id, length, _crc = p.decode_header(
                await reader.readexactly(p.HEADER.size)
            )
            await reader.readexactly(length)
            writer.write(p.encode_frame(p.RESP_OK, request_id, EXPLOIT))
            await reader.read()  # until the client hangs up
            writer.close()
            await writer.wait_closed()

        server = await asyncio.start_server(answer, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with await IndexClient.connect(port=port) as client:
            with pytest.raises(p.ProtocolError, match="refused"):
                await asyncio.wait_for(client.get(1), 5.0)
        server.close()
        await server.wait_closed()

    asyncio.run(run())
