"""End-to-end asyncio server/client tests.

Pipelined requests resolved by request id, group-commit acks under the
batch fsync policy, protocol-level fault handling (a corrupt or torn frame
drops only that connection), fail-stop on a failed commit, and flow control
against a client that does not read. Several concurrent clients checked
against a dict model are the oracle's ``Served`` shape
(``tests/test_oracle.py``).
"""

import asyncio
import errno
import socket
import time

import pytest

from repro.core.config import SWAREConfig
from repro.net import protocol as p
from repro.net.client import IndexClient, ServerError, SyncIndexClient
from repro.net.server import CommitFailed, IndexServer
from repro.net.sharded import (
    ShardedConfig,
    ShardedSortednessAwareIndex,
    recover_sharded,
)
from repro.obs import Observability
from tests.slow_fsync import SlowFsync


def serve_cfg(**kw):
    kw.setdefault("n_shards", 4)
    kw.setdefault("split_threshold", 0)
    kw.setdefault("fsync_policy", "batch")
    kw.setdefault("initial_key_range", (0, 5000))
    kw.setdefault("index_config", SWAREConfig(buffer_capacity=32, page_size=8))
    return ShardedConfig(**kw)


async def start_server(tmp_path, commit_interval=0.001, opener=open, obs=None, **kw):
    index = ShardedSortednessAwareIndex(
        str(tmp_path / "db"), config=serve_cfg(**kw), opener=opener
    )
    server = IndexServer(index, commit_interval=commit_interval, obs=obs)
    await server.start()
    return server


class TestEndToEnd:
    def test_pipelined_burst_resolves_by_request_id(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            async with await IndexClient.connect(port=server.port) as client:
                # Fire 200 puts + interleaved reads without awaiting each:
                # group commit parks the put acks while reads return
                # immediately, so completion order != send order.
                puts = [client.put(i, i * 10) for i in range(200)]
                await asyncio.gather(*puts)
                gets = [client.get(i) for i in range(200)]
                assert await asyncio.gather(*gets) == [i * 10 for i in range(200)]
                await client.put_many([(1000 + i, "b") for i in range(50)])
                assert await client.get(1049) == "b"
            await server.stop()

        asyncio.run(run())

    def test_server_error_is_per_request_not_fatal(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            real_get = server.index.get

            def injected(key):
                if key == 666:
                    raise RuntimeError("injected index fault")
                return real_get(key)

            server.index.get = injected
            async with await IndexClient.connect(port=server.port) as client:
                with pytest.raises(ServerError, match="injected index fault"):
                    await client.get(666)
                # The error is scoped to that request; the connection lives.
                await client.put(5, "ok")
                assert await client.get(5) == "ok"
            await server.stop()

        asyncio.run(run())

    def test_corrupt_frame_closes_connection_only(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            reader, writer = await asyncio.open_connection(port=server.port)
            frame = bytearray(p.encode_frame(p.OP_PUT, 1, p.encode_put(1, "x")))
            frame[-1] ^= 0xFF  # fails CRC server-side
            writer.write(bytes(frame))
            await writer.drain()
            assert await reader.read(64) == b""  # server hung up on us
            writer.close()
            # ... but the listener still accepts fresh connections.
            async with await IndexClient.connect(port=server.port) as client:
                await client.put(2, "y")
                assert await client.get(2) == "y"
            await server.stop()

        asyncio.run(run())

    def test_torn_frame_at_eof_is_a_protocol_error(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            reader, writer = await asyncio.open_connection(port=server.port)
            frame = p.encode_frame(p.OP_PUT, 1, p.encode_put(1, "x"))
            writer.write(frame[: p.HEADER.size + 2])
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            assert (server.errors, server.requests) == (1, 0)
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(run())

    def test_stop_closes_every_connection(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            client = await IndexClient.connect(port=server.port)
            await client.put(1, "a")
            await asyncio.wait_for(server.stop(), 5.0)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.get(1), 5.0)
            await client.close()

        asyncio.run(run())

    def test_tcp_nodelay_on_both_ends(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            async with await IndexClient.connect(port=server.port) as client:
                await client.get(1)
                (conn,) = server._conns
                for transport in (conn.transport, client._transport):
                    sock = transport.get_extra_info("socket")
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            await server.stop()

        asyncio.run(run())

    def test_refused_sync_connect_closes_its_loop(self, monkeypatch):
        loops, new_event_loop = [], asyncio.new_event_loop

        def recording():
            loops.append(new_event_loop())
            return loops[-1]

        listener = socket.socket()  # bound, never listening: connect is refused
        try:
            listener.bind(("127.0.0.1", 0))
            port = listener.getsockname()[1]
            monkeypatch.setattr(asyncio, "new_event_loop", recording)
            with pytest.raises(ConnectionRefusedError):
                SyncIndexClient(port=port)
        finally:
            listener.close()
        (loop,) = loops
        assert loop.is_closed()


class TestLoadClockedCommit:
    """The commit loop fires at quiescence (off the event loop) or at the
    ``commit_interval`` cap (inline), whichever comes first."""

    def test_lone_put_is_released_by_quiescence_not_the_timer(self, tmp_path):
        async def run():
            obs = Observability(trace=True)
            server = await start_server(tmp_path, commit_interval=30.0, obs=obs)
            async with await IndexClient.connect(port=server.port) as client:
                await asyncio.wait_for(client.put(1, "a"), 1.0)
                stats = (await client.stats())["server"]
                assert stats["commits"] == stats["commits_quiescent"] == 1
                assert stats["commits_capped"] == 0
            await server.stop()
            spans = [e for e in obs.tracer.events() if e.name == "serve.commit"]
            assert [span.attrs for span in spans] == [
                {"acks": 1, "trigger": "quiescent", "offloaded": True}
            ]

        asyncio.run(run())

    def test_pipelined_puts_share_commits(self, tmp_path):
        async def run():
            server = await start_server(tmp_path, commit_interval=30.0)
            async with await IndexClient.connect(port=server.port) as client:
                await asyncio.wait_for(
                    asyncio.gather(*[client.put(i, i) for i in range(64)]), 5.0
                )
                assert 1 <= server.commits <= 8
            await server.stop()

        asyncio.run(run())

    def test_saturating_burst_is_released_at_the_cap(self, tmp_path):
        # Four connections fire a PUT every loop turn without awaiting acks:
        # the server never sees a quiet turn, so only the cap can release.
        interval, burst_s, slack = 0.05, 0.5, 0.25

        async def run():
            server = await start_server(tmp_path, commit_interval=interval)
            clients = [await IndexClient.connect(port=server.port) for _ in range(4)]
            held = []

            async def timed_put(client, key):
                t0 = time.perf_counter()
                await client.put(key, key)
                held.append(time.perf_counter() - t0)

            async def fire(cid, client):
                puts, key = [], cid
                stop_at = time.perf_counter() + burst_s
                while time.perf_counter() < stop_at:
                    puts.append(asyncio.ensure_future(timed_put(client, key)))
                    key += 4
                    await asyncio.sleep(0)
                await asyncio.gather(*puts)

            await asyncio.wait_for(
                asyncio.gather(*[fire(i, c) for i, c in enumerate(clients)]), 30.0
            )
            assert server.commits_capped >= 1
            # Held for the cap plus one fsync, not for the rest of the burst.
            assert max(held) < interval + slack < burst_s
            for client in clients:
                await client.close()
            await server.stop()

        asyncio.run(run())

    def test_reads_and_later_writes_during_an_off_loop_fsync(self, tmp_path):
        async def run():
            disk = SlowFsync()
            server = await start_server(tmp_path, commit_interval=30.0, opener=disk)
            shard = server.index._route(10)
            assert server.index._route(11) is shard  # one WAL, one watermark
            first = await IndexClient.connect(port=server.port)
            second = await IndexClient.connect(port=server.port)
            disk.delay = 0.2
            put1 = asyncio.ensure_future(first.put(10, "covered"))
            await disk.wait_started()
            # The commit is in flight on the executor; the loop still serves.
            assert await asyncio.wait_for(second.get(10), 1.0) == "covered"
            assert disk.in_flight == 1 and not put1.done()
            put2 = asyncio.ensure_future(second.put(11, "applied during the fsync"))
            await asyncio.wait_for(put1, 5.0)
            # put1's ack is out: its record is under the durable watermark,
            # put2's is not, and the fsync that released put1 did not ack put2.
            assert (shard.wal.durable_records, shard.wal.records) == (1, 2)
            assert not put2.done()
            await asyncio.wait_for(put2, 5.0)
            assert shard.wal.durable_records == 2
            assert server.commits == 2
            assert disk.threads and all(t.startswith("repro-commit") for t in disk.threads)
            await first.close()
            await second.close()
            await server.stop()

        asyncio.run(run())

    def test_stop_during_a_commit_in_flight_loses_no_ack(self, tmp_path):
        async def run():
            disk = SlowFsync()
            server = await start_server(tmp_path, commit_interval=30.0, opener=disk)
            first = await IndexClient.connect(port=server.port)
            second = await IndexClient.connect(port=server.port)
            disk.delay = 0.2
            put1 = asyncio.ensure_future(first.put(10, "in the commit in flight"))
            await disk.wait_started()
            put2 = asyncio.ensure_future(second.put(11, "parked at stop()"))
            while server.requests < 2:  # put2 is applied and its ack parked
                await asyncio.sleep(0.001)
            await asyncio.wait_for(server.stop(), 5.0)
            # Neither caller hangs: each ack follows its fsync (or would have
            # failed with ConnectionError had the server dropped it).
            results = await asyncio.wait_for(
                asyncio.gather(put1, put2, return_exceptions=True), 5.0
            )
            assert results[0] is None
            assert results[1] is None or isinstance(results[1], ConnectionError)
            await first.close()
            await second.close()
            recovered, _reports = recover_sharded(str(tmp_path / "db"))
            try:
                assert recovered.get(10) == "in the commit in flight"
                if results[1] is None:
                    assert recovered.get(11) == "parked at stop()"
            finally:
                recovered.close()

        asyncio.run(run())

    def test_immediate_ack_policies_start_no_commit_machinery(self, tmp_path):
        async def run(policy):
            server = await start_server(tmp_path / policy, fsync_policy=policy)
            async with await IndexClient.connect(port=server.port) as client:
                await asyncio.wait_for(client.put(1, "a"), 1.0)
            assert server._executor is None and server._commit_task is None
            assert server.commits == 0
            await server.stop()

        for policy in ("always", "never"):
            asyncio.run(run(policy))


class TestFailStop:
    def test_failed_fsync_stops_the_server_and_acks_nothing_after(self, tmp_path):
        async def run():
            disk = SlowFsync()
            obs = Observability(trace=True)
            server = await start_server(tmp_path, commit_interval=30.0, opener=disk, obs=obs)
            clients = [await IndexClient.connect(port=server.port) for _ in range(2)]
            acked = {}
            for key in range(0, 200, 7):
                await asyncio.wait_for(clients[key % 2].put(key, f"v{key}"), 5.0)
                acked[key] = f"v{key}"
            disk.error = OSError(errno.EIO, "injected fsync failure")

            async def pipeline(cid, client):
                puts = [client.put(key, "never acked") for key in range(1000 + cid, 1100, 2)]
                return await asyncio.gather(*puts, return_exceptions=True)

            results = await asyncio.wait_for(
                asyncio.gather(*[pipeline(i, c) for i, c in enumerate(clients)]), 5.0
            )
            for per_client in results:
                assert all(isinstance(r, ConnectionError) for r in per_client), per_client
            with pytest.raises(ConnectionError):  # the listener is closed too
                await IndexClient.connect(port=server.port)
            with pytest.raises(CommitFailed) as failed:
                await asyncio.wait_for(server.serve_forever(), 5.0)
            assert failed.value.__cause__ is disk.error
            for client in clients:
                await client.close()
            with pytest.raises(CommitFailed):
                await server.stop()
            events = [e for e in obs.tracer.events() if e.name == "serve.fail_stop"]
            assert len(events) == 1 and "injected fsync failure" in events[0].attrs["error"]
            return acked

        acked = asyncio.run(run())
        recovered, _reports = recover_sharded(str(tmp_path / "db"))
        try:
            assert {key: recovered.get(key) for key in acked} == acked
        finally:
            recovered.close()


class TestBackpressure:
    N_REQUESTS = 300
    # 64 records of 1 KiB: every GET_MANY(64) reply is ~66 KB.
    VALUES = [bytes([key]) * 1024 for key in range(64)]

    async def stall(self, server, sock):
        """Pipeline N_REQUESTS GET_MANY(64) frames on ``sock`` and read
        nothing until the server stops reading it; returns (conn, sender)."""
        async with await IndexClient.connect(port=server.port) as loader:
            await loader.put_many(list(enumerate(self.VALUES)))
        reply = len(p.encode_frame(p.RESP_OK, 0, p.encode_result(self.VALUES)))
        loop = asyncio.get_running_loop()
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        await loop.sock_connect(sock, ("127.0.0.1", server.port))
        deadline = time.monotonic() + 5.0
        while server.connections < 2:  # accepted
            assert time.monotonic() < deadline, "never accepted"
            await asyncio.sleep(0.001)
        (conn,) = [
            c for c in server._conns
            if c.transport.get_extra_info("peername") == sock.getsockname()
        ]
        requests = b"".join(
            p.encode_frame(p.OP_GET_MANY, i, p.encode_get_many(range(64)))
            for i in range(self.N_REQUESTS)
        )
        sender = asyncio.ensure_future(loop.sock_sendall(sock, requests))
        while conn.transport.is_reading():
            assert time.monotonic() < deadline, "the server never stopped reading"
            await asyncio.sleep(0.001)
        await asyncio.sleep(0.05)  # paused: nothing more is dispatched
        _low, high = conn.transport.get_write_buffer_limits()
        assert conn.transport.get_write_buffer_size() <= high + reply
        assert server.requests < self.N_REQUESTS
        return conn, sender

    def test_a_client_that_does_not_read_stops_being_read(self, tmp_path):
        n_requests, values = self.N_REQUESTS, self.VALUES

        async def run():
            server = await start_server(tmp_path)
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            try:
                conn, sender = await self.stall(server, sock)
                decoder, replies = p.FrameDecoder(), {}
                while len(replies) < n_requests:
                    chunk = await asyncio.wait_for(loop.sock_recv(sock, 1 << 16), 5.0)
                    assert chunk, "server closed the connection"
                    for opcode, request_id, payload in decoder.feed(chunk):
                        assert opcode == p.RESP_OK
                        replies[request_id] = p.decode_result(payload)
                await asyncio.wait_for(sender, 5.0)
                assert sorted(replies) == list(range(n_requests))
                assert all(got == values for got in replies.values())
                assert conn.transport.is_reading()
            finally:
                sock.close()
            await server.stop()

        asyncio.run(run())

    def test_stop_aborts_a_client_that_does_not_read(self, tmp_path):
        async def run():
            server = await start_server(tmp_path)
            sock = socket.socket()
            try:
                conn, sender = await self.stall(server, sock)
                assert conn.transport.get_write_buffer_size() > 0
                # The peer never drains, so a graceful close alone never ends.
                await asyncio.wait_for(server.stop(), 5.0)
                assert conn.lost.done() and not server._conns
                sender.cancel()
                await asyncio.gather(sender, return_exceptions=True)
            finally:
                sock.close()

        asyncio.run(run())
