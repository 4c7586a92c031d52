"""Wire-protocol unit tests: framing, CRC, payload codecs, the frame decoder."""

import random

import pytest

from repro.errors import KeyRangeError
from repro.net import protocol as p

#: The value domain a served index accepts: builtin scalars and containers.
WIRE_VALUES = [
    None, True, False, 0, -7, 1 << 70, -(1 << 90), 1.5, float("inf"), "",
    "text ünïcode", b"", b"\x00\xff" * 40, (), (1, "a", None), [1, [2, [3]]],
    {"k": [1, {"nested": (2, b"x")}], 3: None}, {1, 2, 3}, [{"a": {4, 5}}, (True, 1)],
]


def same(got, want) -> bool:
    """Equal and of the same types throughout (``True == 1`` does not count)."""
    return got == want and repr(got) == repr(want)


class TestFrameCodec:
    def test_roundtrip_empty_payload(self):
        frame = p.encode_frame(p.OP_STATS, 7)
        opcode, request_id, length, crc = p.decode_header(frame[: p.HEADER.size])
        assert (opcode, request_id, length) == (p.OP_STATS, 7, 0)
        p.check_payload(opcode, request_id, b"", crc)

    def test_roundtrip_with_payload(self):
        for value in [{"nested": [1, 2]}, *WIRE_VALUES]:
            payload = p.encode_put(42, value)
            frame = p.encode_frame(p.OP_PUT, 99, payload)
            opcode, request_id, length, crc = p.decode_header(frame[: p.HEADER.size])
            body = frame[p.HEADER.size :]
            assert length == len(body)
            p.check_payload(opcode, request_id, body, crc)
            assert same(p.decode_put(body), (42, value))
            assert same(p.decode_result(p.encode_result(value)), value)

    def test_bad_magic_rejected(self):
        frame = bytearray(p.encode_frame(p.OP_GET, 1, p.encode_key(5)))
        frame[0] ^= 0xFF
        with pytest.raises(p.ProtocolError, match="magic"):
            p.decode_header(bytes(frame[: p.HEADER.size]))

    def test_unknown_opcode_rejected(self):
        frame = p.HEADER.pack(p.WIRE_MAGIC, 0x55, 0, 1, 0, 0)
        with pytest.raises(p.ProtocolError, match="opcode"):
            p.decode_header(frame)

    def test_flipped_payload_bit_fails_crc(self):
        payload = bytearray(p.encode_key(1234))
        frame = p.encode_frame(p.OP_GET, 3, bytes(payload))
        opcode, request_id, _length, crc = p.decode_header(frame[: p.HEADER.size])
        corrupt = bytearray(frame[p.HEADER.size :])
        corrupt[2] ^= 0x01
        with pytest.raises(p.ProtocolError, match="checksum"):
            p.check_payload(opcode, request_id, bytes(corrupt), crc)

    def test_oversized_length_rejected_before_allocation(self):
        frame = p.HEADER.pack(p.WIRE_MAGIC, p.OP_PUT, 0, 1, p.MAX_PAYLOAD + 1, 0)
        with pytest.raises(p.ProtocolError, match="cap"):
            p.decode_header(frame)

    def test_nonzero_flags_rejected(self):
        frame = p.HEADER.pack(p.WIRE_MAGIC, p.OP_GET, 1, 1, 0, 0)
        with pytest.raises(p.ProtocolError, match="flags"):
            p.decode_header(frame)


class TestPayloadCodecs:
    def test_key_roundtrip_negative(self):
        assert p.decode_key(p.encode_key(-(1 << 62))) == -(1 << 62)

    def test_key_wrong_size(self):
        with pytest.raises(p.ProtocolError):
            p.decode_key(b"\x00" * 7)

    def test_range_roundtrip(self):
        assert p.decode_range(p.encode_range(-5, 10**12)) == (-5, 10**12)

    def test_put_many_roundtrip(self):
        for items in [
            [(1, "a"), (-2, None), (3, b"\x00" * 100), (4, [1, [2]])],
            [],
            list(enumerate(WIRE_VALUES)),
            [(1, True), (2, 1)],  # all ints: the delta value column must keep the bool
            [(k, 10 * k) for k in range(100)],  # takes the delta value column
            [(1, 5), (1, 5), (-(1 << 63), (1 << 63) - 1)],
        ]:
            assert same(p.decode_put_many(p.encode_put_many(items)), items)
            assert same(p.decode_result(p.encode_result(items)), items)
            with pytest.raises(KeyRangeError):  # raised before sending
                p.encode_put_many(items + [(1 << 63, "a key beyond int64")])

    def test_put_many_trailing_bytes_rejected(self):
        blob = p.encode_put_many([(1, "a")]) + b"\x00"
        with pytest.raises(p.ProtocolError, match="checksum"):
            p.decode_put_many(blob)

    def test_put_many_truncated_value_rejected(self):
        blob = p.encode_put_many([(1, "abcdef")])
        with pytest.raises(p.ProtocolError, match="checksum"):
            p.decode_put_many(blob[:-3])

    def test_get_many_roundtrip(self):
        keys = [0, -1, 1 << 40]
        assert p.decode_get_many(p.encode_get_many(keys)) == keys

    def test_get_many_length_mismatch(self):
        blob = p.encode_get_many([1, 2, 3])
        with pytest.raises(p.ProtocolError, match="mismatch"):
            p.decode_get_many(blob[:-1])

    def test_error_roundtrip(self):
        assert p.decode_error(p.encode_error("boom")) == "boom"


def _mixed_stream():
    """Every request opcode plus both response kinds, as one byte stream."""
    frames = [
        (p.OP_PUT, 1, p.encode_put(1, {"v": [1, 2]})),
        (p.OP_GET, 2, p.encode_key(-7)),
        (p.OP_DEL, 3, p.encode_key(1 << 40)),
        (p.OP_RANGE, 4, p.encode_range(-5, 10**12)),
        (p.OP_PUT_MANY, 5, p.encode_put_many([(i, b"x" * i) for i in range(40)])),
        (p.OP_GET_MANY, 6, p.encode_get_many(list(range(64)))),
        (p.OP_STATS, 7, b""),
        (p.RESP_OK, 8, p.encode_result([(1, "a"), (2, None)])),
        (p.RESP_ERR, 0xFFFFFFFF, p.encode_error("boom")),
    ]
    return frames, b"".join(p.encode_frame(*frame) for frame in frames)


def _decode_in_chunks(stream: bytes, sizes):
    decoder, out, pos = p.FrameDecoder(), [], 0
    for size in sizes:
        out.extend(decoder.feed(stream[pos : pos + size]))
        pos += size
    assert pos >= len(stream)
    decoder.eof()  # ended on a frame boundary
    return out


class TestFrameDecoder:
    def test_back_to_back_frames_in_one_chunk(self):
        decoder = p.FrameDecoder()
        frames = list(
            decoder.feed(
                p.encode_frame(p.OP_PUT, 1, p.encode_put(1, "x"))
                + p.encode_frame(p.OP_GET, 2, p.encode_key(1))
            )
        )
        assert [(op, rid) for op, rid, _ in frames] == [(p.OP_PUT, 1), (p.OP_GET, 2)]
        assert p.decode_put(frames[0][2]) == (1, "x")
        assert list(decoder.feed(b"")) == []
        decoder.eof()  # clean EOF at a frame boundary

    def test_one_byte_at_a_time_and_random_chunks_decode_identically(self):
        frames, stream = _mixed_stream()
        assert _decode_in_chunks(stream, [len(stream)]) == frames
        assert _decode_in_chunks(stream, [1] * len(stream)) == frames
        rng = random.Random(5)
        for _ in range(20):
            sizes = [rng.randint(1, 300) for _ in range(len(stream))]
            assert _decode_in_chunks(stream, sizes) == frames

    def test_a_consumer_that_stops_early_gets_the_rest_next_feed(self):
        frames, stream = _mixed_stream()
        decoder = p.FrameDecoder()
        taken = []
        for frame in decoder.feed(stream):
            taken.append(frame)
            if len(taken) == 3:
                break
        taken.extend(decoder.feed(b""))
        assert taken == frames

    def test_oversized_length_rejected_on_the_header_alone(self):
        header = p.HEADER.pack(p.WIRE_MAGIC, p.OP_PUT, 0, 1, p.MAX_PAYLOAD + 1, 0)
        decoder = p.FrameDecoder()
        assert list(decoder.feed(header[:-1])) == []
        with pytest.raises(p.ProtocolError, match="cap"):
            list(decoder.feed(header[-1:]))  # no payload byte has arrived

    def test_crc_flip_rejected(self):
        frame = bytearray(p.encode_frame(p.OP_PUT, 9, p.encode_put(5, "value")))
        frame[-1] ^= 0x01  # flip a payload bit; header CRC now disagrees
        good = p.encode_frame(p.OP_GET, 8, p.encode_key(5))
        decoder = p.FrameDecoder()
        seen = []
        with pytest.raises(p.ProtocolError, match="checksum"):
            for opcode, request_id, _payload in decoder.feed(good + bytes(frame)):
                seen.append(request_id)
        assert seen == [8]  # frames before the corrupt one are still yielded

    @pytest.mark.parametrize("cut", [1, p.HEADER.size - 1, p.HEADER.size + 2])
    def test_torn_frame_raises_at_eof(self, cut):
        frame = p.encode_frame(p.OP_PUT, 9, p.encode_put(5, "value"))
        assert cut < len(frame)
        decoder = p.FrameDecoder()
        assert list(decoder.feed(frame[:cut])) == []
        with pytest.raises(p.ProtocolError, match="closed mid"):
            decoder.eof()
