"""The length-prefixed binary wire protocol of the serving layer.

One frame per request/response, little-endian, mirroring the WAL's framing
discipline (:mod:`repro.storage.wal`) so a torn or corrupt frame is
detected structurally rather than by deserialization accident::

    magic       u16   0x5752 ("RW": repro wire)
    opcode      u8    request: OP_*; response: RESP_OK / RESP_ERR
    flags       u8    reserved
    request_id  u32   echoed verbatim in the response (pipelining tag)
    length      u32   payload length in bytes
    crc         u32   CRC32 over (opcode, flags, request_id, length, payload)
    payload     ...   opcode-specific, see below

Payload encodings (keys are signed 64-bit ints; records and values are the
bytes of :mod:`repro.storage.pages`' record codec, as in the WAL):

========== ============================================================
opcode      payload
========== ============================================================
PUT         ``encode_record``: key s64 + pickle(value)
GET         key s64
DEL         key s64
RANGE       lo s64 + hi s64
PUT_MANY    ``encode_records``: one v2 leaf page (the WAL's batch frame
            payload) of at most ``MAX_UNTRUSTED_RECORDS`` records
GET_MANY    count u32 + count * key s64
STATS       empty
RESP_OK     ``encode_value(result)`` — op-specific result object
RESP_ERR    the error message, UTF-8 text
========== ============================================================

Values on the socket are builtin types only (None, bool, int, float, str,
bytes, list, tuple, dict, set): both ends decode with ``trusted=False``,
which refuses every pickle global, so a peer's bytes never import or call
anything. A payload that does not decode raises :class:`ProtocolError`.

Both ends of a connection read through one :class:`FrameDecoder`, which
raises :class:`ProtocolError` on any structural problem (bad magic, unknown
opcode, oversized length, CRC mismatch, a stream that ends inside a frame);
the server turns that into a connection close, never into a
half-interpreted request.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.storage import pages

WIRE_MAGIC = 0x5752

OP_PUT = 1
OP_GET = 2
OP_DEL = 3
OP_RANGE = 4
OP_PUT_MANY = 5
OP_GET_MANY = 6
OP_STATS = 7

RESP_OK = 0x80
RESP_ERR = 0x81

REQUEST_OPS = (OP_PUT, OP_GET, OP_DEL, OP_RANGE, OP_PUT_MANY, OP_GET_MANY, OP_STATS)
#: Opcodes that mutate the index (their acks ride the group-commit path).
MUTATING_OPS = (OP_PUT, OP_DEL, OP_PUT_MANY)

HEADER = struct.Struct("<HBBIII")  # magic, opcode, flags, request_id, length, crc
_KEY = struct.Struct("<q")
_PAIR = struct.Struct("<qq")
_COUNT = struct.Struct("<I")

#: Refuse absurd frames before allocating for them (16 MiB of payload is
#: far beyond any batch the load generator or CLI produces).
MAX_PAYLOAD = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """A structurally invalid frame (bad magic/opcode/CRC/payload shape)."""


def _crc(opcode: int, flags: int, request_id: int, payload: bytes) -> int:
    head = struct.pack("<BBII", opcode, flags, request_id, len(payload))
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


def encode_frame(opcode: int, request_id: int, payload: bytes = b"") -> bytes:
    """One wire frame, ready to write; a payload the peer would refuse raises."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds the cap")
    crc = _crc(opcode, 0, request_id, payload)
    return HEADER.pack(WIRE_MAGIC, opcode, 0, request_id, len(payload), crc) + payload


def decode_header(raw: bytes, offset: int = 0) -> Tuple[int, int, int, int]:
    """Validated (opcode, request_id, length, crc) from the header at ``offset``."""
    if len(raw) - offset < HEADER.size:
        raise ProtocolError("short frame header")
    magic, opcode, flags, request_id, length, crc = HEADER.unpack_from(raw, offset)
    if magic != WIRE_MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:04X}")
    if opcode not in REQUEST_OPS and opcode not in (RESP_OK, RESP_ERR):
        raise ProtocolError(f"unknown opcode {opcode}")
    if flags != 0:
        raise ProtocolError(f"unsupported flags 0x{flags:02X}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the cap")
    return opcode, request_id, length, crc


def check_payload(opcode: int, request_id: int, payload: bytes, crc: int) -> None:
    if _crc(opcode, 0, request_id, payload) != crc:
        raise ProtocolError("frame checksum mismatch")


# ----------------------------------------------------------------------
# request payload encode/decode
# ----------------------------------------------------------------------
def _untrusted(what: str, decode, payload: bytes):
    """``decode(payload, trusted=False)``, failing with :class:`ProtocolError`."""
    try:
        return decode(payload, trusted=False)
    except pages.PageCorruptionError as exc:
        raise ProtocolError(f"{what} undecodable: {exc}") from exc


#: PUT and RESP_OK payloads are the record codec's bytes, unchanged.
encode_put = pages.encode_record
encode_result = pages.encode_value


def decode_put(payload: bytes) -> Tuple[int, object]:
    return _untrusted("PUT payload", pages.decode_record, payload)


def encode_key(key: int) -> bytes:
    return _KEY.pack(key)


def decode_key(payload: bytes) -> int:
    if len(payload) != _KEY.size:
        raise ProtocolError("key payload must be exactly 8 bytes")
    return _KEY.unpack(payload)[0]


def encode_range(lo: int, hi: int) -> bytes:
    return _PAIR.pack(lo, hi)


def decode_range(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _PAIR.size:
        raise ProtocolError("RANGE payload must be exactly 16 bytes")
    return _PAIR.unpack(payload)


def encode_put_many(items: Sequence[Tuple[int, object]]) -> bytes:
    if len(items) > pages.MAX_UNTRUSTED_RECORDS:
        raise ProtocolError(f"PUT_MANY of {len(items)} records is over the cap")
    return pages.encode_records(items)


def decode_put_many(payload: bytes) -> List[Tuple[int, object]]:
    return _untrusted("PUT_MANY payload", pages.decode_records, payload)


def encode_get_many(keys: Sequence[int]) -> bytes:
    return _COUNT.pack(len(keys)) + b"".join(_KEY.pack(key) for key in keys)


def decode_get_many(payload: bytes) -> List[int]:
    if len(payload) < _COUNT.size:
        raise ProtocolError("GET_MANY payload too short")
    (count,) = _COUNT.unpack_from(payload)
    if len(payload) != _COUNT.size + count * _KEY.size:
        raise ProtocolError("GET_MANY payload length mismatch")
    return list(struct.unpack_from(f"<{count}q", payload, _COUNT.size))


# ----------------------------------------------------------------------
# response payloads
# ----------------------------------------------------------------------
def decode_result(payload: bytes) -> object:
    return _untrusted("response", pages.decode_value, payload)


def encode_error(message: str) -> bytes:
    return message.encode("utf-8")


def decode_error(payload: bytes) -> str:
    return payload.decode("utf-8", errors="replace")


class FrameDecoder:
    """Whole, validated frames out of a byte stream that arrives in chunks.

    Each ``data_received`` chunk goes to :meth:`feed`, a generator (iterate
    it: the chunk is taken in as it runs) that yields
    ``(opcode, request_id, payload)`` for every frame completed so far, in
    stream order. A header is validated (magic, opcode, flags, the
    ``MAX_PAYLOAD`` cap) as soon as its ``HEADER.size`` bytes are in, before
    anything is buffered for its payload; the CRC once the payload is
    complete. A consumer that stops iterating early leaves the frames it did
    not take buffered; the next :meth:`feed` (``b""`` will do) yields them
    first. After a :class:`ProtocolError` the stream cannot be resynchronized
    and the decoder must be discarded.
    """

    def __init__(self) -> None:
        self._buf = bytearray()  # bytes not yet yielded
        self._head: Optional[Tuple[int, int, int, int]] = None  # header awaiting its payload

    def feed(self, data: bytes) -> Iterator[Tuple[int, int, bytes]]:
        buf = self._buf
        if buf:
            buf += data
            data = buf
        # else parse ``data`` in place and keep only what it leaves over: the
        # common chunk is one whole frame, which then costs no buffer copy.
        pos, end = 0, len(data)
        try:
            while True:
                head = self._head
                if head is None:
                    if end - pos < HEADER.size:
                        return
                    head = self._head = decode_header(data, pos)
                    pos += HEADER.size
                opcode, request_id, length, crc = head
                if end - pos < length:
                    return
                payload = bytes(data[pos : pos + length])
                pos += length
                self._head = None
                check_payload(opcode, request_id, payload, crc)
                yield opcode, request_id, payload
        finally:
            if data is buf:
                del buf[:pos]
            elif pos < end:
                buf += data[pos:]

    def eof(self) -> None:
        """The peer closed its end: raise if the stream stopped inside a frame."""
        if self._head is not None:
            raise ProtocolError("connection closed mid-payload")
        if self._buf:
            raise ProtocolError("connection closed mid-header")
