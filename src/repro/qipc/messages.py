"""QIPC message envelope.

A QIPC message starts with an 8-byte header:

==========  =====================================================
byte 0      endianness (1 = little-endian; we always emit little)
byte 1      message type: 0 async, 1 sync, 2 response
byte 2      compressed flag (0 / 1)
byte 3      reserved
bytes 4-8   total message length, including this header (uint32)
==========  =====================================================

followed by one serialized Q object (or its compressed form).  Unlike the
row-streaming PG v3 protocol, a QIPC response carries the *entire* result
as a single column-oriented object — the asymmetry at the heart of the
paper's Figure 5.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.errors import ProtocolError
from repro.obs import metrics
from repro.server.common import MAX_FRAME_BYTES

#: QIPC wire telemetry: bytes and messages by direction (out = framed by
#: this process, in = unframed), plus the compression win on large
#: payloads (compressed size / original size, only when kept)
QIPC_BYTES = metrics.counter("qipc_bytes_total", "QIPC bytes on the wire")
QIPC_MESSAGES = metrics.counter("qipc_messages_total", "QIPC messages framed")
QIPC_COMPRESSION_RATIO = metrics.histogram(
    "qipc_compression_ratio",
    "Compressed/original payload size for compressed QIPC messages",
    buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)

HEADER_SIZE = 8
LITTLE_ENDIAN = 1

#: payloads larger than this are compressed for every peer (loopback
#: included; kdb+ itself only compresses for remote hosts) and the
#: compressed form is kept when it is smaller.  A server reply that a
#: result-cache entry memoises pays this once per entry, not per hit.
COMPRESSION_THRESHOLD = 2000


class MessageType(IntEnum):
    ASYNC = 0
    SYNC = 1
    RESPONSE = 2


@dataclass
class QipcMessage:
    msg_type: MessageType
    payload: bytes  # serialized Q object (uncompressed)
    compressed: bool = False


def frame(message: QipcMessage, allow_compression: bool = True) -> bytes:
    """Wrap a serialized payload in the QIPC envelope, compressing large
    payloads the way kdb+ does."""
    from repro.qipc.compress import compress

    payload = message.payload
    compressed_flag = 0
    if allow_compression and len(payload) > COMPRESSION_THRESHOLD:
        packed = compress(payload)
        # kdb+ only keeps the compressed form when it actually saves space
        if len(packed) < len(payload):
            QIPC_COMPRESSION_RATIO.observe(len(packed) / len(payload))
            payload = packed
            compressed_flag = 1
    total = HEADER_SIZE + len(payload)
    header = struct.pack(
        "<BBBBI", LITTLE_ENDIAN, int(message.msg_type), compressed_flag, 0, total
    )
    return resend(header + payload)


def resend(framed: bytes) -> bytes:
    """Count ``framed`` as one outgoing message and return it unchanged.

    :func:`frame` ends here; a memoised reply frame sent again comes
    here directly, so ``qipc_*_total{direction="out"}`` reads the same
    whether a reply was built now or earlier."""
    QIPC_BYTES.inc(len(framed), direction="out")
    QIPC_MESSAGES.inc(
        type=MessageType(framed[1]).name.lower(), direction="out"
    )
    return framed


def unframe(data: bytes) -> QipcMessage:
    """Parse one complete framed message back into payload + type."""
    from repro.qipc.compress import decompress

    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"QIPC message truncated at {len(data)} bytes")
    endian, msg_type, compressed_flag, __, total = struct.unpack(
        "<BBBBI", data[:HEADER_SIZE]
    )
    if endian != LITTLE_ENDIAN:
        raise ProtocolError("big-endian QIPC messages are not supported")
    if total != len(data):
        raise ProtocolError(
            f"QIPC length field says {total} bytes, got {len(data)}"
        )
    payload = data[HEADER_SIZE:]
    if compressed_flag:
        payload = decompress(payload)
    try:
        parsed_type = MessageType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown QIPC message type {msg_type}") from None
    QIPC_BYTES.inc(total, direction="in")
    QIPC_MESSAGES.inc(type=parsed_type.name.lower(), direction="in")
    return QipcMessage(parsed_type, payload, compressed=bool(compressed_flag))


def poll_message(reader, max_bytes: int = MAX_FRAME_BYTES) -> QipcMessage | None:
    """One framed message from a :class:`BufferedSocketReader`, or None
    until the frame is complete.  Never touches a socket; a length field
    over ``max_bytes`` raises :class:`ProtocolError` before any of the
    body is waited for."""
    header = reader.peek(HEADER_SIZE)
    if header is None:
        return None
    __, __, __, __, total = struct.unpack("<BBBBI", header)
    if total < HEADER_SIZE:
        raise ProtocolError(f"QIPC header declares bad length {total}")
    if total > max_bytes:
        raise ProtocolError(
            f"QIPC message of {total} bytes exceeds the {max_bytes} limit"
        )
    if reader.buffered() < total:
        return None
    return unframe(reader.take(total))
