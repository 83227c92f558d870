"""Byte-level encoding/decoding of PG v3 messages.

Result-set traffic (DataRow frames) goes through the batched kernels in
:mod:`repro.pgwire.kernels`; this module owns the per-message control
traffic, the framing metrics, and :class:`PgFrameStream` — the buffered
frame reader both the gateway and the PG-wire server read through.
"""

from __future__ import annotations

import struct

from repro.errors import ProtocolError
from repro.obs import metrics
from repro.pgwire import kernels
from repro.pgwire import messages as m
from repro.server.common import MAX_FRAME_BYTES, BufferedSocketReader

#: PG v3 wire telemetry: bytes and messages by direction (out = encoded
#: by this process, in = read off the socket) and type byte
PGWIRE_BYTES = metrics.counter("pgwire_bytes_total", "PG v3 bytes on the wire")
PGWIRE_MESSAGES = metrics.counter(
    "pgwire_messages_total", "PG v3 messages encoded/decoded"
)


def _cstr(text: str) -> bytes:
    return text.encode("utf-8") + b"\x00"


def _with_frame(type_byte: bytes, body: bytes) -> bytes:
    framed = type_byte + struct.pack(">I", len(body) + 4) + body
    PGWIRE_BYTES.inc(len(framed), direction="out")
    PGWIRE_MESSAGES.inc(type=type_byte.decode("ascii"), direction="out")
    return framed


# -- frontend encoding ----------------------------------------------------------


def encode_startup(message: m.StartupMessage) -> bytes:
    parts = [
        struct.pack(">I", m.PROTOCOL_VERSION),
        _cstr("user"), _cstr(message.user),
        _cstr("database"), _cstr(message.database),
    ]
    for key, value in message.options.items():
        parts.append(_cstr(key))
        parts.append(_cstr(value))
    parts.append(b"\x00")
    body = b"".join(parts)
    framed = struct.pack(">I", len(body) + 4) + body
    PGWIRE_BYTES.inc(len(framed), direction="out")
    PGWIRE_MESSAGES.inc(type="startup", direction="out")
    return framed


def encode_frontend(message: m.FrontendMessage) -> bytes:
    if isinstance(message, m.StartupMessage):
        return encode_startup(message)
    if isinstance(message, m.PasswordMessage):
        return _with_frame(b"p", _cstr(message.password))
    if isinstance(message, m.Query):
        return _with_frame(b"Q", _cstr(message.sql))
    if isinstance(message, m.Terminate):
        return _with_frame(b"X", b"")
    raise ProtocolError(f"cannot encode frontend {type(message).__name__}")


# -- backend encoding ----------------------------------------------------------


def encode_backend(message: m.BackendMessage) -> bytes:
    if isinstance(message, m.AuthenticationRequest):
        body = struct.pack(">I", message.code)
        if message.code == 5:
            body += message.salt[:4].ljust(4, b"\x00")
        return _with_frame(b"R", body)
    if isinstance(message, m.ParameterStatus):
        return _with_frame(b"S", _cstr(message.name) + _cstr(message.value))
    if isinstance(message, m.BackendKeyData):
        return _with_frame(b"K", struct.pack(">II", message.pid, message.secret))
    if isinstance(message, m.ReadyForQuery):
        return _with_frame(b"Z", message.status.encode("ascii")[:1])
    if isinstance(message, m.RowDescription):
        return _with_frame(b"T", kernels.pack_row_description(message.fields))
    if isinstance(message, m.DataRow):
        framed = kernels.pack_data_row(message.values)
        PGWIRE_BYTES.inc(len(framed), direction="out")
        PGWIRE_MESSAGES.inc(type="D", direction="out")
        return framed
    if isinstance(message, m.CommandComplete):
        return _with_frame(b"C", _cstr(message.tag))
    if isinstance(message, m.EmptyQueryResponse):
        return _with_frame(b"I", b"")
    if isinstance(message, m.ErrorResponse):
        body = (
            b"S" + _cstr(message.severity)
            + b"C" + _cstr(message.code)
            + b"M" + _cstr(message.message)
            + b"\x00"
        )
        return _with_frame(b"E", body)
    raise ProtocolError(f"cannot encode backend {type(message).__name__}")


# -- decoding -----------------------------------------------------------------


class _Body:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ProtocolError("PG message body truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def cstr(self) -> str:
        end = self.data.find(b"\x00", self.pos)
        if end == -1:
            raise ProtocolError("unterminated string in PG message")
        text = self.data[self.pos : end].decode("utf-8")
        self.pos = end + 1
        return text

    def remaining(self) -> int:
        return len(self.data) - self.pos


def decode_startup(data: bytes) -> m.StartupMessage:
    body = _Body(data)
    version = struct.unpack(">I", body.take(4))[0]
    if version != m.PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    params: dict[str, str] = {}
    while body.remaining() > 1:
        key = body.cstr()
        if not key:
            break
        params[key] = body.cstr()
    return m.StartupMessage(
        user=params.pop("user", ""),
        database=params.pop("database", "postgres"),
        options=params,
    )


def decode_frontend(type_byte: bytes, data: bytes) -> m.FrontendMessage:
    body = _Body(data)
    if type_byte == b"p":
        return m.PasswordMessage(body.cstr())
    if type_byte == b"Q":
        return m.Query(body.cstr())
    if type_byte == b"X":
        return m.Terminate()
    raise ProtocolError(f"unsupported frontend message {type_byte!r}")


def decode_backend(type_byte: bytes, data: bytes) -> m.BackendMessage:
    if type_byte == b"D":  # the hot frame type: one per result row
        return m.DataRow(kernels.unpack_data_row(data))
    body = _Body(data)
    if type_byte == b"R":
        code = struct.unpack(">I", body.take(4))[0]
        salt = body.take(4) if code == 5 else b""
        return m.AuthenticationRequest(code, salt)
    if type_byte == b"S":
        return m.ParameterStatus(body.cstr(), body.cstr())
    if type_byte == b"K":
        pid, secret = struct.unpack(">II", body.take(8))
        return m.BackendKeyData(pid, secret)
    if type_byte == b"Z":
        return m.ReadyForQuery(body.take(1).decode("ascii"))
    if type_byte == b"T":
        (count,) = struct.unpack(">H", body.take(2))
        fields = []
        for __ in range(count):
            name = body.cstr()
            table_oid, column_attr, type_oid, type_size, type_mod, fmt = (
                struct.unpack(">IHIhih", body.take(18))
            )
            fields.append(
                m.FieldDescription(
                    name, type_oid, type_size, table_oid, column_attr,
                    type_mod, fmt,
                )
            )
        return m.RowDescription(fields)
    if type_byte == b"C":
        return m.CommandComplete(body.cstr())
    if type_byte == b"I":
        return m.EmptyQueryResponse()
    if type_byte == b"E":
        fields: dict[str, str] = {}
        while body.remaining() > 1:
            code = body.take(1)
            if code == b"\x00":
                break
            fields[code.decode("ascii")] = body.cstr()
        return m.ErrorResponse(
            severity=fields.get("S", "ERROR"),
            code=fields.get("C", "XX000"),
            message=fields.get("M", ""),
        )
    raise ProtocolError(f"unsupported backend message {type_byte!r}")


# -- batched result-set encoding ------------------------------------------------


def encode_data_rows(rows) -> bytes:
    """Frame a whole result set of DataRow cell lists in one pass.

    Wire telemetry is flushed once per result set (two ``inc`` calls
    total) instead of twice per row; the counted totals are identical to
    encoding each row through :func:`encode_backend`.
    """
    framed, count = kernels.pack_data_rows(rows)
    if count:
        PGWIRE_BYTES.inc(len(framed), direction="out")
        PGWIRE_MESSAGES.inc(count, type="D", direction="out")
    return framed


# -- stream reading ---------------------------------------------------------------


class _InboundStats:
    """Per-frame wire telemetry, batched until a flush point.

    The per-message path does two labelled ``Counter.inc`` calls per
    frame; on a 100k-row result that is 200k lock acquisitions.  This
    accumulator keeps plain ints per type byte and flushes them in one
    ``inc`` per series, preserving the exact totals.
    """

    __slots__ = ("_bytes", "_counts")

    def __init__(self):
        self._bytes = 0
        self._counts: dict[str, int] = {}

    def note(self, type_char: str, nbytes: int) -> None:
        self._bytes += nbytes
        self._counts[type_char] = self._counts.get(type_char, 0) + 1

    def flush(self) -> None:
        if self._bytes:
            PGWIRE_BYTES.inc(self._bytes, direction="in")
            self._bytes = 0
        if self._counts:
            for type_char, count in self._counts.items():
                PGWIRE_MESSAGES.inc(count, type=type_char, direction="in")
            self._counts.clear()


_HEADER = struct.Struct(">cI")


def _check_size(length: int, max_bytes: int) -> None:
    if length > max_bytes:
        raise ProtocolError(
            f"PG message of {length} bytes exceeds the {max_bytes} limit"
        )


class PgFrameStream:
    """Buffered PG v3 frame source over one connection.

    Wraps a :class:`~repro.server.common.BufferedSocketReader` so many
    frames are sliced out of each ``recv()`` chunk; used by the gateway
    (backend messages) and the PG-wire server (frontend messages).
    Telemetry batches are flushed whenever the buffer drains — the
    moment the next read would hit the socket — and on :meth:`flush`.
    """

    __slots__ = ("reader", "_stats")

    def __init__(self, reader: BufferedSocketReader):
        self.reader = reader
        self._stats = _InboundStats()

    @classmethod
    def over(cls, sock) -> "PgFrameStream":
        return cls(BufferedSocketReader(sock))

    @classmethod
    def detached(cls) -> "PgFrameStream":
        """A stream with no socket; bytes arrive only via :meth:`feed`
        and frames come back out of :meth:`poll_frame` (the event-loop
        connection core's half of the buffer)."""
        return cls(BufferedSocketReader.detached())

    def feed(self, data: bytes) -> None:
        self.reader.feed(data)

    def poll_frame(
        self, max_bytes: int = MAX_FRAME_BYTES
    ) -> tuple[bytes, bytes] | None:
        """One raw ``(type_byte, body)`` frame if fully buffered, else
        None.  Never touches the socket; a length over ``max_bytes``
        raises before any of the body is waited for."""
        header = self.reader.peek(5)
        if header is None:
            return None
        type_byte, length = _HEADER.unpack(header)
        if length < 4:
            raise ProtocolError(f"PG message declares bad length {length}")
        _check_size(length, max_bytes)
        if self.reader.buffered() < length + 1:
            return None
        self.reader.take(5)
        body = self.reader.take(length - 4)
        self._stats.note(type_byte.decode("ascii"), length + 1)
        if not self.reader.buffered():
            self._stats.flush()
        return type_byte, body

    def poll_startup(self, max_bytes: int = MAX_FRAME_BYTES):
        """One decoded startup message if fully buffered, else None."""
        header = self.reader.peek(4)
        if header is None:
            return None
        (length,) = struct.unpack(">I", header)
        if length < 8:
            raise ProtocolError("startup message too short")
        _check_size(length, max_bytes)
        if self.reader.buffered() < length:
            return None
        self.reader.take(4)
        body = self.reader.take(length - 4)
        self._stats.note("startup", length)
        if not self.reader.buffered():
            self._stats.flush()
        return decode_startup(body)

    def read_frame(self) -> tuple[bytes, bytes]:
        """One raw ``(type_byte, body)`` frame: poll, filling from the
        socket until the frame is complete."""
        while (frame := self.poll_frame()) is None:
            self.reader.fill()
        return frame

    def read_message(self, decoder):
        """One decoded message: ``decoder(type_byte, body) -> message``."""
        type_byte, body = self.read_frame()
        return decoder(type_byte, body)

    def flush(self) -> None:
        """Flush batched telemetry (end of a result set / statement)."""
        self._stats.flush()
