"""QValue -> QIPC byte serialization (column-oriented).

Follows the kx IPC object layout: a signed type byte, then the payload.
Vectors carry an attribute byte and a uint32 length; tables are type 98
wrapping a columns!values dictionary; dictionaries are type 99.  Figure 5
of the paper shows exactly this layout for a two-column result set.

Fixed-width vector payloads — the bulk of every result set — are packed
through the batched kernels in :mod:`repro.qipc.kernels` (one
``struct.pack`` per vector, not per element); the scalar reference
encoder retained there is the differential-test oracle for this module.
"""

from __future__ import annotations

import math
import struct

from repro.errors import ProtocolError
from repro.qipc.kernels import guid_bytes, pack_fixed, wire_null
from repro.qipc.messages import MessageType, QipcMessage, frame
from repro.qlang.qtypes import QType
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QLambda,
    QList,
    QTable,
    QValue,
    QVector,
)


def _pack_raw(qtype: QType, raw) -> bytes:
    fmt = "<" + qtype.spec.struct
    if qtype.is_floating:
        return struct.pack(fmt, float(raw))
    if qtype == QType.BOOLEAN:
        return struct.pack(fmt, 1 if raw else 0)
    return struct.pack(fmt, int(raw))


def encode_value(value: QValue) -> bytes:
    """Serialize a Q value into QIPC object bytes."""
    if isinstance(value, QAtom):
        return _encode_atom(value)
    if isinstance(value, QVector):
        return _encode_vector(value)
    if isinstance(value, QList):
        out = [struct.pack("<bBI", 0, 0, len(value.items))]
        for item in value.items:
            out.append(encode_value(item))
        return b"".join(out)
    if isinstance(value, QTable):
        header = struct.pack("<bB", 98, 0)
        columns = QVector(QType.SYMBOL, value.columns)
        body = struct.pack("<b", 99) + encode_value(columns) + encode_value(
            QList(list(value.data))
        )
        return header + body
    if isinstance(value, QKeyedTable):
        return (
            struct.pack("<b", 99)
            + encode_value(value.key)
            + encode_value(value.value)
        )
    if isinstance(value, QDict):
        return (
            struct.pack("<b", 99)
            + encode_value(value.keys)
            + encode_value(value.values)
        )
    if isinstance(value, QLambda):
        # lambdas travel as their source text (kdb+ sends a 100 wrapper)
        source = value.source.encode("utf-8")
        return struct.pack("<bB", 100, 0) + b"\x00" + struct.pack(
            "<bBI", 10, 0, len(source)
        ) + source
    raise ProtocolError(f"cannot encode {type(value).__name__} over QIPC")


def encode_error(message: str) -> bytes:
    """kdb+ error response: type -128 + null-terminated text."""
    return struct.pack("<b", -128) + message.encode("utf-8") + b"\x00"


def encode_reply(value: QValue | None) -> bytes:
    """The framed QIPC RESPONSE answering a sync query with ``value``; a
    statement without a value answers the empty general list."""
    payload = encode_value(QList([]) if value is None else value)
    return frame(QipcMessage(MessageType.RESPONSE, payload))


def _encode_atom(atom: QAtom) -> bytes:
    qtype = atom.qtype
    type_byte = struct.pack("<b", -qtype.code)
    if qtype == QType.SYMBOL:
        return type_byte + str(atom.value).encode("utf-8") + b"\x00"
    if qtype == QType.CHAR:
        ch = str(atom.value)[:1] or " "
        return type_byte + ch.encode("utf-8")[:1]
    if qtype == QType.GUID:
        return type_byte + guid_bytes(atom.value)
    raw = atom.value
    null = wire_null(qtype)
    if null is not None and isinstance(raw, float) and math.isnan(raw):
        raw = null
    return type_byte + _pack_raw(qtype, raw)


def _encode_vector(vector: QVector) -> bytes:
    qtype = vector.qtype
    header = struct.pack("<bBI", qtype.code, 0, len(vector.items))
    if qtype == QType.SYMBOL:
        body = b"".join(
            str(s).encode("utf-8") + b"\x00" for s in vector.items
        )
        return header + body
    if qtype == QType.CHAR:
        text = "".join(str(c)[:1] or " " for c in vector.items)
        encoded = text.encode("utf-8")
        # re-declare the length in bytes (utf-8 may expand)
        header = struct.pack("<bBI", qtype.code, 0, len(encoded))
        return header + encoded
    if qtype == QType.GUID:
        return header + b"".join(guid_bytes(g) for g in vector.items)
    return header + pack_fixed(qtype, vector.items)
