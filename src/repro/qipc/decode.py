"""QIPC bytes -> QValue deserialization (inverse of encode).

Vector payloads decode through the batched kernels in
:mod:`repro.qipc.kernels`: one ``struct.unpack_from`` per fixed-width
vector and one split pass per symbol vector, instead of a reader call
per element.
"""

from __future__ import annotations

import struct

from repro.errors import ProtocolError, QError
from repro.qipc.kernels import unpack_fixed, unpack_symbols
from repro.qlang.qtypes import QType
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QList,
    QTable,
    QValue,
    QVector,
)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ProtocolError(
                f"QIPC payload truncated at offset {self.pos} "
                f"(needed {n} bytes of {len(self.data)})"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def int8(self) -> int:
        return struct.unpack("<b", self.take(1))[0]

    def uint8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def uint32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def cstring(self) -> str:
        end = self.data.find(b"\x00", self.pos)
        if end == -1:
            raise ProtocolError("unterminated symbol in QIPC payload")
        text = self.data[self.pos : end].decode("utf-8")
        self.pos = end + 1
        return text


def decode_value(payload: bytes) -> QValue:
    """Deserialize one QIPC object; raises QError for error responses."""
    reader = _Reader(payload)
    value = _decode(reader)
    return value


def _decode(reader: _Reader) -> QValue:
    type_code = reader.int8()
    if type_code == -128:
        message = reader.cstring()
        raise QError(f"remote error: {message}", signal=message)
    if type_code < 0:
        return _decode_atom(reader, -type_code)
    if type_code == 0:
        reader.uint8()  # attributes
        count = reader.uint32()
        return QList([_decode(reader) for __ in range(count)])
    if 1 <= type_code <= 19:
        return _decode_vector(reader, type_code)
    if type_code == 98:
        reader.uint8()  # attributes
        inner = reader.int8()
        if inner != 99:
            raise ProtocolError(f"table payload must wrap a dict, got {inner}")
        columns = _decode(reader)
        values = _decode(reader)
        if not isinstance(columns, QVector) or columns.qtype != QType.SYMBOL:
            raise ProtocolError("table columns must be a symbol vector")
        if not isinstance(values, QList):
            raise ProtocolError("table values must be a general list")
        return QTable(list(columns.items), list(values.items))
    if type_code == 99:
        keys = _decode(reader)
        values = _decode(reader)
        if isinstance(keys, QTable) and isinstance(values, QTable):
            return QKeyedTable(keys, values)
        return QDict(keys, values)
    if type_code == 100:
        reader.uint8()
        reader.cstring()  # namespace
        source = _decode(reader)
        from repro.qlang.parser import parse
        from repro.qlang import ast as qast
        from repro.qlang.values import QLambda

        text = "".join(source.items) if isinstance(source, QVector) else ""
        program = parse(text)
        if program.statements and isinstance(program.statements[0], qast.Lambda):
            lam = program.statements[0]
            return QLambda(lam.params, lam.body, source=text)
        raise ProtocolError("embedded lambda failed to parse")
    raise ProtocolError(f"unsupported QIPC type code {type_code}")


def _decode_atom(reader: _Reader, code: int) -> QAtom:
    qtype = QType(code)
    if qtype == QType.SYMBOL:
        return QAtom(qtype, reader.cstring())
    if qtype == QType.CHAR:
        return QAtom(qtype, reader.take(1).decode("utf-8", "replace"))
    if qtype == QType.GUID:
        raw = reader.take(16)
        return QAtom(qtype, _guid_text(raw))
    spec = qtype.spec
    value = struct.unpack("<" + spec.struct, reader.take(spec.width))[0]
    if qtype == QType.BOOLEAN:
        value = bool(value)
    return QAtom(qtype, value)


def _decode_vector(reader: _Reader, code: int) -> QVector:
    qtype = QType(code)
    reader.uint8()  # attributes
    count = reader.uint32()
    if qtype == QType.SYMBOL:
        symbols, reader.pos = unpack_symbols(reader.data, reader.pos, count)
        return QVector(qtype, symbols)
    if qtype == QType.CHAR:
        text = reader.take(count).decode("utf-8", "replace")
        return QVector(qtype, list(text))
    if qtype == QType.GUID:
        return QVector(
            qtype, [_guid_text(reader.take(16)) for __ in range(count)]
        )
    items, reader.pos = unpack_fixed(qtype, reader.data, reader.pos, count)
    return QVector(qtype, items)


def _guid_text(raw: bytes) -> str:
    hexed = raw.hex()
    return (
        f"{hexed[0:8]}-{hexed[8:12]}-{hexed[12:16]}-{hexed[16:20]}-"
        f"{hexed[20:32]}"
    )
