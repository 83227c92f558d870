"""Batched pack/unpack kernels for QIPC vector payloads.

A QIPC response carries each column as one contiguous fixed-width array
(Figure 5), which Python serializes fastest as a single
``struct.pack(f"<{n}q", *items)`` call rather than one two-byte-dispatch
``struct.pack`` per element.  This module owns those bulk kernels — the
fast path, the scalar fallback it degrades to when a vector carries
NaN-coded nulls or mixed numeric types, and the *reference* scalar
encoder the differential test suite compares against byte-for-byte.
Lint rule HQ005 keeps per-element packing loops out of the rest of
``qipc``/``pgwire``; the ``kernels`` modules are their one allowed home.
"""

from __future__ import annotations

import math
import struct

from repro.errors import ProtocolError
from repro.qlang.qtypes import QType


# -- packing ------------------------------------------------------------------


def wire_null(qtype: QType) -> int | None:
    """The sentinel a NaN-coded null becomes in an integer vector of
    ``qtype`` (the signed ``h``/``i``/``q`` types); None for the rest."""
    return qtype.spec.null if qtype.spec.struct in ("h", "i", "q") else None


def pack_fixed(qtype: QType, items) -> bytes:
    """Pack a fixed-width vector payload in one ``struct.pack`` call.

    The bulk call only succeeds when every item already has the exact
    wire representation (ints in integral vectors, numbers in float
    vectors) — which is the overwhelmingly common shape coming out of
    the columnar result pipeline.  Anything else (NaN-coded nulls in an
    integral vector, floats that need truncation, strings) falls back to
    a normalizing pass that bulk-substitutes and packs again, with
    byte-identical output to the per-element reference encoder.
    """
    if qtype == QType.BOOLEAN:
        # normalize truthiness the way the scalar encoder does (1/0)
        return bytes([1 if item else 0 for item in items])
    code = qtype.spec.struct
    try:
        return struct.pack(f"<{len(items)}{code}", *items)
    except (struct.error, TypeError):
        return struct.pack(f"<{len(items)}{code}", *_normalized(qtype, items))


def _normalized(qtype: QType, items) -> list:
    """Coerce items to their wire type, mapping NaN to the typed null."""
    if qtype.is_floating:
        return [float(item) for item in items]
    null = wire_null(qtype)
    return [
        null
        if null is not None and isinstance(item, float) and math.isnan(item)
        else int(item)
        for item in items
    ]


def pack_fixed_reference(qtype: QType, items) -> bytes:
    """The pre-kernel scalar loop, retained as the differential oracle.

    One ``struct.pack`` per element, with the same NaN-to-null and
    coercion rules the original ``_encode_vector`` applied.  Slow on
    purpose — tests assert ``pack_fixed`` matches it byte-for-byte.
    """
    fmt = "<" + qtype.spec.struct
    null = wire_null(qtype)
    out = []
    for raw in items:
        if null is not None and isinstance(raw, float) and math.isnan(raw):
            raw = null
        if qtype.is_floating:
            out.append(struct.pack(fmt, float(raw)))
        elif qtype == QType.BOOLEAN:
            out.append(struct.pack(fmt, 1 if raw else 0))
        else:
            out.append(struct.pack(fmt, int(raw)))
    return b"".join(out)


def guid_bytes(value) -> bytes:
    """16 GUID payload bytes from canonical text; malformed input is a
    protocol error, never silently padded or truncated."""
    text = str(value).replace("-", "")
    if len(text) != 32:
        raise ProtocolError(f"invalid GUID {value!r}: expected 32 hex digits")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ProtocolError(
            f"invalid GUID {value!r}: non-hexadecimal digits"
        ) from None


# -- unpacking ----------------------------------------------------------------


def unpack_fixed(qtype: QType, data, offset: int, count: int) -> tuple[list, int]:
    """Decode ``count`` fixed-width items with one ``unpack_from`` call.

    Returns ``(values, next_offset)``; booleans come back as ``bool``.
    """
    spec = qtype.spec
    end = offset + count * spec.width
    if end > len(data):
        raise ProtocolError(
            f"QIPC payload truncated at offset {offset} "
            f"(needed {end - offset} bytes of {len(data) - offset})"
        )
    values = list(struct.unpack_from(f"<{count}{spec.struct}", data, offset))
    if qtype == QType.BOOLEAN:
        values = [value != 0 for value in values]
    return values, end


def unpack_symbols(data: bytes, offset: int, count: int) -> tuple[list[str], int]:
    """Decode ``count`` NUL-terminated symbols in one split pass."""
    if count == 0:
        return [], offset
    parts = bytes(data[offset:]).split(b"\x00", count)
    if len(parts) <= count:
        raise ProtocolError("unterminated symbol in QIPC payload")
    symbols = [part.decode("utf-8") for part in parts[:count]]
    consumed = sum(len(part) for part in parts[:count]) + count
    return symbols, offset + consumed


# -- reference vector encoder (differential-test oracle) ----------------------


def reference_encode_vector(vector) -> bytes:
    """The pre-change ``_encode_vector``, element at a time.

    Kept verbatim so the round-trip suite can prove the batched encoder
    in :mod:`repro.qipc.encode` produces identical bytes for every
    vector type, including typed nulls, NaN and multi-byte symbols.
    """
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
        header = struct.pack("<bBI", qtype.code, 0, len(encoded))
        return header + encoded
    if qtype == QType.GUID:
        return header + b"".join(guid_bytes(g) for g in vector.items)
    return header + pack_fixed_reference(qtype, vector.items)
