"""Differential tests: batched QIPC kernels vs the scalar reference.

The batched encoder must be byte-for-byte identical to the retained
per-element reference for every Q vector type — including typed nulls,
NaN-coded nulls, empty vectors, booleans of odd truthiness, and
multi-byte UTF-8 symbols — and every encoding must round-trip through
the batched decoder.
"""

import math
import struct

import pytest

from repro.errors import ProtocolError
from repro.qipc.decode import decode_value
from repro.qipc.encode import encode_value
from repro.qipc.kernels import (
    guid_bytes,
    pack_fixed,
    pack_fixed_reference,
    reference_encode_vector,
    unpack_fixed,
    unpack_symbols,
    wire_null,
)
from repro.qlang.qtypes import (
    NULL_INT,
    NULL_LONG,
    NULL_SHORT,
    QType,
)
from repro.qlang.values import QTable, QVector, q_match

#: one representative payload per vector type, exercising negatives,
#: nulls, NaN and boundary values
VECTOR_CASES = [
    QVector(QType.BOOLEAN, [True, False, True, 1, 0]),
    QVector(QType.BYTE, [0, 1, 127, 255]),
    QVector(QType.SHORT, [0, -1, 32767, NULL_SHORT]),
    QVector(QType.INT, [0, -1, 2**31 - 1, NULL_INT]),
    QVector(QType.LONG, [0, -1, 2**63 - 1, NULL_LONG]),
    QVector(QType.REAL, [0.0, -1.5, float("nan"), float("inf")]),
    QVector(QType.FLOAT, [0.0, 3.14159, float("nan"), float("-inf")]),
    QVector(QType.TIMESTAMP, [0, 86_400_000_000_000, NULL_LONG]),
    QVector(QType.MONTH, [0, 12, -12, NULL_INT]),
    QVector(QType.DATE, [0, 7305, -365, NULL_INT]),
    QVector(QType.DATETIME, [0.0, 1.5, float("nan")]),
    QVector(QType.TIMESPAN, [0, 1_000_000_000, NULL_LONG]),
    QVector(QType.MINUTE, [0, 90, NULL_INT]),
    QVector(QType.SECOND, [0, 3600, NULL_INT]),
    QVector(QType.TIME, [0, 43_200_000, NULL_INT]),
    QVector(QType.SYMBOL, ["abc", "", "naïve", "株式会社", "a b"]),
    QVector(QType.CHAR, list("hello")),
    QVector(
        QType.GUID,
        [
            "00000000-0000-0000-0000-000000000000",
            "deadbeef-cafe-babe-f00d-0123456789ab",
        ],
    ),
]

_IDS = [case.qtype.name for case in VECTOR_CASES]


class TestEncoderDifferential:
    @pytest.mark.parametrize("vector", VECTOR_CASES, ids=_IDS)
    def test_batched_matches_reference(self, vector):
        assert encode_value(vector) == reference_encode_vector(vector)

    @pytest.mark.parametrize(
        "qtype",
        [t for t in QType if t.spec.struct is not None],
        ids=lambda t: t.name,
    )
    def test_empty_vector_matches_reference(self, qtype):
        vector = QVector(qtype, [])
        assert encode_value(vector) == reference_encode_vector(vector)

    @pytest.mark.parametrize(
        "qtype",
        [t for t in QType if wire_null(t) is not None],
        ids=lambda t: t.name,
    )
    def test_nan_coded_null_in_integral_vector(self, qtype):
        # the engine encodes SQL NULL as the qtype's null; a float NaN
        # leaking into an integral vector must hit the normalizing
        # fallback and still match the reference
        vector = QVector(qtype, [1, float("nan"), 2])
        assert encode_value(vector) == reference_encode_vector(vector)

    def test_floats_in_integral_vector_truncate_like_reference(self):
        vector = QVector(QType.LONG, [1.0, 2.9, -3.1])
        assert encode_value(vector) == reference_encode_vector(vector)

    def test_ints_in_float_vector(self):
        vector = QVector(QType.FLOAT, [1, 2, 3])
        assert encode_value(vector) == reference_encode_vector(vector)

    def test_boolean_truthiness_normalized(self):
        vector = QVector(QType.BOOLEAN, [5, 0, "", "x", None, True])
        encoded = encode_value(vector)
        assert encoded == reference_encode_vector(vector)
        assert encoded[6:] == bytes([1, 0, 0, 1, 0, 1])

    def test_pack_fixed_matches_scalar_reference_directly(self):
        for qtype, items in (
            (QType.LONG, list(range(-500, 500))),
            (QType.FLOAT, [i / 7 for i in range(1000)]),
            (QType.SHORT, [NULL_SHORT, 0, 1, -1] * 50),
        ):
            assert pack_fixed(qtype, items) == pack_fixed_reference(
                qtype, items
            )


class TestRoundTrips:
    @pytest.mark.parametrize("vector", VECTOR_CASES, ids=_IDS)
    def test_encode_decode_roundtrip(self, vector):
        decoded = decode_value(encode_value(vector))
        assert isinstance(decoded, QVector)
        assert decoded.qtype == vector.qtype
        assert q_match(decoded, decode_value(reference_encode_vector(vector)))

    def test_table_of_every_fixed_type_roundtrips(self):
        vectors = [
            QVector(case.qtype, list(case.items[:3]))
            for case in VECTOR_CASES[:5]
        ]
        columns = [vector.qtype.name.lower() for vector in vectors]
        table = QTable(columns, vectors)
        decoded = decode_value(encode_value(table))
        assert q_match(decoded, table)

    def test_unpack_fixed_truncation_raises(self):
        data = struct.pack("<3q", 1, 2, 3)
        with pytest.raises(ProtocolError):
            unpack_fixed(QType.LONG, data, 0, 4)

    def test_unpack_symbols_missing_terminator_raises(self):
        with pytest.raises(ProtocolError):
            unpack_symbols(b"abc\x00def", 0, 2)

    def test_unpack_symbols_offset_tracking(self):
        data = b"??a\x00\x00caf\xc3\xa9\x00tail"
        symbols, offset = unpack_symbols(data, 2, 3)
        assert symbols == ["a", "", "café"]
        assert data[offset:] == b"tail"

    def test_nan_survives_roundtrip(self):
        decoded = decode_value(
            encode_value(QVector(QType.FLOAT, [1.0, float("nan")]))
        )
        assert decoded.items[0] == 1.0
        assert math.isnan(decoded.items[1])


class TestGuidValidation:
    def test_valid_guid(self):
        assert guid_bytes("deadbeef-cafe-babe-f00d-0123456789ab") == (
            bytes.fromhex("deadbeefcafebabef00d0123456789ab")
        )

    def test_undashed_guid(self):
        assert (
            guid_bytes("deadbeefcafebabef00d0123456789ab")
            == bytes.fromhex("deadbeefcafebabef00d0123456789ab")
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "too-short",
            "",
            "deadbeef-cafe-babe-f00d-0123456789",  # 30 digits
            "deadbeef-cafe-babe-f00d-0123456789abcd",  # 34 digits
            "gggggggg-gggg-gggg-gggg-gggggggggggg",  # non-hex
        ],
    )
    def test_malformed_guid_raises_protocol_error(self, bad):
        # the old encoder silently ljust/truncated these onto the wire
        with pytest.raises(ProtocolError):
            guid_bytes(bad)

    def test_malformed_guid_in_vector_raises(self):
        with pytest.raises(ProtocolError):
            encode_value(QVector(QType.GUID, ["nope"]))
