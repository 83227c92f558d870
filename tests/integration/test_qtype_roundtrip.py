"""Every Q type, nulls included, round-trips through Hyper-Q as its
descriptor says.

An atom and a vector of each :class:`QType` are bound as Q literals,
executed, pivoted and sent through QIPC encode/decode: once against the
in-process engine, once with the backend behind a ``NetworkGateway`` to
a ``PgWireServer``.  Each must come back as the type and value its
:class:`~repro.qlang.qtypes.QTypeSpec` degrades it to: the Q type its
SQL type pivots to (:func:`from_sql`) holding its SQL value
(:meth:`QType.sql_values`), a null as that type's null.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import HyperQ
from repro.qipc.decode import decode_value
from repro.qipc.encode import encode_value
from repro.qlang import ast
from repro.qlang.qtypes import QType, from_sql
from repro.qlang.values import QAtom, QVector
from repro.server.gateway import NetworkGateway
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values

_DAY_NANOS = 86_400_000_000_000
_CENTURY_DAYS = 36_525


def _ints(low: int, high: int):
    return st.integers(low, high)


#: non-null raws per type; the null is mixed in by ``_raws``
_VALUES = {
    QType.BOOLEAN: st.booleans(),
    QType.GUID: st.uuids().map(str),
    QType.BYTE: _ints(1, 255),
    QType.SHORT: _ints(-(2**15) + 1, 2**15 - 1),
    QType.INT: _ints(-(2**31) + 1, 2**31 - 1),
    QType.LONG: _ints(-(2**63) + 1, 2**63 - 1),
    QType.REAL: st.floats(width=32, allow_nan=False),
    QType.FLOAT: st.floats(allow_nan=False),
    QType.CHAR: st.characters(min_codepoint=33, max_codepoint=126),
    QType.SYMBOL: st.text(
        st.characters(min_codepoint=33, max_codepoint=0x2FFF), min_size=1
    ),
    QType.TIMESTAMP: _ints(-_CENTURY_DAYS * _DAY_NANOS, _CENTURY_DAYS * _DAY_NANOS),
    QType.MONTH: _ints(-1200, 1200),
    QType.DATE: _ints(-_CENTURY_DAYS, _CENTURY_DAYS),
    QType.DATETIME: _ints(-_CENTURY_DAYS * 1000, _CENTURY_DAYS * 1000).map(
        lambda millis: millis / 1000
    ),
    QType.TIMESPAN: _ints(-(10**15), 10**15),
    QType.MINUTE: _ints(0, 24 * 60 - 1),
    QType.SECOND: _ints(0, 86_399),
    QType.TIME: _ints(0, 86_399_999),
}

#: disagreements the property found and this change does not mend
_KNOWN = {
    ("pgwire", QType.TIMESTAMP): (
        "PG's text format carries a timestamp at microsecond resolution"
    ),
}


def _raws(qtype: QType):
    values = _VALUES[qtype]
    if not qtype.spec.nullable:
        return values
    return st.one_of(values, st.just(qtype.spec.null))


def _degraded(qtype: QType, raws: list) -> tuple[QType, list]:
    """The pivot type and raws the descriptor says ``raws`` come back as."""
    target = from_sql(qtype.spec.sql)
    return target, [
        target.spec.null if value is None else value
        for value in qtype.sql_values(raws)
    ]


def _answer(platform: HyperQ, statement: ast.Node):
    session = platform.create_session()
    translation = session.pipeline.translate(
        statement, session.session_scope
    ).to_result()
    return decode_value(encode_value(session.pt.respond(translation)))


@pytest.fixture(scope="module")
def platforms():
    with PgWireServer(Engine()) as server:
        with NetworkGateway(*server.address) as gateway:
            yield {"engine": HyperQ(), "pgwire": HyperQ(backend=gateway)}


def _check(platform: HyperQ, qtype: QType, atom_raw, vector_raws: list) -> None:
    target, (expected_atom,) = _degraded(qtype, [atom_raw])
    __, expected_items = _degraded(qtype, vector_raws)
    got = _answer(platform, ast.Literal(QAtom(qtype, atom_raw)))
    assert got.qtype == target
    comparison = compare_values(got, QAtom(target, expected_atom))
    assert comparison, f"atom: {comparison.reason}"
    table = ast.TableExpr([], [("c", ast.Literal(QVector(qtype, vector_raws)))])
    column = _answer(platform, table).column("c")
    assert column.qtype == target
    comparison = compare_values(column, QVector(target, expected_items))
    assert comparison, f"vector: {comparison.reason}"


@pytest.mark.parametrize(
    "path, qtype",
    [
        pytest.param(
            path, qtype,
            marks=[pytest.mark.xfail(strict=True, reason=_KNOWN[path, qtype])]
            if (path, qtype) in _KNOWN else [],
        )
        for path in ("engine", "pgwire")
        for qtype in QType
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_every_type_round_trips_to_its_degraded_value(platforms, path, qtype):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_raws(qtype), st.lists(_raws(qtype), min_size=1, max_size=6))
    def round_trip(atom_raw, vector_raws):
        _check(platforms[path], qtype, atom_raw, vector_raws)

    round_trip()
