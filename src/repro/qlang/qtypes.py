"""The Q/kdb+ type system: one descriptor per type, typed nulls, promotion.

kdb+ identifies types by a small integer: a *positive* code denotes a typed
vector, the *negative* of the same code denotes an atom, ``0`` is a general
list, and codes >= 98 are compound structures (table, dictionary, lambda).
This module models the scalar portion of that scheme; compound values live
in :mod:`repro.qlang.values`.

Every per-type fact lives in one frozen :class:`QTypeSpec` per
:class:`QType`, read as the member attribute ``qtype.spec``: the type
char, the QIPC struct code and width, the typed null and how the console
writes it, the SQL type of the paper's Section 3.2.2 mapping (with a note
where it degrades the type), the one Q -> SQL value conversion the
binder, the loader and ``DataMover`` all apply, the comparator family,
and the per-cell converter of the result pivot.  The SQL -> Q pivot map
(:func:`from_sql`, step 6) is derived from the same rows.  No other
module keeps a per-type table; lint rule HQ012 holds that.

A boolean has no null in q: ``0b`` is a value, and only the pivot's fill
for a SQL NULL.  Temporal encodings follow kdb+ conventions; the SQL
column stores the engine's encoding of the mapped type:

=========  =======================================  ============================
type       stored as                                in SQL
=========  =======================================  ============================
timestamp  nanoseconds since 2000.01.01D00:00:00    timestamp, the same
month      months since 2000.01m                    date: the first of the month
date       days since 2000.01.01                    date, the same
datetime   days since 2000.01.01, as a float        timestamp: nanoseconds
timespan   nanoseconds                              interval, the same
minute     minutes since midnight                   time: milliseconds
second     seconds since midnight                   time: milliseconds
time       milliseconds since midnight              time, the same
=========  =======================================  ============================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Callable

from repro.errors import QTypeError
from repro.sqlengine.types import SqlType

NULL_SHORT = -(2**15)
NULL_INT = -(2**31)
NULL_LONG = -(2**63)
INF_LONG = 2**63 - 1

_NAN = float("nan")
_NULL_GUID = "00000000-0000-0000-0000-000000000000"
_EPOCH_ORDINAL = date(2000, 1, 1).toordinal()
_NANOS_PER_DAY = 86_400_000_000_000


class QType(Enum):
    """Positive kdb+ vector type codes (atoms use the negated code)."""

    BOOLEAN = 1
    GUID = 2
    BYTE = 4
    SHORT = 5
    INT = 6
    LONG = 7
    REAL = 8
    FLOAT = 9
    CHAR = 10
    SYMBOL = 11
    TIMESTAMP = 12
    MONTH = 13
    DATE = 14
    DATETIME = 15
    TIMESPAN = 16
    MINUTE = 17
    SECOND = 18
    TIME = 19

    spec: QTypeSpec

    @property
    def code(self) -> int:
        return self.value

    @property
    def char(self) -> str:
        """Single-character type name as shown by ``meta`` in q."""
        return self.spec.char

    @property
    def is_numeric(self) -> bool:
        return self.spec.family in ("bool", "number")

    @property
    def is_integral(self) -> bool:
        return self.is_numeric and not self.is_floating

    @property
    def is_temporal(self) -> bool:
        return self.spec.family in ("days", "nanos", "intraday")

    @property
    def is_floating(self) -> bool:
        return self.spec.struct in ("f", "d")

    def is_null(self, raw) -> bool:
        """True when ``raw`` is this type's null; never for a boolean."""
        null = self.spec.null
        if null != null:  # NaN-coded
            return raw != raw
        return self.spec.nullable and raw == null

    def sql_values(self, items) -> list:
        """The SQL-side values of Q raws of this type: a null (or a NaN)
        becomes None, the rest go through the type's one conversion."""
        spec = self.spec
        null = spec.null if spec.nullable else _NO_NULL
        convert = spec.to_sql
        if convert is None:
            return [None if x == null or x != x else x for x in items]
        return [None if x == null or x != x else convert(x) for x in items]

    def sql_value(self, raw):
        """:meth:`sql_values` of one raw."""
        return self.sql_values((raw,))[0]


_NO_NULL = object()


@dataclass(frozen=True)
class QTypeSpec:
    """Everything the translator knows about one Q type."""

    char: str
    #: QIPC ``struct`` code of a fixed-width item; None for GUID, char
    #: and symbol, which the codecs frame themselves
    struct: str | None
    #: the typed null; a boolean's ``0b`` is only the pivot's NULL fill
    null: object
    #: the null as the console shows it; None when the type has no null
    null_literal: str | None
    sql: SqlType
    #: comparator equivalence class: values of one family compare after
    #: :meth:`QType.sql_values` puts both in the SQL encoding
    family: str
    #: how the SQL mapping loses information, when it does
    note: str | None = None
    #: Q raw -> SQL raw; None is the identity
    to_sql: Callable | None = None
    #: bytes per fixed-width QIPC item; 0 without a struct code
    width: int = field(init=False)
    #: SQL cell -> Q raw, applied by the result pivot
    cell: Callable = field(init=False)

    def __post_init__(self) -> None:
        code = self.struct
        width = struct.calcsize("<" + code) if code else 0
        object.__setattr__(self, "width", width)
        cell = (
            str if code is None
            else bool if code == "b"
            else float if code in ("f", "d")
            else int
        )
        object.__setattr__(self, "cell", cell)

    @property
    def nullable(self) -> bool:
        return self.null_literal is not None


def _first_of_month(months: int) -> int:
    year, month = divmod(months, 12)
    return date(2000 + year, month + 1, 1).toordinal() - _EPOCH_ORDINAL


def _days_to_nanos(days: float) -> int:
    return round(days * _NANOS_PER_DAY)


def _minutes_to_millis(minutes: int) -> int:
    return minutes * 60_000


def _seconds_to_millis(seconds: int) -> int:
    return seconds * 1_000


_S = SqlType
_SPECS = {
    #                  char struct null  null literal SQL type   family
    QType.BOOLEAN: QTypeSpec("b", "b", False, None, _S.BOOLEAN, "bool"),
    QType.GUID: QTypeSpec("g", None, _NULL_GUID, "0Ng", _S.UUID, "guid"),
    QType.BYTE: QTypeSpec(
        "x", "B", 0, "0x00", _S.SMALLINT, "number",
        note="byte widens to smallint",
    ),
    QType.SHORT: QTypeSpec("h", "h", NULL_SHORT, "0Nh", _S.SMALLINT, "number"),
    QType.INT: QTypeSpec("i", "i", NULL_INT, "0Ni", _S.INTEGER, "number"),
    QType.LONG: QTypeSpec("j", "q", NULL_LONG, "0N", _S.BIGINT, "number"),
    QType.REAL: QTypeSpec("e", "f", _NAN, "0Ne", _S.REAL, "number"),
    QType.FLOAT: QTypeSpec("f", "d", _NAN, "0n", _S.DOUBLE, "number"),
    QType.CHAR: QTypeSpec("c", None, " ", " ", _S.CHAR, "text"),
    QType.SYMBOL: QTypeSpec("s", None, "", "`", _S.VARCHAR, "text"),
    QType.TIMESTAMP: QTypeSpec("p", "q", NULL_LONG, "0Np", _S.TIMESTAMP, "nanos"),
    QType.MONTH: QTypeSpec(
        "m", "i", NULL_INT, "0Nm", _S.DATE, "days",
        note="month degrades to first-of-month date", to_sql=_first_of_month,
    ),
    QType.DATE: QTypeSpec("d", "i", NULL_INT, "0Nd", _S.DATE, "days"),
    QType.DATETIME: QTypeSpec(
        "z", "d", _NAN, "0Nz", _S.TIMESTAMP, "nanos",
        note="datetime degrades to timestamp", to_sql=_days_to_nanos,
    ),
    QType.TIMESPAN: QTypeSpec("n", "q", NULL_LONG, "0Nn", _S.INTERVAL, "nanos"),
    QType.MINUTE: QTypeSpec(
        "u", "i", NULL_INT, "0Nu", _S.TIME, "intraday",
        note="minute degrades to time", to_sql=_minutes_to_millis,
    ),
    QType.SECOND: QTypeSpec(
        "v", "i", NULL_INT, "0Nv", _S.TIME, "intraday",
        note="second degrades to time", to_sql=_seconds_to_millis,
    ),
    QType.TIME: QTypeSpec("t", "i", NULL_INT, "0Nt", _S.TIME, "intraday"),
}

for _qtype in QType:
    _qtype.spec = _SPECS[_qtype]


def _pivot_map() -> dict[SqlType, QType]:
    """SQL type -> the Q type its column pivots to: the one type mapped
    to it without degradation, plus the SQL-only types' aliases."""
    pivot = dict(
        ((_S.NUMERIC, QType.FLOAT), (_S.TEXT, QType.SYMBOL), (_S.NULL, QType.LONG))
    )
    for qtype in QType:
        if qtype.spec.note is None:
            if qtype.spec.sql in pivot:
                raise TypeError(
                    f"{qtype.spec.sql} pivots to both {pivot[qtype.spec.sql]} "
                    f"and {qtype}"
                )
            pivot[qtype.spec.sql] = qtype
    return pivot


_FROM_SQL = _pivot_map()


def from_sql(sql_type: SqlType) -> QType:
    """The Q type a SQL column of ``sql_type`` pivots to (step 6)."""
    return _FROM_SQL[sql_type]


#: Numeric promotion order for dyadic arithmetic (wider wins).
_PROMOTION_ORDER = [
    QType.BOOLEAN,
    QType.BYTE,
    QType.SHORT,
    QType.INT,
    QType.LONG,
    QType.REAL,
    QType.FLOAT,
]


def promote(left: QType, right: QType) -> QType:
    """Result type of a dyadic arithmetic op on ``left`` and ``right``.

    Follows q's widening rules for the numeric tower; temporal types
    combine with integral types by staying temporal (e.g. ``date + int``
    is a date).  Raises :class:`QTypeError` on un-combinable types.
    """
    if left == right:
        return left
    if left.is_numeric and right.is_numeric:
        li = _PROMOTION_ORDER.index(left)
        ri = _PROMOTION_ORDER.index(right)
        return _PROMOTION_ORDER[max(li, ri)]
    if left.is_temporal and right.is_numeric:
        return left
    if left.is_numeric and right.is_temporal:
        return right
    # timespan combines with other temporals without changing their kind
    if left.is_temporal and right == QType.TIMESPAN:
        return left
    if left == QType.TIMESPAN and right.is_temporal:
        return right
    raise QTypeError(
        f"cannot combine operands of type {left.name.lower()} and {right.name.lower()}"
    )


_BY_CHAR = {t.char: t for t in QType}
_BY_NAME = {t.name.lower(): t for t in QType}


def type_from_char(char: str) -> QType:
    """Look up a QType by its single-character name (``j`` -> LONG)."""
    try:
        return _BY_CHAR[char]
    except KeyError:
        raise QTypeError(f"unknown type character {char!r}") from None


def type_from_name(name: str) -> QType | None:
    """The QType a cast names (`` `long$``), or None."""
    return _BY_NAME.get(name)
