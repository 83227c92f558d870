"""Value comparators for the side-by-side testing framework.

Exact type identity between kdb+ and a SQL round trip is impossible — Q
ints come back as bigints, minutes come back as times — so comparison
normalizes values to *equivalence classes* before comparing:

* numeric values compare with a relative tolerance;
* values compare within their type's comparator family, each in the
  SQL encoding of its type (:meth:`~repro.qlang.qtypes.QType.sql_values`),
  so a minute meets the time it became and a month the first-of-month
  date;
* symbol and string payloads compare as text;
* tables compare column-by-column in row order (Q order is load-bearing).
"""

from __future__ import annotations

from dataclasses import dataclass

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

REL_TOLERANCE = 1e-9
ABS_TOLERANCE = 1e-12


@dataclass
class Comparison:
    match: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.match


def mismatch(reason: str) -> Comparison:
    return Comparison(False, reason)


MATCH = Comparison(True)


def _values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, str) or isinstance(b, str):
        return str(a) == str(b)
    fa, fb = float(a), float(b)
    if fa == fb:
        return True
    return abs(fa - fb) <= max(
        ABS_TOLERANCE, REL_TOLERANCE * max(abs(fa), abs(fb))
    )


def compare_atoms(a: QAtom, b: QAtom, path: str = "") -> Comparison:
    if a.qtype.spec.family != b.qtype.spec.family:
        return mismatch(
            f"{path}: type kinds differ ({a.qtype.name} vs {b.qtype.name})"
        )
    if not _values_equal(a.qtype.sql_value(a.value), b.qtype.sql_value(b.value)):
        return mismatch(f"{path}: {a.value!r} != {b.value!r}")
    return MATCH


def compare_vectors(a: QVector, b: QVector, path: str = "") -> Comparison:
    if len(a) != len(b):
        return mismatch(f"{path}: lengths differ ({len(a)} vs {len(b)})")
    if a.qtype.spec.family != b.qtype.spec.family:
        return mismatch(
            f"{path}: type kinds differ ({a.qtype.name} vs {b.qtype.name})"
        )
    sql_a, sql_b = a.qtype.sql_values(a.items), b.qtype.sql_values(b.items)
    for i, (x, y) in enumerate(zip(sql_a, sql_b)):
        if not _values_equal(x, y):
            return mismatch(f"{path}[{i}]: {a.items[i]!r} != {b.items[i]!r}")
    return MATCH


def compare_values(a: QValue, b: QValue, path: str = "value") -> Comparison:
    """Structural comparison under the normalization rules."""
    # a char-vector (string) on one side vs a symbol on the other: both are
    # text payloads after a SQL round trip
    a, b = _normalize_text(a), _normalize_text(b)

    if isinstance(a, QAtom) and isinstance(b, QAtom):
        return compare_atoms(a, b, path)
    if isinstance(a, QVector) and isinstance(b, QVector):
        return compare_vectors(a, b, path)
    if isinstance(a, QList) and isinstance(b, QList):
        if len(a) != len(b):
            return mismatch(f"{path}: list lengths differ")
        for i, (x, y) in enumerate(zip(a.items, b.items)):
            result = compare_values(x, y, f"{path}[{i}]")
            if not result:
                return result
        return MATCH
    if isinstance(a, QTable) and isinstance(b, QTable):
        return compare_tables(a, b, path)
    if isinstance(a, QKeyedTable) and isinstance(b, QKeyedTable):
        key_cmp = compare_tables(a.key, b.key, f"{path}.key")
        if not key_cmp:
            return key_cmp
        return compare_tables(a.value, b.value, f"{path}.value")
    if isinstance(a, QDict) and isinstance(b, QDict):
        keys = compare_values(a.keys, b.keys, f"{path}.keys")
        if not keys:
            return keys
        return compare_values(a.values, b.values, f"{path}.values")
    # one side vector, other list (e.g. general list of atoms): align
    if isinstance(a, (QVector, QList)) and isinstance(b, (QVector, QList)):
        if len(a) != len(b):
            return mismatch(f"{path}: lengths differ")
        for i in range(len(a)):
            result = compare_values(
                a.atom_at(i), b.atom_at(i), f"{path}[{i}]"
            )
            if not result:
                return result
        return MATCH
    return mismatch(
        f"{path}: shapes differ ({type(a).__name__} vs {type(b).__name__})"
    )


def _normalize_text(value: QValue) -> QValue:
    """A q string (char vector) normalizes to a symbol atom for text
    comparison after SQL round trips."""
    if isinstance(value, QVector) and value.qtype == QType.CHAR:
        return QAtom(QType.SYMBOL, "".join(value.items))
    return value


def compare_tables(a: QTable, b: QTable, path: str = "table") -> Comparison:
    if list(a.columns) != list(b.columns):
        return mismatch(
            f"{path}: column sets differ ({a.columns} vs {b.columns})"
        )
    if len(a) != len(b):
        return mismatch(f"{path}: row counts differ ({len(a)} vs {len(b)})")
    for name in a.columns:
        result = compare_values(
            a.column(name), b.column(name), f"{path}.{name}"
        )
        if not result:
            return result
    return MATCH
