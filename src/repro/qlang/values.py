"""The Q data model: atoms, vectors, general lists, dictionaries, tables.

Q is a list-processing language; every compound structure is built from
ordered lists (the paper stresses that ordering is a first-class citizen).
We model values as a small closed class hierarchy:

* :class:`QAtom` — a scalar with a :class:`~repro.qlang.qtypes.QType`
* :class:`QVector` — a homogeneous typed list (raw Python payloads)
* :class:`QList` — a heterogeneous "general" list of :class:`QValue`
* :class:`QDict` — ordered key/value mapping between two lists
* :class:`QTable` — a flipped dictionary of column vectors
* :class:`QKeyedTable` — a dictionary between two tables
* :class:`QLambda` — a function literal (AST captured, not compiled)

Raw vector payloads are plain Python scalars; temporal types carry their
kdb+ integer encodings (see :mod:`repro.qlang.qtypes`).  Null handling is
everywhere *two-valued*: a null equals a null.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.errors import QLengthError, QTypeError
from repro.qlang.qtypes import QType


class QValue:
    """Abstract base for all Q runtime values."""

    __slots__ = ()

    #: kdb+ signed type code; overridden per subclass.
    @property
    def qcode(self) -> int:
        raise NotImplementedError

    @property
    def is_atom(self) -> bool:
        return False

    @property
    def is_list_like(self) -> bool:
        """True for anything indexable by position (vector/list/table)."""
        return False

    def __eq__(self, other) -> bool:  # structural equality, q's ~ (match)
        return q_match(self, other) if isinstance(other, QValue) else NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")


def raw_equal(qtype: QType, a, b) -> bool:
    """Two-valued equality on raw payloads: null matches null (q semantics)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


class QAtom(QValue):
    """A scalar Q value, e.g. ``7`` (long), `` `GOOG`` (symbol)."""

    __slots__ = ("qtype", "value")

    def __init__(self, qtype: QType, value):
        self.qtype = qtype
        self.value = value

    @property
    def qcode(self) -> int:
        return -self.qtype.code

    @property
    def is_atom(self) -> bool:
        return True

    @property
    def is_null(self) -> bool:
        return self.qtype.is_null(self.value)

    def __repr__(self):
        return f"QAtom({self.qtype.name.lower()}, {self.value!r})"

    def __hash__(self):
        v = self.value
        if isinstance(v, float) and math.isnan(v):
            v = "0n"
        return hash((self.qtype, v))

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QAtom)
            and other.qtype == self.qtype
            and raw_equal(self.qtype, self.value, other.value)
        )


class QVector(QValue):
    """A homogeneous typed list; payloads are raw Python scalars."""

    __slots__ = ("qtype", "items")

    def __init__(self, qtype: QType, items: Iterable):
        self.qtype = qtype
        self.items = list(items)

    @property
    def qcode(self) -> int:
        return self.qtype.code

    @property
    def is_list_like(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[QAtom]:
        qtype = self.qtype
        return (QAtom(qtype, raw) for raw in self.items)

    def atom_at(self, index: int) -> QAtom:
        return QAtom(self.qtype, self.items[index])

    def take(self, indices: Sequence[int]) -> "QVector":
        """Index the vector by a list of positions; -like q's ``x idx``."""
        null = self.qtype.spec.null
        n = len(self.items)
        picked = [self.items[i] if 0 <= i < n else null for i in indices]
        return QVector(self.qtype, picked)

    def __repr__(self):
        return f"QVector({self.qtype.name.lower()}, {self.items!r})"

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        if not isinstance(other, QVector):
            return False
        if other.qtype != self.qtype or len(other.items) != len(self.items):
            return False
        return all(
            raw_equal(self.qtype, a, b) for a, b in zip(self.items, other.items)
        )

    __hash__ = None


class QList(QValue):
    """A heterogeneous general list (kdb+ type 0)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[QValue]):
        self.items = list(items)
        for item in self.items:
            if not isinstance(item, QValue):
                raise QTypeError(
                    f"general list items must be QValues, got {type(item).__name__}"
                )

    @property
    def qcode(self) -> int:
        return 0

    @property
    def is_list_like(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[QValue]:
        return iter(self.items)

    def atom_at(self, index: int) -> QValue:
        return self.items[index]

    def __repr__(self):
        return f"QList({self.items!r})"

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QList)
            and len(other.items) == len(self.items)
            and all(q_match(a, b) for a, b in zip(self.items, other.items))
        )

    __hash__ = None


class QDict(QValue):
    """An ordered dictionary: two parallel lists of keys and values."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: QValue, values: QValue):
        if not keys.is_list_like or not values.is_list_like:
            raise QTypeError("dictionary keys and values must be lists")
        if length_of(keys) != length_of(values):
            raise QLengthError(
                f"dictionary keys ({length_of(keys)}) and values "
                f"({length_of(values)}) differ in length"
            )
        self.keys = keys
        self.values = values

    @property
    def qcode(self) -> int:
        return 99

    def __len__(self) -> int:
        return length_of(self.keys)

    def lookup(self, key: QValue) -> QValue:
        """Return the value mapped to ``key``; typed null when absent."""
        for i in range(len(self)):
            if q_match(index_value(self.keys, i), key):
                return index_value(self.values, i)
        return null_like(self.values)

    def __repr__(self):
        return f"QDict({self.keys!r}, {self.values!r})"

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QDict)
            and q_match(self.keys, other.keys)
            and q_match(self.values, other.values)
        )

    __hash__ = None


class QTable(QValue):
    """A table: ordered column names over equal-length column lists."""

    __slots__ = ("columns", "data")

    def __init__(self, columns: Sequence[str], data: Sequence[QValue]):
        columns = list(columns)
        data = list(data)
        if len(columns) != len(data):
            raise QLengthError(
                f"{len(columns)} column names but {len(data)} column lists"
            )
        lengths = {length_of(col) for col in data}
        if len(lengths) > 1:
            raise QLengthError(f"columns differ in length: {sorted(lengths)}")
        for col in data:
            if not col.is_list_like:
                raise QTypeError("table columns must be lists")
        self.columns = columns
        self.data = data

    @property
    def qcode(self) -> int:
        return 98

    @property
    def is_list_like(self) -> bool:
        return True

    def __len__(self) -> int:
        """Row count."""
        return 0 if not self.data else length_of(self.data[0])

    def column(self, name: str) -> QValue:
        try:
            return self.data[self.columns.index(name)]
        except ValueError:
            raise QTypeError(f"table has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def row(self, index: int) -> QDict:
        """Row ``index`` as a symbol->value dictionary (q's ``t i``)."""
        keys = QVector(QType.SYMBOL, self.columns)
        values = QList([index_value(col, index) for col in self.data])
        return QDict(keys, values)

    def atom_at(self, index: int) -> QDict:
        return self.row(index)

    def take(self, indices: Sequence[int]) -> "QTable":
        """Select rows by position, preserving column types."""
        return QTable(
            self.columns, [take_value(col, indices) for col in self.data]
        )

    def with_column(self, name: str, column: QValue) -> "QTable":
        """Functional update: replace or append a column."""
        columns = list(self.columns)
        data = list(self.data)
        if name in columns:
            data[columns.index(name)] = column
        else:
            columns.append(name)
            data.append(column)
        return QTable(columns, data)

    def __repr__(self):
        return f"QTable(columns={self.columns!r}, rows={len(self)})"

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QTable)
            and other.columns == self.columns
            and all(q_match(a, b) for a, b in zip(self.data, other.data))
        )

    __hash__ = None


class QKeyedTable(QValue):
    """A keyed table: a dictionary from a key table to a value table."""

    __slots__ = ("key", "value")

    def __init__(self, key: QTable, value: QTable):
        if len(key) != len(value):
            raise QLengthError("keyed table key and value row counts differ")
        self.key = key
        self.value = value

    @property
    def qcode(self) -> int:
        return 99

    def __len__(self) -> int:
        return len(self.key)

    def unkey(self) -> QTable:
        """``0!`` — flatten into a plain table, keys first."""
        return QTable(
            self.key.columns + self.value.columns, self.key.data + self.value.data
        )

    @property
    def key_columns(self) -> list[str]:
        return list(self.key.columns)

    def __repr__(self):
        return (
            f"QKeyedTable(keys={self.key.columns!r}, "
            f"values={self.value.columns!r}, rows={len(self)})"
        )

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QKeyedTable)
            and q_match(self.key, other.key)
            and q_match(self.value, other.value)
        )

    __hash__ = None


class QLambda(QValue):
    """A function literal ``{[a;b] ...}``; body is an AST, applied lazily."""

    __slots__ = ("params", "body", "source")

    def __init__(self, params: Sequence[str], body, source: str = ""):
        self.params = list(params)
        self.body = body
        self.source = source

    @property
    def qcode(self) -> int:
        return 100

    @property
    def rank(self) -> int:
        return len(self.params)

    def __repr__(self):
        return f"QLambda(params={self.params!r})"

    def __eq__(self, other):
        if not isinstance(other, QValue):
            return NotImplemented
        return (
            isinstance(other, QLambda)
            and other.params == self.params
            and other.source == self.source
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# Constructors and generic helpers
# ---------------------------------------------------------------------------


def q_string(v: str) -> QVector:
    """A q string is a char vector."""
    return QVector(QType.CHAR, list(v))


def long_vector(items: Iterable[int]) -> QVector:
    return QVector(QType.LONG, [int(i) for i in items])


def bool_vector(items: Iterable[bool]) -> QVector:
    return QVector(QType.BOOLEAN, [bool(b) for b in items])


def table_from_dict(columns: dict[str, QValue]) -> QTable:
    """Build a table from an ordered ``{name: column}`` mapping."""
    return QTable(list(columns.keys()), list(columns.values()))


def length_of(value: QValue) -> int:
    """q ``count``: atoms count as 1."""
    if isinstance(value, (QVector, QList, QTable)):
        return len(value)
    if isinstance(value, (QDict, QKeyedTable)):
        return len(value)
    return 1


def index_value(value: QValue, index: int) -> QValue:
    """Positional indexing into any list-like value."""
    if isinstance(value, (QVector, QList, QTable)):
        return value.atom_at(index)
    raise QTypeError(f"cannot index into {type(value).__name__}")


def take_value(value: QValue, indices: Sequence[int]) -> QValue:
    """Index a list-like value by a list of positions."""
    if isinstance(value, QVector):
        return value.take(indices)
    if isinstance(value, QList):
        return QList([value.items[i] for i in indices])
    if isinstance(value, QTable):
        return value.take(indices)
    raise QTypeError(f"cannot take from {type(value).__name__}")


def null_like(value: QValue) -> QValue:
    """A typed null appropriate for elements of ``value``."""
    if isinstance(value, QVector):
        return QAtom(value.qtype, value.qtype.spec.null)
    return QAtom(QType.LONG, QType.LONG.spec.null)


def q_match(a: QValue, b: QValue) -> bool:
    """q's ``~`` (match): deep structural equality with null == null."""
    if a is b:
        return True
    result = a.__eq__(b)
    return bool(result) if result is not NotImplemented else False


def enlist(value: QValue) -> QValue:
    """q ``enlist``: wrap a value in a singleton list."""
    if isinstance(value, QAtom):
        return QVector(value.qtype, [value.value])
    return QList([value])


def vector_of_atoms(atoms: Sequence[QAtom]) -> QValue:
    """Collapse a sequence of atoms into a typed vector when homogeneous,
    else a general list — mirroring how q joins atoms into lists."""
    if not atoms:
        return QList([])
    types = {a.qtype for a in atoms if isinstance(a, QAtom)}
    if len(types) == 1 and all(isinstance(a, QAtom) for a in atoms):
        qtype = next(iter(types))
        return QVector(qtype, [a.value for a in atoms])
    return QList(list(atoms))
