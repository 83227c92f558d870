"""Q primitive verbs and keywords for the reference interpreter.

This module implements the *scalar and list* portion of the Q surface the
reproduction supports (DESIGN.md Section 6) with q semantics:

* pairwise operations broadcast atoms over lists and recurse into general
  lists (``1 + 1 2 3`` -> ``2 3 4``);
* arithmetic propagates typed nulls (``1 + 0N`` -> ``0N``);
* comparison uses **two-valued logic** — a null equals a null;
* aggregations skip nulls (``sum 1 0N 2`` -> ``3``) the way q does.

Functions here are pure: they never touch interpreter state.  Verbs that
need evaluation context (templates, adverbs, joins) live in
:mod:`repro.qlang.interp` and :mod:`repro.qlang.joins`.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import (
    QDomainError,
    QLengthError,
    QNotSupportedError,
    QTypeError,
)
from repro.qlang.qtypes import QType, promote, type_from_char, type_from_name
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QList,
    QTable,
    QValue,
    QVector,
    bool_vector,
    enlist,
    length_of,
    long_vector,
    q_match,
    raw_equal,
    take_value,
    vector_of_atoms,
)

# ---------------------------------------------------------------------------
# Raw-level helpers
# ---------------------------------------------------------------------------


def is_null_raw(qtype: QType, raw) -> bool:
    return qtype.is_null(raw)


def _sort_key(qtype: QType, raw):
    """Total order on raw payloads with nulls first (q's ordering)."""
    if qtype.is_null(raw):
        return (0, 0)
    if isinstance(raw, float) and math.isnan(raw):
        return (0, 0)
    if isinstance(raw, bool):
        return (1, int(raw))
    if isinstance(raw, str):
        return (1, raw)
    return (1, raw)


def compare_raw(qtype_a: QType, a, qtype_b: QType, b) -> int:
    """Three-way comparison with nulls-first semantics."""
    ka, kb = _sort_key(qtype_a, a), _sort_key(qtype_b, b)
    if ka[0] != kb[0]:
        return -1 if ka[0] < kb[0] else 1
    if ka[0] == 0:
        return 0
    va, vb = ka[1], kb[1]
    if isinstance(va, str) != isinstance(vb, str):
        raise QTypeError("cannot compare symbol/string with numeric value")
    if va < vb:
        return -1
    if va > vb:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Broadcasting combinators
# ---------------------------------------------------------------------------

AtomFn = Callable[[QAtom, QAtom], QValue]


def broadcast_dyad(op: AtomFn, a: QValue, b: QValue) -> QValue:
    """Apply an atom-level dyad with q's pairwise broadcasting rules."""
    if isinstance(a, QAtom) and isinstance(b, QAtom):
        return op(a, b)
    if isinstance(a, QAtom) and isinstance(b, (QVector, QList)):
        return vector_of_atoms([broadcast_dyad(op, a, item) for item in b])
    if isinstance(a, (QVector, QList)) and isinstance(b, QAtom):
        return vector_of_atoms([broadcast_dyad(op, item, b) for item in a])
    if isinstance(a, (QVector, QList)) and isinstance(b, (QVector, QList)):
        if len(a) != len(b):
            raise QLengthError(
                f"pairwise operation on lists of length {len(a)} and {len(b)}"
            )
        return vector_of_atoms(
            [broadcast_dyad(op, x, y) for x, y in zip(a, b)]
        )
    if isinstance(a, QDict):
        return QDict(a.keys, broadcast_dyad(op, a.values, b))
    if isinstance(b, QDict):
        return QDict(b.keys, broadcast_dyad(op, a, b.values))
    if isinstance(a, QTable) and isinstance(b, (QAtom, QVector, QList)):
        return QTable(
            a.columns, [broadcast_dyad(op, col, b) for col in a.data]
        )
    if isinstance(b, QTable) and isinstance(a, QAtom):
        return QTable(
            b.columns, [broadcast_dyad(op, a, col) for col in b.data]
        )
    raise QTypeError(
        f"cannot broadcast over {type(a).__name__} and {type(b).__name__}"
    )


def broadcast_monad(op: Callable[[QAtom], QValue], value: QValue) -> QValue:
    if isinstance(value, QAtom):
        return op(value)
    if isinstance(value, (QVector, QList)):
        return vector_of_atoms([broadcast_monad(op, item) for item in value])
    if isinstance(value, QDict):
        return QDict(value.keys, broadcast_monad(op, value.values))
    if isinstance(value, QTable):
        return QTable(
            value.columns, [broadcast_monad(op, col) for col in value.data]
        )
    raise QTypeError(f"cannot map over {type(value).__name__}")


# ---------------------------------------------------------------------------
# Arithmetic dyads
# ---------------------------------------------------------------------------


def _arith_atom(name: str, fn: Callable[[float, float], float]):
    def op(a: QAtom, b: QAtom) -> QAtom:
        result_type = _arith_result_type(name, a.qtype, b.qtype)
        if a.is_null or b.is_null:
            return QAtom(result_type, result_type.spec.null)
        try:
            raw = fn(a.value, b.value)
        except ZeroDivisionError:
            if name == "%":
                raw = float("inf") if a.value > 0 else (
                    float("-inf") if a.value < 0 else float("nan")
                )
            else:
                return QAtom(result_type, result_type.spec.null)
        if result_type.is_floating:
            raw = float(raw)
        elif result_type.is_integral or result_type.is_temporal:
            raw = int(raw)
        return QAtom(result_type, raw)

    return op


def _arith_result_type(name: str, left: QType, right: QType) -> QType:
    if name == "%":
        return QType.FLOAT
    if name == "-" and left == right and left.is_temporal:
        # difference of like temporals is an integral span
        return QType.LONG if left in (QType.TIMESTAMP, QType.TIMESPAN) else QType.INT
    result = promote(left, right)
    if name in ("*",) and result.is_temporal:
        raise QTypeError("cannot multiply temporal values")
    return result


add = _arith_atom("+", lambda x, y: x + y)
subtract = _arith_atom("-", lambda x, y: x - y)
multiply = _arith_atom("*", lambda x, y: x * y)
divide = _arith_atom("%", lambda x, y: x / y)


def _int_div(x, y):
    return math.floor(x / y)


int_divide = _arith_atom("div", _int_div)
modulo = _arith_atom("mod", lambda x, y: x - y * math.floor(x / y))


def q_and(a: QAtom, b: QAtom) -> QAtom:
    """``&`` — minimum (boolean AND on booleans)."""
    result_type = promote(a.qtype, b.qtype)
    if a.is_null or b.is_null:
        return QAtom(result_type, result_type.spec.null)
    return QAtom(result_type, min(a.value, b.value))


def q_or(a: QAtom, b: QAtom) -> QAtom:
    """``|`` — maximum (boolean OR on booleans)."""
    result_type = promote(a.qtype, b.qtype)
    if a.is_null or b.is_null:
        return QAtom(result_type, result_type.spec.null)
    return QAtom(result_type, max(a.value, b.value))


def xbar(a: QAtom, b: QAtom) -> QAtom:
    """``x xbar y`` — round y down to the nearest multiple of x."""
    if a.is_null or b.is_null or a.value == 0:
        return QAtom(b.qtype, b.qtype.spec.null)
    bucket = math.floor(b.value / a.value) * a.value
    if b.qtype.is_integral or b.qtype.is_temporal:
        bucket = int(bucket)
    return QAtom(b.qtype, bucket)


def fill(a: QAtom, b: QAtom) -> QAtom:
    """``^`` — b unless b is null, else a."""
    return a if b.is_null else b


# ---------------------------------------------------------------------------
# Comparison dyads (two-valued logic: null = null is true)
# ---------------------------------------------------------------------------


def _cmp_atom(test: Callable[[int], bool]):
    def op(a: QAtom, b: QAtom) -> QAtom:
        return QAtom(
            QType.BOOLEAN, test(compare_raw(a.qtype, a.value, b.qtype, b.value))
        )

    return op


equals = _cmp_atom(lambda c: c == 0)
not_equals = _cmp_atom(lambda c: c != 0)
less = _cmp_atom(lambda c: c < 0)
less_eq = _cmp_atom(lambda c: c <= 0)
greater = _cmp_atom(lambda c: c > 0)
greater_eq = _cmp_atom(lambda c: c >= 0)


def q_equals(a: QAtom, b: QAtom) -> QAtom:
    """``=`` with q's rule that two nulls compare as equal."""
    a_null, b_null = a.is_null, b.is_null
    if a_null or b_null:
        return QAtom(QType.BOOLEAN, a_null and b_null)
    if a.qtype == b.qtype:
        return QAtom(QType.BOOLEAN, raw_equal(a.qtype, a.value, b.value))
    return QAtom(QType.BOOLEAN, a.value == b.value)


def q_not_equals(a: QAtom, b: QAtom) -> QAtom:
    return QAtom(QType.BOOLEAN, not q_equals(a, b).value)


# ---------------------------------------------------------------------------
# Monads
# ---------------------------------------------------------------------------


def _monad(fn, result_type: QType | None = None, keep_int: bool = False):
    def op(a: QAtom) -> QAtom:
        rtype = result_type or a.qtype
        if keep_int and a.qtype.is_integral:
            rtype = a.qtype
        if a.is_null:
            return QAtom(rtype, rtype.spec.null)
        raw = fn(a.value)
        if rtype.is_floating:
            raw = float(raw)
        return QAtom(rtype, raw)

    return op


neg = _monad(lambda x: -x)
q_abs = _monad(abs)
sqrt = _monad(lambda x: math.sqrt(x) if x >= 0 else float("nan"), QType.FLOAT)
exp = _monad(math.exp, QType.FLOAT)
log = _monad(lambda x: math.log(x) if x > 0 else float("nan"), QType.FLOAT)
floor_ = _monad(math.floor, QType.LONG, keep_int=True)
ceiling = _monad(math.ceil, QType.LONG, keep_int=True)
signum = _monad(lambda x: (x > 0) - (x < 0), QType.INT)
reciprocal = _monad(lambda x: 1.0 / x if x else float("inf"), QType.FLOAT)


def q_not(a: QAtom) -> QAtom:
    if a.is_null:
        return QAtom(QType.BOOLEAN, False)
    return QAtom(QType.BOOLEAN, not a.value)


def q_null(a: QValue) -> QValue:
    """``null x`` — boolean mask of nulls."""
    def atom_null(atom: QAtom) -> QAtom:
        return QAtom(QType.BOOLEAN, atom.is_null)

    return broadcast_monad(atom_null, a)


# ---------------------------------------------------------------------------
# List verbs
# ---------------------------------------------------------------------------


def til(n: QAtom) -> QVector:
    if not isinstance(n, QAtom) or not n.qtype.is_integral:
        raise QTypeError("til expects an integer atom")
    return long_vector(range(n.value))


def count(value: QValue) -> QAtom:
    return QAtom(QType.LONG, length_of(value))


def first(value: QValue) -> QValue:
    if isinstance(value, (QVector, QList, QTable)) and len(value) > 0:
        return value.atom_at(0)
    if isinstance(value, QVector):
        return QAtom(value.qtype, value.qtype.spec.null)
    if isinstance(value, QDict):
        return first(value.values)
    if isinstance(value, QAtom):
        return value
    if isinstance(value, QList):
        return QList([])
    raise QTypeError(f"first on {type(value).__name__}")


def last(value: QValue) -> QValue:
    if isinstance(value, (QVector, QList, QTable)) and len(value) > 0:
        return value.atom_at(len(value) - 1)
    if isinstance(value, QVector):
        return QAtom(value.qtype, value.qtype.spec.null)
    if isinstance(value, QDict):
        return last(value.values)
    if isinstance(value, QAtom):
        return value
    raise QTypeError(f"last on {type(value).__name__}")


def reverse(value: QValue) -> QValue:
    if isinstance(value, QVector):
        return QVector(value.qtype, list(reversed(value.items)))
    if isinstance(value, QList):
        return QList(list(reversed(value.items)))
    if isinstance(value, QTable):
        return value.take(list(reversed(range(len(value)))))
    if isinstance(value, QDict):
        return QDict(reverse(value.keys), reverse(value.values))
    return value


def distinct(value: QValue) -> QValue:
    if isinstance(value, QVector):
        seen, out = [], []
        for raw in value.items:
            if not any(raw_equal(value.qtype, raw, s) for s in seen):
                seen.append(raw)
                out.append(raw)
        return QVector(value.qtype, out)
    if isinstance(value, QList):
        out_items: list[QValue] = []
        for item in value.items:
            if not any(q_match(item, s) for s in out_items):
                out_items.append(item)
        return QList(out_items)
    if isinstance(value, QTable):
        indices: list[int] = []
        seen_rows: list[QValue] = []
        for i in range(len(value)):
            row = value.row(i)
            if not any(q_match(row, s) for s in seen_rows):
                seen_rows.append(row)
                indices.append(i)
        return value.take(indices)
    raise QTypeError("distinct expects a list")


def where(value: QValue) -> QVector:
    """``where`` — indices of true entries (or replicated counts)."""
    if isinstance(value, QVector) and value.qtype == QType.BOOLEAN:
        return long_vector(i for i, raw in enumerate(value.items) if raw)
    if isinstance(value, QVector) and value.qtype.is_integral:
        out: list[int] = []
        for i, raw in enumerate(value.items):
            out.extend([i] * int(raw))
        return long_vector(out)
    if isinstance(value, QList):
        out2: list[int] = []
        for i, item in enumerate(value.items):
            if isinstance(item, QAtom) and item.value:
                out2.append(i)
        return long_vector(out2)
    raise QTypeError("where expects a boolean or integer list")


def iasc(value: QValue) -> QVector:
    if isinstance(value, QVector):
        keys = [_sort_key(value.qtype, raw) for raw in value.items]
        return long_vector(sorted(range(len(keys)), key=keys.__getitem__))
    if isinstance(value, QList):
        raise QNotSupportedError("iasc on general lists")
    raise QTypeError("iasc expects a list")


def idesc(value: QValue) -> QVector:
    order = iasc(value).items
    return long_vector(reversed(order))


def asc(value: QValue) -> QValue:
    return take_value(value, iasc(value).items)


def desc(value: QValue) -> QValue:
    return take_value(value, idesc(value).items)


def group(value: QValue) -> QDict:
    """``group`` — dict from distinct values to index lists."""
    if not isinstance(value, (QVector, QList)):
        raise QTypeError("group expects a list")
    keys: list[QValue] = []
    buckets: list[list[int]] = []
    for i in range(length_of(value)):
        item = value.atom_at(i) if isinstance(value, QVector) else value.items[i]
        placed = False
        for j, key in enumerate(keys):
            if q_match(key, item):
                buckets[j].append(i)
                placed = True
                break
        if not placed:
            keys.append(item)
            buckets.append([i])
    key_list = vector_of_atoms([k for k in keys if isinstance(k, QAtom)]) \
        if all(isinstance(k, QAtom) for k in keys) else QList(keys)
    return QDict(key_list, QList([long_vector(b) for b in buckets]))


def raze(value: QValue) -> QValue:
    if isinstance(value, QList):
        atoms: list[QValue] = []
        for item in value.items:
            if isinstance(item, QAtom):
                atoms.append(item)
            elif isinstance(item, (QVector, QList)):
                for sub in item:
                    atoms.append(sub)
            else:
                raise QTypeError("raze of non-list item")
        return vector_of_atoms(atoms)  # type: ignore[arg-type]
    if isinstance(value, QVector):
        return value
    return enlist(value) if isinstance(value, QAtom) else value


def flip(value: QValue) -> QValue:
    """``flip`` — dict-of-columns <-> table."""
    if isinstance(value, QDict):
        if not isinstance(value.keys, QVector) or value.keys.qtype != QType.SYMBOL:
            raise QTypeError("flip expects a dictionary with symbol keys")
        return QTable(list(value.keys.items), [v for v in _iter_items(value.values)])
    if isinstance(value, QTable):
        return QDict(
            QVector(QType.SYMBOL, value.columns), QList(list(value.data))
        )
    raise QTypeError(f"flip on {type(value).__name__}")


def _iter_items(value: QValue) -> list[QValue]:
    if isinstance(value, QList):
        return list(value.items)
    if isinstance(value, QVector):
        return [QAtom(value.qtype, raw) for raw in value.items]
    raise QTypeError("expected a list")


def q_key(value: QValue) -> QValue:
    if isinstance(value, QDict):
        return value.keys
    if isinstance(value, QKeyedTable):
        return value.key
    if isinstance(value, QVector):
        return long_vector(range(len(value)))
    raise QTypeError(f"key on {type(value).__name__}")


def q_value(value: QValue) -> QValue:
    if isinstance(value, QDict):
        return value.values
    if isinstance(value, QKeyedTable):
        return value.value
    raise QTypeError(f"value on {type(value).__name__}")


def cols(value: QValue) -> QVector:
    if isinstance(value, QTable):
        return QVector(QType.SYMBOL, value.columns)
    if isinstance(value, QKeyedTable):
        return QVector(QType.SYMBOL, value.key.columns + value.value.columns)
    raise QTypeError("cols expects a table")


def meta(value: QValue) -> QTable:
    """``meta t`` — table of column name, type char, and attributes."""
    if isinstance(value, QKeyedTable):
        value = value.unkey()
    if not isinstance(value, QTable):
        raise QTypeError("meta expects a table")
    names, chars = [], []
    for name, col in zip(value.columns, value.data):
        names.append(name)
        if isinstance(col, QVector):
            chars.append(col.qtype.char)
        else:
            chars.append(" ")
    return QTable(
        ["c", "t"], [QVector(QType.SYMBOL, names), QVector(QType.CHAR, chars)]
    )


def q_type(value: QValue) -> QAtom:
    return QAtom(QType.SHORT, value.qcode)


def q_string(value: QValue) -> QValue:
    """``string`` — convert to char vector(s)."""
    from repro.qlang.printer import format_atom_raw

    def atom_to_string(atom: QAtom) -> QVector:
        return QVector(QType.CHAR, list(format_atom_raw(atom)))

    if isinstance(value, QAtom):
        return atom_to_string(value)
    if isinstance(value, (QVector, QList)):
        return QList([q_string(item) for item in value])
    raise QTypeError(f"string on {type(value).__name__}")


def fills(value: QValue) -> QValue:
    """``fills`` — forward-fill nulls."""
    if not isinstance(value, QVector):
        raise QTypeError("fills expects a typed vector")
    out, prev = [], value.qtype.spec.null
    for raw in value.items:
        if not value.qtype.is_null(raw):
            prev = raw
        out.append(prev)
    return QVector(value.qtype, out)


def deltas(value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("deltas expects a typed vector")
    if not value.items:
        return QVector(value.qtype, [])
    out = [value.items[0]]
    for prev, cur in zip(value.items, value.items[1:]):
        if value.qtype.is_null(prev) or value.qtype.is_null(cur):
            out.append(value.qtype.spec.null)
        else:
            out.append(cur - prev)
    return QVector(value.qtype, out)


def _running(fn, value: QValue, skip_null=True) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("expects a typed vector")
    out = []
    acc = None
    for raw in value.items:
        if value.qtype.is_null(raw) and skip_null:
            out.append(acc if acc is not None else value.qtype.spec.null)
            continue
        acc = raw if acc is None else fn(acc, raw)
        out.append(acc)
    return QVector(value.qtype, out)


def sums(value: QValue) -> QValue:
    return _running(lambda a, b: a + b, value)


def prds(value: QValue) -> QValue:
    return _running(lambda a, b: a * b, value)


def maxs(value: QValue) -> QValue:
    return _running(max, value)


def mins(value: QValue) -> QValue:
    return _running(min, value)


def ratios(value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("ratios expects a typed vector")
    if not value.items:
        return QVector(QType.FLOAT, [])
    out = [float(value.items[0])]
    for prev, cur in zip(value.items, value.items[1:]):
        out.append(float("nan") if not prev else cur / prev)
    return QVector(QType.FLOAT, out)


def next_(value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("next expects a typed vector")
    if not value.items:
        return value
    return QVector(value.qtype, value.items[1:] + [value.qtype.spec.null])


def prev_(value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("prev expects a typed vector")
    if not value.items:
        return value
    return QVector(value.qtype, [value.qtype.spec.null] + value.items[:-1])


def xprev(n: QAtom, value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("xprev expects a typed vector")
    shift = int(n.value)
    null = value.qtype.spec.null
    items = value.items
    out = [
        items[i - shift] if 0 <= i - shift < len(items) else null
        for i in range(len(items))
    ]
    return QVector(value.qtype, out)


# ---------------------------------------------------------------------------
# Aggregations (null-skipping, as in q)
# ---------------------------------------------------------------------------


def _non_null_raws(value: QValue) -> tuple[QType, list]:
    if isinstance(value, QVector):
        return value.qtype, [
            raw for raw in value.items if not value.qtype.is_null(raw)
        ]
    if isinstance(value, QList):
        atoms = [i for i in value.items if isinstance(i, QAtom) and not i.is_null]
        if not atoms:
            return QType.LONG, []
        qtype = atoms[0].qtype
        for a in atoms[1:]:
            qtype = promote(qtype, a.qtype)
        return qtype, [a.value for a in atoms]
    if isinstance(value, QAtom):
        return value.qtype, [] if value.is_null else [value.value]
    raise QTypeError(f"aggregate on {type(value).__name__}")


def q_sum(value: QValue) -> QAtom:
    qtype, raws = _non_null_raws(value)
    if qtype == QType.BOOLEAN:
        return QAtom(QType.LONG, sum(1 for r in raws if r))
    result_type = qtype if qtype.is_floating else QType.LONG
    if not raws:
        # q: sum of the empty list is 0, but sum of an all-null list is null
        if length_of(value) > 0:
            return QAtom(result_type, result_type.spec.null)
        return QAtom(result_type, 0.0 if qtype.is_floating else 0)
    return QAtom(result_type, sum(raws))


def q_avg(value: QValue) -> QAtom:
    __, raws = _non_null_raws(value)
    if not raws:
        return QAtom(QType.FLOAT, float("nan"))
    return QAtom(QType.FLOAT, sum(float(r) for r in raws) / len(raws))


def q_min(value: QValue) -> QAtom:
    qtype, raws = _non_null_raws(value)
    if not raws:
        return QAtom(qtype, qtype.spec.null)
    return QAtom(qtype, min(raws))


def q_max(value: QValue) -> QAtom:
    qtype, raws = _non_null_raws(value)
    if not raws:
        return QAtom(qtype, qtype.spec.null)
    return QAtom(qtype, max(raws))


def q_med(value: QValue) -> QAtom:
    __, raws = _non_null_raws(value)
    if not raws:
        return QAtom(QType.FLOAT, float("nan"))
    ordered = sorted(float(r) for r in raws)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return QAtom(QType.FLOAT, ordered[mid])
    return QAtom(QType.FLOAT, (ordered[mid - 1] + ordered[mid]) / 2)


def q_var(value: QValue) -> QAtom:
    __, raws = _non_null_raws(value)
    if not raws:
        return QAtom(QType.FLOAT, float("nan"))
    mean = sum(float(r) for r in raws) / len(raws)
    return QAtom(
        QType.FLOAT, sum((float(r) - mean) ** 2 for r in raws) / len(raws)
    )


def q_dev(value: QValue) -> QAtom:
    variance = q_var(value).value
    return QAtom(
        QType.FLOAT,
        math.sqrt(variance) if not math.isnan(variance) else float("nan"),
    )


def q_prd(value: QValue) -> QAtom:
    qtype, raws = _non_null_raws(value)
    result = 1.0 if qtype.is_floating else 1
    for r in raws:
        result *= r
    return QAtom(qtype if qtype.is_floating else QType.LONG, result)


def wavg(weights: QValue, values: QValue) -> QAtom:
    """``wavg`` — weighted average, skipping pairs with a null."""
    pairs = _weight_pairs(weights, values)
    total_w = sum(w for w, __ in pairs)
    if not total_w:
        return QAtom(QType.FLOAT, float("nan"))
    return QAtom(QType.FLOAT, sum(w * v for w, v in pairs) / total_w)


def wsum(weights: QValue, values: QValue) -> QAtom:
    pairs = _weight_pairs(weights, values)
    return QAtom(QType.FLOAT, float(sum(w * v for w, v in pairs)))


def _weight_pairs(weights: QValue, values: QValue) -> list[tuple[float, float]]:
    if not isinstance(weights, QVector) or not isinstance(values, QVector):
        raise QTypeError("wavg/wsum expect two vectors")
    if len(weights) != len(values):
        raise QLengthError("wavg/wsum vectors differ in length")
    out = []
    for w, v in zip(weights.items, values.items):
        if weights.qtype.is_null(w) or values.qtype.is_null(v):
            continue
        out.append((float(w), float(v)))
    return out


# ---------------------------------------------------------------------------
# Moving-window verbs
# ---------------------------------------------------------------------------


def _moving(fn, n: QAtom, value: QValue) -> QValue:
    if not isinstance(value, QVector):
        raise QTypeError("moving verbs expect a typed vector")
    window = int(n.value)
    if window <= 0:
        raise QDomainError("window size must be positive")
    out = []
    for i in range(len(value.items)):
        lo = max(0, i - window + 1)
        chunk = [
            raw
            for raw in value.items[lo : i + 1]
            if not value.qtype.is_null(raw)
        ]
        out.append(fn(chunk))
    return out


def mavg(n: QAtom, value: QValue) -> QVector:
    out = _moving(
        lambda c: sum(float(x) for x in c) / len(c) if c else float("nan"),
        n,
        value,
    )
    return QVector(QType.FLOAT, out)


def msum(n: QAtom, value: QValue) -> QVector:
    assert isinstance(value, QVector)
    qtype = value.qtype if value.qtype.is_floating else QType.LONG
    out = _moving(lambda c: sum(c) if c else 0, n, value)
    return QVector(qtype, out)


def mcount(n: QAtom, value: QValue) -> QVector:
    out = _moving(len, n, value)
    return QVector(QType.LONG, out)


def mmax(n: QAtom, value: QValue) -> QVector:
    assert isinstance(value, QVector)
    null = value.qtype.spec.null
    out = _moving(lambda c: max(c) if c else null, n, value)
    return QVector(value.qtype, out)


def mmin(n: QAtom, value: QValue) -> QVector:
    assert isinstance(value, QVector)
    null = value.qtype.spec.null
    out = _moving(lambda c: min(c) if c else null, n, value)
    return QVector(value.qtype, out)


def mdev(n: QAtom, value: QValue) -> QVector:
    def dev(chunk):
        if not chunk:
            return float("nan")
        mean = sum(float(x) for x in chunk) / len(chunk)
        return math.sqrt(sum((float(x) - mean) ** 2 for x in chunk) / len(chunk))

    return QVector(QType.FLOAT, _moving(dev, n, value))


# ---------------------------------------------------------------------------
# Membership / search dyads
# ---------------------------------------------------------------------------


def q_in(a: QValue, b: QValue) -> QValue:
    """``in`` — membership of left items in the right list."""
    if not isinstance(b, (QVector, QList)):
        b = enlist(b)

    def member(atom: QValue) -> bool:
        for candidate in b:  # type: ignore[union-attr]
            if q_match(atom, candidate):
                return True
        return False

    if isinstance(a, QAtom):
        return QAtom(QType.BOOLEAN, member(a))
    if isinstance(a, (QVector, QList)):
        return bool_vector(member(item) for item in a)
    raise QTypeError(f"in on {type(a).__name__}")


def find(a: QValue, b: QValue) -> QValue:
    """``?`` (find) — position of b's items in list a; count(a) if absent."""
    if not isinstance(a, (QVector, QList)):
        raise QTypeError("find expects a list on the left")
    items = list(a)
    n = len(items)

    def position(needle: QValue) -> int:
        for i, item in enumerate(items):
            if q_match(item, needle):
                return i
        return n

    if isinstance(b, QAtom):
        return QAtom(QType.LONG, position(b))
    if isinstance(b, (QVector, QList)):
        return long_vector(position(item) for item in b)
    raise QTypeError(f"find of {type(b).__name__}")


def within(a: QValue, b: QValue) -> QValue:
    """``within`` — inclusive range membership."""
    if not isinstance(b, (QVector, QList)) or length_of(b) != 2:
        raise QTypeError("within expects a 2-item bound list on the right")
    lo = b.atom_at(0)
    hi = b.atom_at(1)

    def check(atom: QAtom) -> QAtom:
        in_range = (
            compare_raw(atom.qtype, atom.value, lo.qtype, lo.value) >= 0
            and compare_raw(atom.qtype, atom.value, hi.qtype, hi.value) <= 0
        )
        return QAtom(QType.BOOLEAN, in_range)

    return broadcast_monad(check, a)


def like(a: QValue, pattern: QValue) -> QValue:
    """``like`` — glob match of symbols/strings against a pattern."""
    import fnmatch

    if isinstance(pattern, QVector) and pattern.qtype == QType.CHAR:
        pat = "".join(pattern.items)
    elif isinstance(pattern, QAtom) and pattern.qtype == QType.SYMBOL:
        pat = pattern.value
    else:
        raise QTypeError("like expects a string or symbol pattern")

    def check(atom: QAtom) -> QAtom:
        text = atom.value if isinstance(atom.value, str) else str(atom.value)
        return QAtom(QType.BOOLEAN, fnmatch.fnmatchcase(text, pat))

    if isinstance(a, QVector) and a.qtype == QType.CHAR:
        return QAtom(QType.BOOLEAN, fnmatch.fnmatchcase("".join(a.items), pat))
    return broadcast_monad(check, a)


def except_(a: QValue, b: QValue) -> QValue:
    if not isinstance(a, (QVector, QList)):
        raise QTypeError("except expects a list on the left")
    if not isinstance(b, (QVector, QList)):
        b = enlist(b)
    mask = q_in(a, b)
    assert isinstance(mask, QVector)
    keep = [i for i, flag in enumerate(mask.items) if not flag]
    return take_value(a, keep)


def inter(a: QValue, b: QValue) -> QValue:
    if not isinstance(a, (QVector, QList)):
        raise QTypeError("inter expects a list on the left")
    mask = q_in(a, b)
    assert isinstance(mask, QVector)
    keep = [i for i, flag in enumerate(mask.items) if flag]
    return take_value(a, keep)


def union(a: QValue, b: QValue) -> QValue:
    joined = concat(a, b)
    return distinct(joined)


def cross(a: QValue, b: QValue) -> QValue:
    if not isinstance(a, (QVector, QList)) or not isinstance(b, (QVector, QList)):
        raise QTypeError("cross expects two lists")
    pairs = [QList([x, y]) for x in a for y in b]
    return QList(pairs)


def bin_(a: QValue, b: QValue) -> QValue:
    """``bin`` — index of the last element of sorted a that is <= b."""
    if not isinstance(a, QVector):
        raise QTypeError("bin expects a sorted vector on the left")

    def locate(atom: QAtom) -> QAtom:
        lo, hi, ans = 0, len(a.items) - 1, -1
        while lo <= hi:
            mid = (lo + hi) // 2
            if compare_raw(a.qtype, a.items[mid], atom.qtype, atom.value) <= 0:
                ans = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return QAtom(QType.LONG, ans)

    return broadcast_monad(locate, b)


# ---------------------------------------------------------------------------
# Structural dyads: take, drop, concat, cut, sublist
# ---------------------------------------------------------------------------


def take(n: QValue, value: QValue) -> QValue:
    """``#`` — take n items (cyclic when overtaking, from the end if n<0)."""
    if isinstance(n, (QVector, QList)):
        raise QNotSupportedError("reshape (list#) is not supported")
    assert isinstance(n, QAtom)
    if n.qtype == QType.SYMBOL or (
        isinstance(n, QAtom) and isinstance(n.value, str)
    ):
        raise QTypeError("take expects an integer count")
    count_ = int(n.value)
    if isinstance(value, QAtom):
        value = enlist(value)
    size = length_of(value)
    if count_ >= 0:
        if size == 0:
            indices = []
        else:
            indices = [i % size for i in range(count_)]
    else:
        count_ = -count_
        if size == 0:
            indices = []
        else:
            indices = [(size - count_ + i) % size for i in range(count_)]
    return take_value(value, indices)


def drop(n: QValue, value: QValue) -> QValue:
    """``_`` — drop n items from the front (end if n<0)."""
    if isinstance(n, (QVector, QList)):
        return cut(n, value)
    assert isinstance(n, QAtom)
    count_ = int(n.value)
    size = length_of(value)
    if count_ >= 0:
        indices = list(range(min(count_, size), size))
    else:
        indices = list(range(0, max(0, size + count_)))
    return take_value(value, indices)


def cut(positions: QValue, value: QValue) -> QList:
    """``_`` with a list left argument — cut at positions."""
    if not isinstance(positions, QVector):
        raise QTypeError("cut expects an integer vector of positions")
    size = length_of(value)
    bounds = [int(p) for p in positions.items] + [size]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        pieces.append(take_value(value, list(range(lo, hi))))
    return QList(pieces)


def sublist(n: QValue, value: QValue) -> QValue:
    """``sublist`` — like take but never cycles."""
    if isinstance(n, QVector) and len(n) == 2:
        start, cnt = int(n.items[0]), int(n.items[1])
        size = length_of(value)
        return take_value(value, list(range(start, min(start + cnt, size))))
    assert isinstance(n, QAtom)
    count_ = int(n.value)
    size = length_of(value)
    if count_ >= 0:
        return take_value(value, list(range(min(count_, size))))
    return take_value(value, list(range(max(0, size + count_), size)))


def concat(a: QValue, b: QValue) -> QValue:
    """``,`` — join."""
    if isinstance(a, QTable) and isinstance(b, QTable):
        if a.columns != b.columns:
            raise QTypeError("cannot append tables with mismatched columns")
        return QTable(
            a.columns, [concat(x, y) for x, y in zip(a.data, b.data)]
        )
    if isinstance(a, QDict) and isinstance(b, QDict):
        # right entries overwrite left (upsert semantics)
        keys = list(_iter_items(a.keys))
        values = list(_iter_items(a.values))
        for k, v in zip(_iter_items(b.keys), _iter_items(b.values)):
            for i, existing in enumerate(keys):
                if q_match(existing, k):
                    values[i] = v
                    break
            else:
                keys.append(k)
                values.append(v)
        return QDict(_collapse(keys), _collapse(values))
    left = _as_item_list(a)
    right = _as_item_list(b)
    return _collapse(left + right)


def _as_item_list(value: QValue) -> list[QValue]:
    if isinstance(value, QAtom):
        return [value]
    if isinstance(value, QVector):
        return [QAtom(value.qtype, raw) for raw in value.items]
    if isinstance(value, QList):
        return list(value.items)
    return [value]


def _collapse(items: list[QValue]) -> QValue:
    if all(isinstance(i, QAtom) for i in items):
        return vector_of_atoms(items)  # type: ignore[arg-type]
    return QList(items)


# ---------------------------------------------------------------------------
# Casting ($)
# ---------------------------------------------------------------------------


def cast(target: QValue, value: QValue) -> QValue:
    """``$`` — cast; the left operand names the target type."""
    if isinstance(target, QAtom) and target.qtype == QType.SYMBOL:
        name = target.value
        if name == "":
            return _tok_to_symbol(value)
        qtype = type_from_name(name)
        if qtype is None:
            raise QDomainError(f"unknown cast target `{name}")
        return _cast_to(qtype, value)
    if isinstance(target, QAtom) and target.qtype == QType.CHAR:
        return _cast_to(type_from_char(target.value), value)
    raise QTypeError("cast expects a symbol or char type name on the left")


def _tok_to_symbol(value: QValue) -> QValue:
    def conv(atom_or_str):
        if isinstance(atom_or_str, QVector) and atom_or_str.qtype == QType.CHAR:
            return QAtom(QType.SYMBOL, "".join(atom_or_str.items))
        raise QTypeError("`$ expects strings")

    if isinstance(value, QVector) and value.qtype == QType.CHAR:
        return conv(value)
    if isinstance(value, QList):
        return vector_of_atoms([conv(item) for item in value.items])
    raise QTypeError("`$ expects a string or list of strings")


def _cast_to(qtype: QType, value: QValue) -> QValue:
    def conv(atom: QAtom) -> QAtom:
        if atom.is_null:
            return QAtom(qtype, qtype.spec.null)
        raw = atom.value
        if qtype == QType.SYMBOL:
            return QAtom(qtype, str(raw))
        if qtype == QType.BOOLEAN:
            return QAtom(qtype, bool(raw))
        if qtype.is_floating:
            return QAtom(qtype, float(raw))
        if qtype.is_integral or qtype.is_temporal:
            if isinstance(raw, str):
                raise QTypeError(f"cannot cast symbol to {qtype.name.lower()}")
            if atom.qtype == QType.TIMESTAMP and qtype == QType.DATE:
                return QAtom(qtype, int(raw // 86_400_000_000_000))
            if atom.qtype == QType.DATE and qtype == QType.TIMESTAMP:
                return QAtom(qtype, int(raw) * 86_400_000_000_000)
            if atom.qtype == QType.TIMESTAMP and qtype == QType.TIME:
                return QAtom(qtype, int((raw % 86_400_000_000_000) // 1_000_000))
            if atom.qtype == QType.TIME and qtype == QType.MINUTE:
                return QAtom(qtype, int(raw // 60_000))
            if atom.qtype == QType.TIME and qtype == QType.SECOND:
                return QAtom(qtype, int(raw // 1_000))
            return QAtom(qtype, int(raw))
        if qtype == QType.CHAR:
            return QAtom(qtype, str(raw)[:1] or " ")
        raise QNotSupportedError(f"cast to {qtype.name.lower()}")

    if isinstance(value, QList) and not value.items:
        # casting the empty general list yields a typed empty vector
        return QVector(qtype, [])
    if isinstance(value, QVector) and value.qtype == QType.CHAR and qtype != QType.CHAR:
        # string -> value parse, e.g. `long$"42"
        text = "".join(value.items)
        if qtype.is_floating:
            return QAtom(qtype, float(text))
        if qtype == QType.SYMBOL:
            return QAtom(qtype, text)
        return QAtom(qtype, int(text))
    return broadcast_monad(conv, value)


# ---------------------------------------------------------------------------
# Indexing / application helpers shared with the interpreter
# ---------------------------------------------------------------------------


def index_at(container: QValue, index: QValue) -> QValue:
    """``@`` / bracket indexing with q's out-of-range null semantics."""
    if isinstance(container, QDict):
        if isinstance(index, (QVector, QList)):
            results = [container.lookup(item) for item in _iter_items(index)]
            return _collapse(results)
        return container.lookup(index)
    if isinstance(container, QKeyedTable):
        return _keyed_lookup(container, index)
    if isinstance(container, QTable):
        if isinstance(index, QAtom) and index.qtype == QType.SYMBOL:
            return container.column(index.value)
        if isinstance(index, QVector) and index.qtype == QType.SYMBOL:
            return QTable(
                list(index.items),
                [container.column(c) for c in index.items],
            )
        if isinstance(index, QAtom) and index.qtype.is_integral:
            i = int(index.value)
            if 0 <= i < len(container):
                return container.row(i)
            return null_row(container)
        if isinstance(index, QVector) and index.qtype.is_integral:
            return container.take([int(i) for i in index.items])
    if isinstance(container, (QVector, QList)):
        if isinstance(index, QAtom) and index.qtype.is_integral:
            i = int(index.value)
            if isinstance(container, QVector):
                if 0 <= i < len(container):
                    return container.atom_at(i)
                return QAtom(container.qtype, container.qtype.spec.null)
            if 0 <= i < len(container):
                return container.items[i]
            raise QDomainError(f"index {i} out of range")
        if isinstance(index, (QVector, QList)):
            picks = [index_at(container, item) for item in _iter_items(index)]
            return _collapse(picks)
    raise QTypeError(
        f"cannot index {type(container).__name__} with {type(index).__name__}"
    )


def null_row(table: QTable) -> QDict:
    """A symbol->null dictionary shaped like one row of ``table``."""
    keys = QVector(QType.SYMBOL, table.columns)
    values: list[QValue] = []
    for col in table.data:
        if isinstance(col, QVector):
            values.append(QAtom(col.qtype, col.qtype.spec.null))
        else:
            values.append(QAtom(QType.LONG, QType.LONG.spec.null))
    return QDict(keys, QList(values))


def _keyed_lookup(table: QKeyedTable, index: QValue) -> QValue:
    key_table = table.key
    if isinstance(index, QAtom) and len(key_table.columns) == 1:
        for i in range(len(key_table)):
            if q_match(index_at(key_table.data[0], QAtom(QType.LONG, i)), index):
                return table.value.row(i)
        return null_row(table.value)
    raise QNotSupportedError("keyed table lookup with compound keys")
