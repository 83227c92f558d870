"""Reference implementations of Q's join verbs.

These implement the semantics the paper's Example 2 relies on — most
importantly the *as-of join* ``aj``, "one of the most commonly used queries
by financial market analysts".  The reference interpreter uses these
directly; the side-by-side testing framework compares them against the SQL
translation Hyper-Q emits.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from repro.errors import QLengthError, QTypeError
from repro.qlang.builtins import _sort_key
from repro.qlang.qtypes import QType
from repro.qlang.values import (
    QAtom,
    QKeyedTable,
    QList,
    QTable,
    QValue,
    QVector,
    take_value,
)


def _column_raws(table: QTable, name: str) -> list:
    col = table.column(name)
    if isinstance(col, QVector):
        return list(col.items)
    if isinstance(col, QList):
        return list(col.items)
    raise QTypeError(f"column {name!r} is not a list")


def _match_key(table: QTable, names: Sequence[str], row: int) -> tuple:
    key = []
    for name in names:
        col = table.column(name)
        if isinstance(col, QVector):
            key.append((col.qtype.name, _sort_key(col.qtype, col.items[row])))
        else:
            key.append(("general", repr(col.items[row])))
    return tuple(key)


def asof_join(
    columns: Sequence[str], left: QTable, right: QTable, use_right_time: bool = False
) -> QTable:
    """``aj[cols; t; q]`` — prevailing-quote style as-of join.

    The first ``len(columns)-1`` columns match exactly; the final column
    matches the *latest* right row whose value is <= the left value.  All
    left rows survive; unmatched right columns become typed nulls.  With
    ``use_right_time`` (q's ``aj0``) the time column in the result comes
    from the right table.
    """
    if not columns:
        raise QTypeError("aj needs at least one join column")
    eq_cols, asof_col = list(columns[:-1]), columns[-1]
    for name in columns:
        if not left.has_column(name) or not right.has_column(name):
            raise QTypeError(f"aj join column {name!r} missing from an input")

    # Bucket the right table by equality key, each bucket sorted by the
    # as-of column (kdb+ requires sorted inputs; we sort defensively).
    asof_raws_right = _column_raws(right, asof_col)
    asof_type_right = _asof_type(right, asof_col)
    buckets: dict[tuple, list[tuple, int]] = {}
    for i in range(len(right)):
        key = _match_key(right, eq_cols, i)
        buckets.setdefault(key, []).append(
            (_sort_key(asof_type_right, asof_raws_right[i]), i)
        )
    for bucket in buckets.values():
        bucket.sort(key=lambda pair: pair[0])

    asof_raws_left = _column_raws(left, asof_col)
    asof_type_left = _asof_type(left, asof_col)
    matches: list[int | None] = []
    for i in range(len(left)):
        bucket = buckets.get(_match_key(left, eq_cols, i))
        if not bucket:
            matches.append(None)
            continue
        probe = _sort_key(asof_type_left, asof_raws_left[i])
        keys = [pair[0] for pair in bucket]
        pos = bisect_right(keys, probe)
        matches.append(bucket[pos - 1][1] if pos else None)

    out_columns = list(left.columns)
    out_data = list(left.data)
    extra = [c for c in right.columns if c not in left.columns]
    if use_right_time:
        targets = extra + [asof_col]
    else:
        targets = extra
    for name in targets:
        right_col = right.column(name)
        picked = _pick(right_col, matches)
        if name in out_columns:
            out_data[out_columns.index(name)] = picked
        else:
            out_columns.append(name)
            out_data.append(picked)
    return QTable(out_columns, out_data)


def _asof_type(table: QTable, name: str) -> QType:
    col = table.column(name)
    return col.qtype if isinstance(col, QVector) else QType.LONG


def _pick(col: QValue, matches: Sequence[int | None]) -> QValue:
    if isinstance(col, QVector):
        null = col.qtype.spec.null
        return QVector(
            col.qtype,
            [col.items[m] if m is not None else null for m in matches],
        )
    if isinstance(col, QList):
        null_atom = QAtom(QType.LONG, QType.LONG.spec.null)
        return QList(
            [col.items[m] if m is not None else null_atom for m in matches]
        )
    raise QTypeError("join column is not a list")


def left_join(left: QTable, right: QKeyedTable) -> QTable:
    """``lj`` — for each left row, look up the right keyed table."""
    key_cols = right.key_columns
    for name in key_cols:
        if not left.has_column(name):
            raise QTypeError(f"lj key column {name!r} missing from left table")
    index: dict[tuple, int] = {}
    for i in range(len(right.key)):
        index.setdefault(_match_key(right.key, key_cols, i), i)
    matches = [
        index.get(_match_key(left, key_cols, i)) for i in range(len(left))
    ]
    out_columns = list(left.columns)
    out_data = list(left.data)
    for name in right.value.columns:
        picked = _pick(right.value.column(name), matches)
        if name in out_columns:
            # matched rows take the right value; unmatched keep the left
            existing = out_data[out_columns.index(name)]
            merged = _merge_preferring_match(existing, picked, matches)
            out_data[out_columns.index(name)] = merged
        else:
            out_columns.append(name)
            out_data.append(picked)
    return QTable(out_columns, out_data)


def _merge_preferring_match(
    existing: QValue, picked: QValue, matches: Sequence[int | None]
) -> QValue:
    if isinstance(existing, QVector) and isinstance(picked, QVector):
        items = [
            p if m is not None else e
            for e, p, m in zip(existing.items, picked.items, matches)
        ]
        return QVector(picked.qtype, items)
    if isinstance(existing, QList) and isinstance(picked, QList):
        return QList(
            [
                p if m is not None else e
                for e, p, m in zip(existing.items, picked.items, matches)
            ]
        )
    raise QTypeError("lj column type mismatch")


def inner_join(left: QTable, right: QKeyedTable) -> QTable:
    """``ij`` — keep only left rows with a key match."""
    key_cols = right.key_columns
    index: dict[tuple, int] = {}
    for i in range(len(right.key)):
        index.setdefault(_match_key(right.key, key_cols, i), i)
    kept_left: list[int] = []
    kept_right: list[int] = []
    for i in range(len(left)):
        match = index.get(_match_key(left, key_cols, i))
        if match is not None:
            kept_left.append(i)
            kept_right.append(match)
    base = left.take(kept_left)
    out_columns = list(base.columns)
    out_data = list(base.data)
    for name in right.value.columns:
        col = take_value(right.value.column(name), kept_right)
        if name in out_columns:
            out_data[out_columns.index(name)] = col
        else:
            out_columns.append(name)
            out_data.append(col)
    return QTable(out_columns, out_data)


def equi_join(columns: Sequence[str], left: QTable, right: QTable) -> QTable:
    """``ej[cols; t1; t2]`` — inner equi-join keeping all combinations."""
    index: dict[tuple, list[int]] = {}
    for i in range(len(right)):
        index.setdefault(_match_key(right, columns, i), []).append(i)
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i in range(len(left)):
        for j in index.get(_match_key(left, columns, i), []):
            left_rows.append(i)
            right_rows.append(j)
    base = left.take(left_rows)
    out_columns = list(base.columns)
    out_data = list(base.data)
    for name in right.columns:
        if name in columns:
            continue
        col = take_value(right.column(name), right_rows)
        if name in out_columns:
            out_data[out_columns.index(name)] = col
        else:
            out_columns.append(name)
            out_data.append(col)
    return QTable(out_columns, out_data)


def union_join(left: QTable, right: QTable) -> QTable:
    """``uj`` — append tables, unifying column sets with null fill."""
    out_columns = list(left.columns) + [
        c for c in right.columns if c not in left.columns
    ]
    data: list[QValue] = []
    n_left, n_right = len(left), len(right)
    for name in out_columns:
        if left.has_column(name) and right.has_column(name):
            from repro.qlang.builtins import concat

            data.append(concat(left.column(name), right.column(name)))
        elif left.has_column(name):
            col = left.column(name)
            data.append(_append_nulls(col, n_right))
        else:
            col = right.column(name)
            data.append(_prepend_nulls(col, n_left))
    return QTable(out_columns, data)


def _append_nulls(col: QValue, count: int) -> QValue:
    if isinstance(col, QVector):
        return QVector(col.qtype, col.items + [col.qtype.spec.null] * count)
    if isinstance(col, QList):
        null_atom = QAtom(QType.LONG, QType.LONG.spec.null)
        return QList(col.items + [null_atom] * count)
    raise QTypeError("uj column is not a list")


def _prepend_nulls(col: QValue, count: int) -> QValue:
    if isinstance(col, QVector):
        return QVector(col.qtype, [col.qtype.spec.null] * count + col.items)
    if isinstance(col, QList):
        null_atom = QAtom(QType.LONG, QType.LONG.spec.null)
        return QList([null_atom] * count + col.items)
    raise QTypeError("uj column is not a list")


def window_join(
    windows: tuple[list, list],
    columns: Sequence[str],
    left: QTable,
    right: QTable,
    aggregations: Sequence[tuple[str, str, Callable[[QValue], QValue]]],
) -> QTable:
    """``wj``-style window join.

    ``windows`` is a pair of per-left-row bounds on the time column;
    ``aggregations`` is a list of ``(output_name, right_column, agg_fn)``.
    The interpreter adapts q's ``wj[(b;e);cols;t;(q;(f;c)...)]`` surface to
    this call.
    """
    lows, highs = windows
    if len(lows) != len(left) or len(highs) != len(left):
        raise QLengthError("wj window bounds must match the left row count")
    eq_cols, time_col = list(columns[:-1]), columns[-1]
    time_type = _asof_type(right, time_col)
    time_raws = _column_raws(right, time_col)

    buckets: dict[tuple, list[tuple, int]] = {}
    for i in range(len(right)):
        key = _match_key(right, eq_cols, i)
        buckets.setdefault(key, []).append(
            (_sort_key(time_type, time_raws[i]), i)
        )
    for bucket in buckets.values():
        bucket.sort(key=lambda pair: pair[0])

    out_columns = list(left.columns)
    out_data = list(left.data)
    agg_results: dict[str, list[QValue]] = {name: [] for name, __, __ in aggregations}
    for i in range(len(left)):
        bucket = buckets.get(_match_key(left, eq_cols, i), [])
        lo_key = _sort_key(time_type, lows[i])
        hi_key = _sort_key(time_type, highs[i])
        rows = [idx for key, idx in bucket if lo_key <= key <= hi_key]
        for name, source_col, agg_fn in aggregations:
            window_values = take_value(right.column(source_col), rows)
            agg_results[name].append(agg_fn(window_values))
    for name, __, __ in aggregations:
        atoms = agg_results[name]
        from repro.qlang.values import vector_of_atoms

        column = vector_of_atoms([a for a in atoms if isinstance(a, QAtom)]) \
            if all(isinstance(a, QAtom) for a in atoms) else QList(atoms)
        if name in out_columns:
            out_data[out_columns.index(name)] = column
        else:
            out_columns.append(name)
            out_data.append(column)
    return QTable(out_columns, out_data)
