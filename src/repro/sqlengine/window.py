"""Window function evaluation.

Hyper-Q's Xformer injects window functions for two purposes (paper
Sections 3.2.2 and 3.3): computing validity intervals on the right input of
an as-of join (``lead``), and generating implicit order columns
(``row_number``).  This module implements those plus the standard ranking
and aggregate-over-window forms with PostgreSQL's default frame semantics.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SqlExecutionError
from repro.sqlengine import sqlast as sa
from repro.sqlengine.functions import compute_aggregate, is_aggregate

#: Sort-key wrapper giving SQL NULL ordering (order_none_last toggles).
def _order_key(value, descending: bool, nulls_first: bool | None):
    if nulls_first is None:
        nulls_first = descending  # PG default: NULLS LAST asc, FIRST desc
    is_null = value is None
    null_rank = 0 if (is_null and nulls_first) else (2 if is_null else 1)
    if is_null:
        return (null_rank, 0)
    return (null_rank, _Reverse(value) if descending else value)


def sort_column(values: list, descending: bool, nulls_first: bool | None) -> list:
    """Sort keys for one ORDER BY column: the values themselves when they
    sort that way already (ascending, no NULLs), else ``_order_key``s."""
    if not descending and None not in values:
        return values
    return [_order_key(v, descending, nulls_first) for v in values]


class _Reverse:
    """Inverts comparison for descending sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


def compute_window_values(
    node: sa.WindowFunc,
    frame,
    args: list[Callable],
    partition_by: list[Callable],
    order_by: list[Callable],
) -> list:
    """Evaluate a window function for every row of ``frame``.

    ``args``, ``partition_by`` and ``order_by`` are the function's
    arguments and its window's keys, compiled to column closures over the
    frame.  Returns a list of values, one per input row, in input order.
    """
    spec = node.window
    count = frame.count
    partitions: dict[tuple, list[int]] = {}
    keys = zip(*[map(_hashable, f(frame)) for f in partition_by]) \
        if partition_by else [()] * count
    for i, key in enumerate(keys):
        partitions.setdefault(key, []).append(i)
    # one value list per ORDER BY key, zipped into one tuple per row
    columns = [f(frame) for f in order_by]
    keyed = [
        sort_column(column, item.descending, item.nulls_first)
        for column, item in zip(columns, spec.order_by)
    ]
    order_values = list(zip(*columns)) if columns else [()] * count
    sort_keys = list(zip(*keyed)) if keyed else order_values

    columns_of_args: dict[int, list] = {}

    def arg(k: int) -> list:
        """Argument k's value for every input row, computed on first use."""
        if k not in columns_of_args:
            columns_of_args[k] = args[k](frame)
        return columns_of_args[k]

    results: list = [None] * count
    for members in partitions.values():
        ordered = sorted(members, key=sort_keys.__getitem__)
        _fill_partition(node, ordered, order_values, arg, results)
    return results


def _hashable(value):
    if isinstance(value, float) and value != value:
        return "__nan__"
    return value


def _peer_groups(ordered: list[int], order_values) -> list[list[int]]:
    """Split an ordered partition into runs of ORDER BY peers."""
    groups: list[list[int]] = []
    for i in ordered:
        if groups and order_values[groups[-1][0]] == order_values[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _fill_partition(
    node: sa.WindowFunc,
    ordered: list[int],
    order_values,
    arg: Callable[[int], list],
    results: list,
) -> None:
    name = node.func.name
    spec = node.window
    args = node.func.args

    if name == "row_number":
        for pos, i in enumerate(ordered, start=1):
            results[i] = pos
        return
    if name in ("rank", "dense_rank"):
        rank = 0
        position = 0
        for group in _peer_groups(ordered, order_values):
            position += len(group)
            rank = rank + 1 if name == "dense_rank" else position - len(group) + 1
            for i in group:
                results[i] = rank
        return
    if name == "ntile":
        buckets = int(arg(0)[ordered[0]]) if args else 1
        n = len(ordered)
        for pos, i in enumerate(ordered):
            results[i] = pos * buckets // n + 1
        return
    if name in ("lead", "lag"):
        offset = 1
        if len(args) >= 2:
            offset = int(arg(1)[ordered[0]])
        default = None
        if len(args) >= 3:
            default = arg(2)[ordered[0]]
        direction = 1 if name == "lead" else -1
        values = arg(0)
        for pos, i in enumerate(ordered):
            target = pos + direction * offset
            if 0 <= target < len(ordered):
                results[i] = values[ordered[target]]
            else:
                results[i] = default
        return
    if name in ("first_value", "last_value", "nth_value"):
        _fill_value_functions(node, ordered, order_values, arg, results)
        return
    if is_aggregate(name):
        _fill_window_aggregate(node, ordered, order_values, arg, results)
        return
    raise SqlExecutionError(f"unsupported window function {name}()")


def _frame_is_full_partition(spec: sa.WindowSpec) -> bool:
    if not spec.order_by:
        return True
    if spec.frame is None:
        return False
    return "unbounded following" in spec.frame


def _fill_value_functions(node, ordered, order_values, arg, results) -> None:
    name = node.func.name
    spec = node.window
    column = arg(0)
    values = [column[i] for i in ordered]
    full = _frame_is_full_partition(spec)
    if name == "first_value":
        for pos, i in enumerate(ordered):
            results[i] = values[0]
        return
    if name == "nth_value":
        n = int(arg(1)[ordered[0]])
        for pos, i in enumerate(ordered):
            frame_end = len(ordered) if full else _peer_end(ordered, order_values, pos)
            results[i] = values[n - 1] if n - 1 < frame_end else None
        return
    # last_value: default frame ends at the current row's last peer
    for pos, i in enumerate(ordered):
        frame_end = len(ordered) if full else _peer_end(ordered, order_values, pos)
        results[i] = values[frame_end - 1]


def _peer_end(ordered, order_values, pos: int) -> int:
    """Index one past the last ORDER BY peer of ordered[pos]."""
    current = order_values[ordered[pos]]
    end = pos + 1
    while end < len(ordered) and order_values[ordered[end]] == current:
        end += 1
    return end


import re as _re

_N_PRECEDING_RE = _re.compile(
    r"rows\s+between\s+(\d+)\s+preceding\s+and\s+current\s+row"
)


def _fill_window_aggregate(node, ordered, order_values, arg, results) -> None:
    name = node.func.name
    spec = node.window
    args = node.func.args
    star = node.func.star
    if star or not args:
        values: list = [1] * len(ordered)
        star = True
    else:
        column = arg(0)
        values = [column[i] for i in ordered]
    from repro.sqlengine.functions import NULL_KEEPING_AGGREGATES

    keep_nulls = name in NULL_KEEPING_AGGREGATES
    if spec.frame is not None:
        match = _N_PRECEDING_RE.match(spec.frame)
        if match:
            lookback = int(match.group(1))
            for pos, i in enumerate(ordered):
                lo = max(0, pos - lookback)
                frame_values = [
                    v
                    for v in values[lo : pos + 1]
                    if v is not None or keep_nulls
                ]
                if star and name == "count":
                    results[i] = pos + 1 - lo
                else:
                    results[i] = compute_aggregate(name, frame_values)
            return
    full = _frame_is_full_partition(spec)
    rows_frame = spec.frame is not None and spec.frame.startswith("rows")
    if full:
        window_values = [v for v in values if v is not None or keep_nulls]
        total = compute_aggregate(name, window_values)
        if name == "count" and star:
            total = len(ordered)
        for i in ordered:
            results[i] = total
        return
    # running aggregate: frame = start .. current row (peers included unless
    # a ROWS frame was given)
    for pos, i in enumerate(ordered):
        end = pos + 1 if rows_frame else _peer_end(ordered, order_values, pos)
        if star and name == "count":
            results[i] = end
            continue
        frame_values = [v for v in values[:end] if v is not None or keep_nulls]
        results[i] = compute_aggregate(name, frame_values)
