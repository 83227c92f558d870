"""Window function evaluation.

Hyper-Q's Xformer injects window functions for two purposes (paper
Sections 3.2.2 and 3.3): computing validity intervals on the right input of
an as-of join (``lead``), and generating implicit order columns
(``row_number``).  This module implements those plus the standard ranking
and aggregate-over-window forms with PostgreSQL's default frame semantics.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from repro.errors import SqlExecutionError
from repro.sqlengine import sqlast as sa
from repro.sqlengine.functions import (
    NULL_KEEPING_AGGREGATES,
    compute_aggregate,
    is_aggregate,
)

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
    return not spec.order_by or (
        spec.frame is not None and "unbounded following" in spec.frame)


def _fill_value_functions(node, ordered, order_values, arg, results) -> None:
    name = node.func.name
    column = arg(0)
    values = [column[i] for i in ordered]
    # the default frame ends at the current row's last peer
    ends = [len(ordered)] * len(ordered) if _frame_is_full_partition(node.window) \
        else _peer_ends(ordered, order_values)
    n = int(arg(1)[ordered[0]]) if name == "nth_value" else 1
    for i, end in zip(ordered, ends):
        if name == "first_value":
            results[i] = values[0]
        elif name == "nth_value":
            results[i] = values[n - 1] if n - 1 < end else None
        else:
            results[i] = values[end - 1]


def _peer_ends(ordered, order_values) -> list[int]:
    """Per position of an ordered partition, one past its last ORDER BY peer."""
    ends: list[int] = []
    for group in _peer_groups(ordered, order_values):
        ends += [len(ends) + len(group)] * len(group)
    return ends


_N_PRECEDING_RE = re.compile(
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
    keep_nulls = name in NULL_KEEPING_AGGREGATES
    if spec.frame is not None:
        match = _N_PRECEDING_RE.match(spec.frame)
        if match:
            lookback = int(match.group(1))
            for pos, i in enumerate(ordered):
                lo = max(0, pos - lookback)
                frame_values = [v for v in values[lo:pos + 1]
                                if v is not None or keep_nulls]
                results[i] = pos + 1 - lo if star and name == "count" \
                    else compute_aggregate(name, frame_values)
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
    ends = range(1, len(ordered) + 1) if rows_frame \
        else _peer_ends(ordered, order_values)
    totals = ends if star and name == "count" \
        else _running_aggregate(name, values, ends, keep_nulls)
    for i, total in zip(ordered, totals):
        results[i] = total


def _running_aggregate(name: str, values: list, ends, keep_nulls: bool) -> list:
    """The aggregate over ``values[:end]`` for each end (ascending), each
    value folded in once where that is exact: count, min and max as they
    are; sum and avg into an exact binary fraction rounded once per row,
    which is what ``math.fsum`` of the prefix returns.  Other aggregates,
    and sums over inf, nan or values so large that fsum's overflow fallback
    could apply, recompute each prefix."""
    summing = name in ("sum", "avg")
    if not (name in ("count", "min", "max") or summing and all(
            v is None or (type(v) in (int, float) and -1e300 < v < 1e300)
            for v in values)):
        return [compute_aggregate(name, [v for v in values[:end]
                                         if v is not None or keep_nulls])
                for end in ends]
    out: list = []
    start = count = exact = acc = shift = 0
    best = None
    floats, negative_zeros = False, True
    for end in ends:
        for v in values[start:end]:
            if v is None:
                continue
            count += 1
            if name == "min" and (best is None or v < best) or \
                    name == "max" and (best is None or v > best):
                best = v
            if summing:
                exact += v
                floats = floats or type(v) is float
                negative_zeros = negative_zeros and math.copysign(1.0, v) < 0
                num, den = float(v).as_integer_ratio()
                dlog = den.bit_length() - 1
                if dlog > shift:
                    acc, shift = acc << (dlog - shift), dlog
                acc += num << (shift - dlog)
        start = end
        if name == "count" or not count:
            out.append(count if name == "count" else None)
        elif not summing or name == "sum" and not floats:
            out.append(best if not summing else exact)
        else:
            total = acc / (1 << shift) if acc else (
                _NEGATIVE_ZERO_SUM if negative_zeros else 0.0)
            out.append(total / count if name == "avg" else total)
    return out


#: what math.fsum makes of zeros that are all negative
_NEGATIVE_ZERO_SUM = math.fsum([-0.0])
