"""Scalar expressions, compiled once per statement into closures.

:func:`compile_expr` lowers an expression against a :class:`Layout`, the
slots of the rows it will run over, and returns a closure ``fn(row)``;
:func:`compile_vector` lowers it into ``fn(frame)``, which computes the
expression for every row of a frame a column at a time (one ``map`` per
operator), and :func:`compile_filter` into the positions where a
condition holds.  All three come from one compilation; a node with no
column form maps its row closure over the frame's rows.  Compiling does the
per-statement work once:

- every column reference becomes a slot index, or a slot of an enclosing
  query's current row inside a correlated subquery, so an unknown or
  ambiguous name fails before any row is read (at plan time, as in
  PostgreSQL);
- aggregate and window nodes read the slots where the executor appends
  their values;
- subtrees of literals fold to their value (``'BAC'::varchar`` is cast
  once, not per row).

``None`` is SQL NULL.  Comparisons involving NULL yield NULL; ``AND``/``OR``
follow Kleene logic; ``IS NOT DISTINCT FROM`` provides the null-safe
equality that Hyper-Q uses to bridge Q's two-valued semantics (paper
Section 3.3, "Correctness").
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from repro.errors import SqlExecutionError, SqlTypeError
from repro.sqlengine import sqlast as sa
from repro.sqlengine.functions import (
    SCALAR_FUNCTIONS,
    aggregate_result_type,
    is_aggregate,
    scalar_result_type,
)
from repro.sqlengine.types import SqlType, cast_value, promote


@dataclass
class RelColumn:
    table: str | None
    name: str
    sql_type: SqlType


class Layout:
    """What sits at each slot of the rows a compiled expression reads.

    ``bound`` maps an aggregate or window node (by ``id``) to the slot the
    executor appends its value at.  A subquery's layouts chain to the
    layout it was compiled against (``parent``); a correlated reference
    reads that layout's ``row``, which the subquery's closure sets to the
    current outer row before it runs the subquery.  ``subplans`` keeps the
    plans of subqueries compiled against this layout, and ``outer_refs``
    counts references from nested layouts that resolved here, which is how
    a subquery is known to be correlated.
    """

    __slots__ = ("columns", "parent", "executor", "bound", "width", "row",
                 "subplans", "outer_refs", "_qualified", "_names", "_ambiguous")

    def __init__(self, columns: list[RelColumn], parent: Layout | None = None,
                 executor=None, bound: dict[int, int] | None = None):
        if executor is None and parent is not None:
            executor = parent.executor
        self.columns = columns
        self.parent = parent
        self.executor = executor
        self.bound = bound or {}
        self.width = len(columns) + len(self.bound)
        self.row = None
        self.subplans: dict[int, object] = {}
        self.outer_refs = 0
        self._qualified: dict[tuple[str, str], int] = {}
        self._names: dict[str, int] = {}
        self._ambiguous: set[str] = set()
        for i, col in enumerate(columns):
            if col.table is not None:
                self._qualified.setdefault((col.table, col.name), i)
            if col.name in self._names:
                self._ambiguous.add(col.name)
            else:
                self._names[col.name] = i

    def extend(self, nodes: list[sa.Expr]) -> Layout:
        """This layout plus one slot per node, appended after the rest."""
        bound = dict(self.bound)
        bound.update((id(node), self.width + k) for k, node in enumerate(nodes))
        return Layout(self.columns, self.parent, self.executor, bound)

    def _local(self, ref: sa.ColumnRef) -> int | None:
        if ref.table is not None:
            return self._qualified.get((ref.table, ref.name))
        if ref.name in self._ambiguous:
            raise SqlExecutionError(f'column reference "{ref.name}" is ambiguous')
        return self._names.get(ref.name)

    def resolve(self, ref: sa.ColumnRef) -> tuple[Layout, int]:
        """The layout (this one or an enclosing one) and slot ``ref`` names."""
        layout: Layout | None = self
        while layout is not None:
            slot = layout._local(ref)
            if slot is not None:
                if layout is not self:
                    layout.outer_refs += 1
                return layout, slot
            layout = layout.parent
        raise SqlExecutionError(f'column "{ref.display}" does not exist')

    def resolves(self, ref: sa.ColumnRef) -> bool:
        layout: Layout | None = self
        while layout is not None:
            if layout._local(ref) is not None:
                return True
            layout = layout.parent
        return False

    def can_resolve(self, ref: sa.ColumnRef) -> bool:
        """Whether ``ref`` names exactly one column of this layout."""
        if ref.table is not None:
            return (ref.table, ref.name) in self._qualified
        return ref.name in self._names and ref.name not in self._ambiguous

    def column_type(self, ref: sa.ColumnRef) -> SqlType:
        if ref.table is not None:
            index = self._qualified.get((ref.table, ref.name))
        else:
            index = self._names.get(ref.name)
        return self.columns[index].sql_type if index is not None else SqlType.NULL


def compile_expr(expr: sa.Expr, layout: Layout) -> Callable:
    """Lower ``expr`` once into a closure over a row laid out as ``layout``."""
    return _call(_compile(expr, layout))


def compile_vector(expr: sa.Expr, layout: Layout) -> Callable:
    """Lower ``expr`` once into a closure over a frame (``count`` rows laid
    out as ``layout``, read a column at a time): its values, one per row."""
    return _vector(_compile(expr, layout))


def compile_filter(expr: sa.Expr, layout: Layout) -> Callable:
    """Lower a condition into ``frame -> positions`` (ascending) of the
    rows where it is TRUE.  The right side of an AND runs over the rows
    where its left side is TRUE, and that of an OR over the rest."""
    return _matcher(_compile(expr, layout))


def _matcher(node) -> Callable:
    if type(node) is _Kleene:
        first, second = _matcher(node.left), _matcher(node.right)
        if not node.stop:
            def both(frame) -> Sequence[int]:
                kept = first(frame)
                if len(kept) == frame.count:
                    return second(frame)
                hits = second(frame.take(kept))
                return kept if len(hits) == len(kept) else [kept[i] for i in hits]

            return both

        def either(frame) -> Sequence[int]:
            hits = first(frame)
            if len(hits) == frame.count:
                return hits
            rest = [True] * frame.count
            for i in hits:
                rest[i] = False
            rest = list(compress(range(frame.count), rest))
            more = second(frame.take(rest))
            return sorted([*hits, *map(rest.__getitem__, more)]) if more else hits

        return either
    test = _vector(node)
    # a comparison yields only TRUE, FALSE and NULL: truthy is TRUE
    boolean = type(node) is _Lift and node.fast is not None \
        and node.fast[0] in _COMPARISONS

    def matching(frame) -> Sequence[int]:
        values = test(frame)
        hits = list(compress(range(frame.count), values if boolean else
                             map(operator.is_, values, repeat(True))))
        return range(frame.count) if len(hits) == frame.count else hits

    return matching


def flatten_and(expr: sa.Expr) -> list[sa.Expr]:
    if isinstance(expr, sa.BinaryOp) and expr.op == "AND":
        return flatten_and(expr.left) + flatten_and(expr.right)
    return [expr]


# A compiled node is a _Const, a _Column, a _Lift, a _Kleene or an opaque
# row closure (CASE, subqueries, non-constant IN lists).  ``_call`` makes
# any of them a row closure and ``_vector`` a frame closure; an opaque
# closure's column form maps it over the frame's rows.


class _Const(NamedTuple):
    """A folded subtree: its value, known before any row is read."""

    value: object


class _Column(NamedTuple):
    """A slot of this layout's rows, or of an enclosing query's current
    row (``owner``) inside a correlated subquery."""

    slot: int
    owner: Layout | None = None


class _Lift(NamedTuple):
    """``op`` applied to the kids' values.  ``fast`` is ``(c_op, check)``:
    a C operator a column runs through in one ``map``, equal to ``op`` on
    values without NULLs.  On a NULL it raises TypeError, or (``check``)
    returns a wrong answer, so the columns are searched for NULLs first."""

    op: Callable
    kids: tuple
    fast: tuple | None = None


class _Kleene(NamedTuple):
    """AND (``stop`` FALSE) or OR (``stop`` TRUE) in three-valued logic:
    ``stop`` on either side decides, and the right side runs only where
    the left side does not."""

    stop: bool
    left: object
    right: object


def _compile(expr: sa.Expr, layout: Layout):
    slot = layout.bound.get(id(expr))
    if slot is not None:
        return _Column(slot)
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        raise SqlExecutionError(f"cannot evaluate {type(expr).__name__}")
    return compiler(expr, layout)


def _call(compiled) -> Callable:
    kind = type(compiled)
    if kind is _Const:
        value = compiled.value
        return lambda row: value
    if kind is _Column:
        slot, owner = compiled
        return itemgetter(slot) if owner is None else lambda row: owner.row[slot]
    if kind is _Kleene:
        return _row_kleene(*compiled)
    return _row_lift(compiled) if kind is _Lift else compiled


def _vector(compiled) -> Callable:
    kind = type(compiled)
    if kind is _Const:
        value = compiled.value
        return lambda frame: [value] * frame.count
    if kind is _Column:
        slot, owner = compiled
        if owner is None:
            return lambda frame: frame.column(slot)
        return lambda frame: [owner.row[slot]] * frame.count
    if kind is _Lift:
        return _vector_lift(compiled)
    if kind is _Kleene:
        return _vector_kleene(*compiled)
    return lambda frame: list(map(compiled, frame.rows()))


def _fold(fn, kids) -> object:
    """``fn`` itself, or its value when every kid is a constant.  A fold
    that raises (``1/0``) stays a closure, so the error is raised only for
    rows that reach it (a CASE branch not taken raises nothing)."""
    if all(isinstance(kid, _Const) for kid in kids):
        try:
            return _Const(_call(fn)(()))
        except Exception:
            return fn
    return fn


def _lift(op: Callable, *kids, fast: tuple | None = None):
    """A node applying ``op`` to the kids' values of each row."""
    return _fold(_Lift(op, kids, fast), kids)


def _row_lift(node: _Lift) -> Callable:
    op, kids = node.op, node.kids
    if len(kids) == 2 and isinstance(kids[1], _Const) \
            and not isinstance(kids[0], _Const):
        first, second = _call(kids[0]), kids[1].value
        return lambda row: op(first(row), second)
    fns = [_call(kid) for kid in kids]
    if len(fns) == 1:
        (a,) = fns
        return lambda row: op(a(row))
    if len(fns) == 2:
        a, b = fns
        fast, check = node.fast or (None, True)
        if check:
            return lambda row: op(a(row), b(row))

        def binary(row):  # fast raises TypeError where only op is right
            left, right = a(row), b(row)
            try:
                return fast(left, right)
            except TypeError:
                return op(left, right)

        return binary
    return lambda row: op(*[f(row) for f in fns])


def _vector_lift(node: _Lift) -> Callable:
    op, (fast, check) = node.op, node.fast or (None, False)
    consts = [kid.value if isinstance(kid, _Const) else None for kid in node.kids]
    vectors = [None if isinstance(kid, _Const) else _vector(kid)
               for kid in node.kids]
    if check and None in [c for c, v in zip(consts, vectors) if v is None]:
        fast = None  # a NULL constant: op alone knows the answer

    def vector(frame) -> list:
        count = frame.count
        columns = [fn(frame) if fn else None for fn in vectors]

        def args():
            return [repeat(const, count) if column is None else column
                    for const, column in zip(consts, columns)]

        if fast is not None and not (check and any(
                None in column for column in columns if column is not None)):
            try:
                return list(map(fast, *args()))
            except TypeError:
                pass  # a NULL, or op raises the SQL error for the offending pair
        return list(map(op, *args()))

    return vector


def _row_kleene(stop: bool, left, right) -> Callable:
    left, right = _call(left), _call(right)

    def kleene(row):
        first = left(row)
        if first is stop:
            return stop
        second = right(row)
        if second is stop:
            return stop
        if first is None or second is None:
            return None
        return not stop

    return kleene


def _vector_kleene(stop: bool, left, right) -> Callable:
    left, right = _vector(left), _vector(right)

    def kleene(frame) -> list:
        values = list(left(frame))
        open_ = [i for i, value in enumerate(values) if value is not stop]
        if not open_:
            return values
        part = frame if len(open_) == frame.count else frame.take(open_)
        for i, second in zip(open_, right(part)):
            first = values[i]
            values[i] = stop if second is stop else (
                None if first is None or second is None else not stop)
        return values

    return kleene


# -- operators over values ----------------------------------------------------


def _comparison(test: Callable) -> Callable:
    def compare(left, right):
        if left is None or right is None:
            return None
        try:
            return test(left, right)
        except TypeError:
            raise SqlTypeError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            ) from None

    return compare


def _arithmetic(fn: Callable) -> Callable:
    def apply(left, right):
        if left is None or right is None:
            return None
        return fn(left, right)

    return apply


def _divide(left, right):
    if right == 0:
        raise SqlExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


def _modulo(left, right):
    if right == 0:
        raise SqlExecutionError("division by zero")
    return left - right * int(left / right)


def _null_safe_equal(left, right) -> bool:
    if left is None and right is None:
        return True
    if left is None or right is None:
        return False
    return bool(left == right)


_BINARY: dict[str, Callable] = {
    "=": _comparison(operator.eq),
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "IS NOT DISTINCT FROM": _null_safe_equal,
    "IS DISTINCT FROM": lambda left, right: not _null_safe_equal(left, right),
    "||": _arithmetic(lambda left, right: str(left) + str(right)),
    "+": _arithmetic(operator.add),
    "-": _arithmetic(operator.sub),
    "*": _arithmetic(operator.mul),
    "/": _arithmetic(_divide),
    "%": _arithmetic(_modulo),
}


#: (C operator, check) per _BINARY entry, as _Lift.fast reads them
_FAST: dict[str, tuple] = {
    "=": (operator.eq, True), "<>": (operator.ne, True),
    "<": (operator.lt, False), "<=": (operator.le, False),
    ">": (operator.gt, False), ">=": (operator.ge, False),
    "IS NOT DISTINCT FROM": (operator.eq, False),
    "IS DISTINCT FROM": (operator.ne, False),
    "+": (operator.add, False), "-": (operator.sub, False),
    "*": (operator.mul, False),
}
_COMPARISONS = {operator.eq, operator.ne, operator.lt, operator.le,
                operator.gt, operator.ge}


def _member(value, candidates, negated: bool):
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not negated
    return None if saw_null else negated


@lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# -- compilers, one per node type -----------------------------------------------


def _compile_column(expr: sa.ColumnRef, layout: Layout):
    owner, slot = layout.resolve(expr)
    return _Column(slot, None if owner is layout else owner)


def _compile_unary(expr: sa.UnaryOp, layout: Layout):
    operand = _compile(expr.operand, layout)
    if expr.op == "NOT":
        return _lift(lambda v: None if v is None else (not v), operand)
    if expr.op == "-":
        return _lift(lambda v: None if v is None else -v, operand)
    return operand


def _compile_binary(expr: sa.BinaryOp, layout: Layout):
    kids = (_compile(expr.left, layout), _compile(expr.right, layout))
    op = expr.op
    if op in ("AND", "OR"):
        return _fold(_Kleene(op == "OR", *kids), kids)
    fn = _BINARY.get(op)
    if fn is None:
        raise SqlExecutionError(f"unknown operator {op!r}")
    return _lift(fn, *kids, fast=_FAST.get(op))


def _compile_isnull(expr: sa.IsNull, layout: Layout):
    test = operator.is_not if expr.negated else operator.is_
    return _lift(test, _compile(expr.operand, layout), _Const(None))


def _compile_inlist(expr: sa.InList, layout: Layout):
    operand = _compile(expr.operand, layout)
    items = [_compile(item, layout) for item in expr.items]
    negated = expr.negated
    if all(isinstance(item, _Const) for item in items):
        values = [item.value for item in items]
        return _lift(lambda v: _member(v, values, negated), operand)
    value, fns = _call(operand), [_call(item) for item in items]
    # items run lazily, stopping at the first match
    return lambda row: _member(value(row), (f(row) for f in fns), negated)


def _compile_between(expr: sa.Between, layout: Layout):
    negated = expr.negated

    def between(value, low, high):
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return (not result) if negated else result

    return _lift(between, *(_compile(e, layout)
                            for e in (expr.operand, expr.low, expr.high)))


def _compile_like(expr: sa.LikeOp, layout: Layout):
    negated = expr.negated

    def like(value, pattern):
        if value is None or pattern is None:
            return None
        result = bool(_like_to_regex(str(pattern)).match(str(value)))
        return (not result) if negated else result

    return _lift(like, _compile(expr.operand, layout),
                 _compile(expr.pattern, layout))


def _compile_cast(expr: sa.Cast, layout: Layout):
    target = expr.target
    return _lift(lambda v: cast_value(v, target), _compile(expr.operand, layout))


def _compile_case(expr: sa.Case, layout: Layout):
    kids = [_compile(expr.operand, layout)] if expr.operand is not None else []
    for condition, result in expr.branches:
        kids += [_compile(condition, layout), _compile(result, layout)]
    default = _compile(expr.default, layout) if expr.default is not None \
        else _Const(None)
    fns = [_call(kid) for kid in kids]
    otherwise = _call(default)
    if expr.operand is None:
        branches = list(zip(fns[0::2], fns[1::2]))

        def case(row):
            for condition, result in branches:
                if condition(row) is True:
                    return result(row)
            return otherwise(row)
    else:
        subject, branches = fns[0], list(zip(fns[1::2], fns[2::2]))

        def case(row):
            value = subject(row)
            for condition, result in branches:
                candidate = condition(row)
                if candidate is not None and value is not None \
                        and candidate == value:
                    return result(row)
            return otherwise(row)

    return _fold(case, kids + [default])


def _compile_func(expr: sa.FuncCall, layout: Layout):
    if is_aggregate(expr.name):
        raise SqlExecutionError(
            f"aggregate function {expr.name}() used outside of a grouped query"
        )
    fn = SCALAR_FUNCTIONS.get(expr.name)
    if fn is None:
        raise SqlExecutionError(f"function {expr.name}() does not exist")
    return _lift(fn, *(_compile(arg, layout) for arg in expr.args))


def _compile_window(expr: sa.WindowFunc, layout: Layout):
    raise SqlExecutionError("window functions are not allowed here")


def _subquery_rows(query: sa.Select, layout: Layout, limit_hint=None):
    """A closure returning the subquery's rows for the current outer row.

    The subquery is planned here, once.  An uncorrelated one runs on first
    use and keeps its rows for the rest of the statement."""
    executor = layout.executor
    if executor is None:
        raise SqlExecutionError("subquery evaluated without an executor")
    before = _outer_refs(layout)
    layout.subplans[id(query)] = executor.plan(query, layout)
    if _outer_refs(layout) != before:
        def correlated(row):
            layout.row = row
            return executor.execute_select(query, layout, limit_hint).rows

        return correlated
    kept: list = []

    def uncorrelated(row):
        if not kept:
            kept.append(executor.execute_select(query, layout, limit_hint).rows)
        return kept[0]

    return uncorrelated


def _outer_refs(layout: Layout | None) -> int:
    total = 0
    while layout is not None:
        total += layout.outer_refs
        layout = layout.parent
    return total


def _compile_scalar_subquery(expr: sa.ScalarSubquery, layout: Layout):
    rows = _subquery_rows(expr.query, layout)

    def scalar(row):
        result = rows(row)
        if not result:
            return None
        if len(result) > 1:
            raise SqlExecutionError("more than one row returned by scalar subquery")
        return result[0][0]

    return scalar


def _compile_exists(expr: sa.ExistsSubquery, layout: Layout):
    rows, negated = _subquery_rows(expr.query, layout, limit_hint=1), expr.negated
    return lambda row: (not rows(row)) if negated else bool(rows(row))


def _compile_in_subquery(expr: sa.InSubquery, layout: Layout):
    value, negated = _call(_compile(expr.operand, layout)), expr.negated
    rows = _subquery_rows(expr.query, layout)

    def member(row):
        operand = value(row)
        if operand is None:
            return None
        return _member(operand, map(itemgetter(0), rows(row)), negated)

    return member


_COMPILERS: dict[type, Callable] = {
    sa.Literal: lambda expr, layout: _Const(expr.value),
    sa.ColumnRef: _compile_column,
    sa.UnaryOp: _compile_unary,
    sa.BinaryOp: _compile_binary,
    sa.IsNull: _compile_isnull,
    sa.InList: _compile_inlist,
    sa.Between: _compile_between,
    sa.LikeOp: _compile_like,
    sa.Cast: _compile_cast,
    sa.Case: _compile_case,
    sa.FuncCall: _compile_func,
    sa.WindowFunc: _compile_window,
    sa.ScalarSubquery: _compile_scalar_subquery,
    sa.ExistsSubquery: _compile_exists,
    sa.InSubquery: _compile_in_subquery,
}


# ---------------------------------------------------------------------------
# Static type inference (for result metadata)
# ---------------------------------------------------------------------------


def infer_type(
    expr: sa.Expr, column_type: Callable[[sa.ColumnRef], SqlType]
) -> SqlType:
    """Best-effort static type of an expression for RowDescription metadata."""
    if isinstance(expr, sa.Literal):
        return expr.sql_type
    if isinstance(expr, sa.ColumnRef):
        return column_type(expr)
    if isinstance(expr, sa.Cast):
        return expr.target
    if isinstance(expr, sa.UnaryOp):
        if expr.op == "NOT":
            return SqlType.BOOLEAN
        return infer_type(expr.operand, column_type)
    if isinstance(expr, sa.BinaryOp):
        if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">=",
                       "IS NOT DISTINCT FROM", "IS DISTINCT FROM"):
            return SqlType.BOOLEAN
        if expr.op == "||":
            return SqlType.TEXT
        left = infer_type(expr.left, column_type)
        right = infer_type(expr.right, column_type)
        if expr.op == "/" and not (left.is_integral and right.is_integral):
            return SqlType.DOUBLE
        return promote(left, right)
    if isinstance(expr, (sa.IsNull, sa.InList, sa.Between, sa.LikeOp,
                         sa.ExistsSubquery, sa.InSubquery)):
        return SqlType.BOOLEAN
    if isinstance(expr, sa.Case):
        for __, result in expr.branches:
            t = infer_type(result, column_type)
            if t != SqlType.NULL:
                return t
        if expr.default is not None:
            return infer_type(expr.default, column_type)
        return SqlType.NULL
    if isinstance(expr, sa.FuncCall):
        if is_aggregate(expr.name):
            arg_type = (
                infer_type(expr.args[0], column_type) if expr.args else SqlType.BIGINT
            )
            return aggregate_result_type(expr.name, arg_type)
        arg_types = [infer_type(a, column_type) for a in expr.args]
        return scalar_result_type(expr.name, arg_types)
    if isinstance(expr, sa.WindowFunc):
        name = expr.func.name
        if name in ("row_number", "rank", "dense_rank", "ntile"):
            return SqlType.BIGINT
        if name in ("lead", "lag", "first_value", "last_value", "nth_value"):
            return (
                infer_type(expr.func.args[0], column_type)
                if expr.func.args
                else SqlType.NULL
            )
        arg_type = (
            infer_type(expr.func.args[0], column_type)
            if expr.func.args
            else SqlType.BIGINT
        )
        return aggregate_result_type(name, arg_type)
    if isinstance(expr, sa.ScalarSubquery):
        return SqlType.NULL  # refined by executor when metadata available
    return SqlType.NULL
