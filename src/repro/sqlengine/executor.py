"""Plan-once, column-at-a-time executor for the SQL subset.

:meth:`Executor.plan` lowers a SELECT once per statement.  FROM items
become scan and join closures, and every clause compiles once through
:mod:`~repro.sqlengine.expr` with each column already a slot.  Running
the plan passes :class:`Frame` s between the steps: a scan selects every
stored row, the conjuncts of WHERE and HAVING narrow that selection one
column at a time, GROUP BY keys, aggregate arguments and window inputs
are columns over the rows that survived, and a projection of plain
columns only renames.  A column is gathered for the surviving positions
when a later step reads it, and the result leaves as
``ResultSet.from_columns``.  DISTINCT, set operations and correlated
subqueries run their row closures over the rows of the frame they get,
so rows are built for survivors only.  A join hashes the key
columns of the equality conjuncts of its condition (null-safe per key for
``IS NOT DISTINCT FROM``, the shape Hyper-Q emits for every Q join), or
pairs every row without any, and emits (probe, build) position pairs; the
rest of the condition filters the pairs a column at a time, and an outer
join then null-extends the rows left without a pair.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter, ne
from typing import Callable, NamedTuple, Sequence

from repro.errors import SqlExecutionError
from repro.sqlengine import sqlast as sa
from repro.sqlengine.catalog import Catalog, Column, Table, View
from repro.sqlengine.expr import (
    Layout,
    RelColumn,
    compile_expr,
    compile_filter,
    compile_vector,
    flatten_and,
    infer_type,
)
from repro.sqlengine.functions import (
    NULL_KEEPING_AGGREGATES,
    compute_aggregate,
    is_aggregate,
)
from repro.sqlengine.types import SqlType, promote
from repro.sqlengine.window import compute_window_values, sort_column

Rows = list[tuple]


class Frame:
    """``count`` rows of a relation, held column-major.

    :meth:`column` builds column ``k`` on first read and keeps it.
    :meth:`take` selects rows by position and copies no column until one
    is read (a take of a take that keeps no more rows reads the first
    frame once); :meth:`rows` is the row-tuple view for row closures.
    A scan is a take of every row of the stored lists, so no column a
    frame hands out is one.
    """

    __slots__ = ("count", "_columns", "_source", "_rows", "_take")

    def __init__(self, count: int, columns: list, source=None):
        self.count = count
        self._columns = columns  # a list per column, None until built
        self._source = source    # k -> column k, for the None entries
        self._rows: Rows | None = None
        self._take: tuple[Frame, Sequence[int]] | None = None

    @classmethod
    def scan(cls, table: Table) -> Frame:
        return cls(table.row_count, list(table.data)).take(range(table.row_count))

    @classmethod
    def of_rows(cls, rows: Rows, width: int) -> Frame:
        frame = cls(len(rows), [None] * width,
                    lambda k: list(map(itemgetter(k), rows)))
        frame._rows = rows
        return frame

    def column(self, k: int) -> list:
        values = self._columns[k]
        if values is None:
            values = self._columns[k] = self._source(k)
        return values

    def columns(self) -> list[list]:
        return [self.column(k) for k in range(len(self._columns))]

    def rows(self) -> Rows:
        if self._rows is None:
            columns = self.columns()
            self._rows = list(zip(*columns)) if columns else [()] * self.count
        return self._rows

    def take(self, positions: Sequence[int]) -> Frame:
        """The rows at ``positions``, in that order."""
        if self._take is not None and len(positions) <= self.count:
            parent, selected = self._take
            return parent.take(_gather(selected, positions))
        width = len(self._columns)
        if self._rows is not None:
            return Frame.of_rows(list(map(self._rows.__getitem__, positions)),
                                 width)
        frame = Frame(len(positions), [None] * width,
                      lambda k: _gather(self.column(k), positions))
        frame._take = (self, positions)
        return frame

    def select(self, slots: list[int]) -> Frame:
        """Columns ``slots`` of this frame, in that order."""
        if self._take is not None:
            parent, selected = self._take
            return parent.select(slots).take(selected)
        return Frame(self.count, [self._columns[k] for k in slots],
                     lambda k: self.column(slots[k]))

    def extend(self, columns: list[list]) -> Frame:
        """This frame with ``columns`` appended."""
        return Frame(self.count, self._columns + columns, self.column)


class Plan(NamedTuple):
    """A SELECT lowered once: its output columns and the function that runs it."""

    columns: list[Column]
    run: Callable[[], Frame]


class Source(NamedTuple):
    """A FROM item lowered once."""

    columns: list[RelColumn]
    run: Callable[[], Frame]


class ResultSet:
    """What a query returns: column metadata plus the data, in either
    row-major or column-major form.

    The engine and the network gateway both build results columnar (one
    list per column), the layout the Cross Compiler's pivot consumes, so
    the pivot never transposes.  Whichever form a result was built with,
    the other is materialized lazily on first access, so row-oriented
    consumers (``testing``) keep their ``.rows`` view.
    """

    __slots__ = ("columns", "command", "_rows", "_column_data")

    def __init__(
        self,
        columns: list[Column],
        rows: list[tuple] | None = None,
        command: str = "SELECT",
        column_data: list[list] | None = None,
    ):
        self.columns = columns
        self.command = command
        if rows is None and column_data is None:
            rows = []
        self._rows = rows
        self._column_data = column_data

    @classmethod
    def from_columns(
        cls, columns: list[Column], column_data: list[list],
        command: str = "SELECT",
    ) -> "ResultSet":
        """A columnar result (one payload list per column)."""
        return cls(columns, command=command, column_data=column_data)

    @property
    def rows(self) -> list[tuple]:
        """Row-tuple view; materialized from columns on first access."""
        if self._rows is None:
            self._rows = list(zip(*self._column_data))
        return self._rows

    @rows.setter
    def rows(self, rows: list[tuple]) -> None:
        # rebinding rows (LIMIT/OFFSET slicing, sorting) invalidates any
        # derived columnar view
        self._rows = rows
        self._column_data = None

    @property
    def column_data(self) -> list[list]:
        """Column-major view; transposed from rows only when the result
        was not built columnar in the first place."""
        if self._column_data is None:
            if self._rows:
                self._column_data = [list(col) for col in zip(*self._rows)]
            else:
                self._column_data = [[] for __ in self.columns]
        return self._column_data

    @property
    def is_columnar(self) -> bool:
        """Whether the result natively carries column-major data."""
        return self._column_data is not None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def scalar(self):
        """The single value of a 1x1 result (convenience for tests)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError("result is not a single scalar")
        return self.rows[0][0]

    def __repr__(self) -> str:
        return (
            f"ResultSet(columns={len(self.columns)}, rows={len(self.rows)}, "
            f"command={self.command!r})"
        )


class Executor:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- entry ------------------------------------------------------------------

    def execute_select(
        self,
        select: sa.Select,
        outer: Layout | None = None,
        limit_hint: int | None = None,
    ) -> ResultSet:
        """Run ``select``.  A subquery (``outer`` is the layout it was
        compiled against) reuses the plan made when it was compiled."""
        plan = outer.subplans.get(id(select)) if outer is not None else None
        if plan is None:
            plan = self.plan(select, outer)
        frame = plan.run()
        if limit_hint is not None:
            frame = _slice(frame, None, limit_hint)
        return ResultSet.from_columns(plan.columns, frame.columns())

    def plan(self, select: sa.Select, outer: Layout | None = None) -> Plan:
        plan = self._plan_core(select, outer)
        if select.set_op is not None and select.set_right is not None:
            plan = self._plan_set_op(select, plan, self.plan(select.set_right, outer))
        if select.offset is None and select.limit is None:
            return plan
        offset = int(self._const(select.offset)) if select.offset is not None else None
        limit = int(self._const(select.limit)) if select.limit is not None else None
        run = plan.run
        return Plan(plan.columns, lambda: _slice(run(), offset, limit))

    def _const(self, expr: sa.Expr):
        return compile_expr(expr, Layout([], executor=self))(())

    def _plan_set_op(self, select: sa.Select, left: Plan, right: Plan) -> Plan:
        if len(left.columns) != len(right.columns):
            raise SqlExecutionError("set operation inputs differ in column count")
        columns = [
            Column(lc.name, promote_or_left(lc.sql_type, rc.sql_type))
            for lc, rc in zip(left.columns, right.columns)
        ]
        sort = None
        if select.order_by:
            layout = Layout(_relabel(None, columns), executor=self)
            sort = _plan_order(select.order_by, layout, columns)
        op = select.set_op

        def run() -> Frame:
            rows = _apply_set_op(left.run().rows(), op, right.run().rows())
            frame = Frame.of_rows(rows, len(columns))
            return sort(frame, frame) if sort else frame

        return Plan(columns, run)

    # -- core SELECT --------------------------------------------------------------

    def _plan_core(self, select: sa.Select, outer: Layout | None) -> Plan:
        source = Source([], lambda: Frame(1, []))
        if select.from_clause is not None:
            source = self._plan_from(select.from_clause, outer)
        columns, scan = source
        layout = Layout(columns, outer, self)
        where = _plan_filter(select.where, layout)

        aggregates = _collect_aggregates(select)
        group = None
        if select.group_by or aggregates:
            group = _plan_grouping(select.group_by, aggregates, layout)
            layout = layout.extend(aggregates)  # one slot per aggregate value
        having = _plan_filter(select.having, layout)

        windows = _collect_windows(select)
        window_values = [_plan_window(node, layout) for node in windows]
        if windows:
            layout = layout.extend(windows)

        exprs, out_columns = _select_list(select.items, columns, layout)
        project = _plan_projection(exprs, layout)
        order = None
        if select.order_by and select.set_op is None:
            order = _plan_order(select.order_by, layout, out_columns)
        distinct = select.distinct

        def run() -> Frame:
            frame = scan()
            if where:
                frame = where(frame)
            if group:
                frame = group(frame)
            if having:
                frame = having(frame)
            if window_values:
                frame = frame.extend([compute(frame) for compute in window_values])
            out = project(frame) if project else frame
            if order:
                out = order(frame, out)
            return _distinct(out) if distinct else out

        return Plan(out_columns, run)

    # -- FROM -----------------------------------------------------------------------

    def _plan_from(self, table_expr: sa.TableExpr, outer: Layout | None) -> Source:
        if isinstance(table_expr, sa.TableRef):
            relation = self.catalog.resolve(table_expr.name, table_expr.schema)
            label = table_expr.alias or table_expr.name
            if isinstance(relation, View):
                plan = self.plan(relation.query)
                return Source(_relabel(label, plan.columns), plan.run)
            columns = [RelColumn(label, c.name, c.sql_type) for c in relation.columns]
            return Source(columns, lambda: Frame.scan(relation))
        if isinstance(table_expr, sa.SubqueryRef):
            plan = self.plan(table_expr.query, outer)
            return Source(_relabel(table_expr.alias, plan.columns), plan.run)
        if isinstance(table_expr, sa.Join):
            return self._plan_join(table_expr, outer)
        raise SqlExecutionError(f"unsupported FROM item {type(table_expr).__name__}")

    def _plan_join(self, join: sa.Join, outer: Layout | None) -> Source:
        left_columns, left_run = self._plan_from(join.left, outer)
        right_columns, right_run = self._plan_from(join.right, outer)
        columns = left_columns + right_columns
        left_layout = Layout(left_columns, outer, self)
        right_layout = Layout(right_columns, outer, self)
        keys, residual = ([], None) if join.condition is None else \
            _split_equi_condition(join.condition, left_layout, right_layout)
        test = None
        if residual is not None:
            test = compile_filter(residual, Layout(columns, outer, self))
        null_safe = [safe for __, __, safe in keys]
        left_keys = [compile_vector(e, left_layout) for e, __, __ in keys]
        right_keys = [compile_vector(e, right_layout) for __, e, __ in keys]
        kind = join.kind
        # a right join probes with the right rows, so its output keeps their order
        flip = kind == "right"
        outer_join = kind in ("left", "right", "full")

        def run() -> Frame:
            left, right = left_run(), right_run()
            probe, build = (right, left) if flip else (left, right)

            def paired(probe_at: list[int], build_at: list[int],
                       nulls: bool = False) -> Frame:
                pair = (build_at, probe_at) if flip else (probe_at, build_at)
                return _paired(left, right, *pair, nulls)

            if keys:
                left_on = [key(left) for key in left_keys]
                right_on = [key(right) for key in right_keys]
                probe_at, build_at = _hash_probe(
                    *((right_on, left_on) if flip else (left_on, right_on)),
                    null_safe)
            else:
                probe_at = [i for i in range(probe.count) for __ in range(build.count)]
                build_at = list(range(build.count)) * probe.count
            if test is not None:  # the residual, a column at a time over the pairs
                hits = test(paired(probe_at, build_at))
                if len(hits) < len(probe_at):
                    probe_at = [probe_at[i] for i in hits]
                    build_at = [build_at[i] for i in hits]
            if outer_join:  # null-extend probes that kept no pair
                probe_at, build_at = _null_extend(probe_at, build_at,
                                                  probe.count, build.count)
            if kind == "full":
                unmatched = set(range(build.count)).difference(build_at)
                build_at += sorted(unmatched)
                probe_at += [probe.count] * len(unmatched)
            return paired(probe_at, build_at, outer_join)

        return Source(columns, run)


# ---------------------------------------------------------------------------
# Clause planners
# ---------------------------------------------------------------------------


def _plan_filter(expr: sa.Expr | None, layout: Layout):
    if expr is None:
        return None
    matching = compile_filter(expr, layout)

    def where(frame: Frame) -> Frame:
        positions = matching(frame)
        return frame if len(positions) == frame.count else frame.take(positions)

    return where


def _plan_grouping(group_by: list[sa.Expr], aggregates: list[sa.FuncCall],
                   layout: Layout) -> Callable[[Frame], Frame]:
    """Frame -> one row per group: a representative input row followed by
    the group's aggregate values."""
    keys = [compile_vector(e, layout) for e in group_by]
    folds = [_plan_aggregate(agg, layout) for agg in aggregates]
    width = layout.width

    def group(frame: Frame) -> Frame:
        if keys:
            buckets = _buckets([key(frame) for key in keys])
            base = frame.take([members[0] for members in buckets])
        elif frame.count:
            buckets = [range(frame.count)]  # implicit single group
            base = frame.take([0])
        else:
            buckets = [[]]
            base = Frame(1, [[None]] * width)
        return base.extend([fold(frame, buckets) for fold in folds])

    return group


def _buckets(columns: list[list]) -> list[list[int]]:
    """Row positions grouped by key, groups in order of first appearance.
    NULL keys group together, as IS NOT DISTINCT FROM keys match."""
    columns = [c if _plain_keys(c) else list(map(_hashable, c)) for c in columns]
    groups: defaultdict = defaultdict(list)
    for i, key in enumerate(columns[0] if len(columns) == 1 else zip(*columns)):
        groups[key].append(i)
    return list(groups.values())


def _plain_keys(column: list) -> bool:
    """Whether ``column``'s values are dict keys as they are: no list, and
    no NaN (every NaN must be one key, as ``_hashable`` makes them)."""
    kinds = set(map(type, column))
    return list not in kinds and not (float in kinds and any(map(ne, column, column)))


def _plan_aggregate(agg: sa.FuncCall, layout: Layout) -> Callable:
    """(frame, buckets) -> the aggregate's value for each bucket."""
    if agg.star:
        if agg.name != "count":
            raise SqlExecutionError(f"{agg.name}(*) is not defined")
        return lambda frame, buckets: [len(members) for members in buckets]
    arg = compile_vector(agg.args[0], layout)
    extra = None
    if agg.name == "string_agg" and len(agg.args) > 1:
        extra = compile_vector(agg.args[1], layout)
    keep_nulls = agg.name in NULL_KEEPING_AGGREGATES

    def fold(frame: Frame, buckets) -> list:
        column = arg(frame)
        extras = extra(frame) if extra is not None else None
        out = []
        for members in buckets:
            if type(members) is range:  # the implicit group: every row
                values = column[:]
            else:
                values = [column[i] for i in members]
            if not keep_nulls and None in values:
                values = [v for v in values if v is not None]
            if agg.distinct:
                values = _dedupe_values(values)
            extra_args = [extras[members[0]]] if extras and members else []
            out.append(compute_aggregate(agg.name, values, extra_args))
        return out

    return fold


def _plan_window(node: sa.WindowFunc, layout: Layout) -> Callable[[Frame], list]:
    spec = node.window
    args = [compile_vector(arg, layout) for arg in node.func.args]
    partition = [compile_vector(e, layout) for e in spec.partition_by]
    order = [compile_vector(item.expr, layout) for item in spec.order_by]
    return lambda frame: compute_window_values(node, frame, args, partition, order)


def _plan_projection(exprs: list, layout: Layout):
    """Frame -> projected frame, or None when the projection is the
    identity.  An int in ``exprs`` is a slot (a column ``*`` expanded to)."""
    slots = [e if isinstance(e, int) else _local_slot(e, layout) for e in exprs]
    if None not in slots:
        if slots == list(range(layout.width)):
            return None
        return lambda frame: frame.select(slots)
    fns = [(lambda frame, slot=e: frame.column(slot)) if isinstance(e, int)
           else compile_vector(e, layout) for e in exprs]
    return lambda frame: Frame(frame.count, [f(frame) for f in fns])


def _local_slot(expr: sa.Expr, layout: Layout) -> int | None:
    """The slot ``expr`` reads as is: a column of this layout, or an
    aggregate or window value appended to the row."""
    slot = layout.bound.get(id(expr))
    if slot is not None or not isinstance(expr, sa.ColumnRef):
        return slot
    owner, slot = layout.resolve(expr)
    return slot if owner is layout else None


def _plan_order(order_by: list[sa.OrderItem], layout: Layout,
                out_columns: list[Column]) -> Callable[[Frame, Frame], Frame]:
    """sort(in_frame, out_frame): the output rows ordered by keys read from
    an output column (an ordinal, or an output alias that names no input
    column) or computed from the input."""
    alias_index = {c.name: i for i, c in enumerate(out_columns)}
    keys = []
    for item in order_by:
        expr = item.expr
        if isinstance(expr, sa.Literal) and isinstance(expr.value, int) \
                and 0 <= expr.value - 1 < len(out_columns):
            key = expr.value - 1
        elif isinstance(expr, sa.ColumnRef) and expr.table is None \
                and not layout.resolves(expr) and expr.name in alias_index:
            key = alias_index[expr.name]
        else:
            key = compile_vector(expr, layout)
        keys.append((key, item.descending, item.nulls_first))

    def sort(in_frame: Frame, out_frame: Frame) -> Frame:
        columns = [
            sort_column(out_frame.column(key) if isinstance(key, int)
                        else key(in_frame), descending, nulls_first)
            for key, descending, nulls_first in keys
        ]
        sort_keys = columns[0] if len(columns) == 1 else list(zip(*columns))
        return out_frame.take(
            sorted(range(out_frame.count), key=sort_keys.__getitem__)
        )

    return sort


def _gather(values: Sequence, positions: Sequence[int]) -> Sequence:
    """``values`` at ``positions``; every range here has step 1."""
    if type(positions) is range:
        return values[positions.start:positions.stop]
    if type(values) is range and not values.start:
        return positions
    return [values[i] for i in positions]


def _slice(frame: Frame, offset: int | None, limit: int | None) -> Frame:
    positions = range(frame.count)[offset:][:limit]
    return frame if len(positions) == frame.count else frame.take(positions)


def _distinct(frame: Frame) -> Frame:
    rows = frame.rows()
    kept = _dedupe(rows)
    return frame if len(kept) == len(rows) else Frame.of_rows(kept, len(rows[0]))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _relabel(label: str | None, columns: list[Column]) -> list[RelColumn]:
    return [RelColumn(label, c.name, c.sql_type) for c in columns]


def _select_list(items: list[sa.SelectItem], columns: list[RelColumn],
                 layout: Layout) -> tuple[list, list[Column]]:
    """The select list's expressions and output columns.  A ``*`` expands
    by position into the slots it names, so two input columns of one name
    stay two columns."""
    exprs: list = []
    out: list[Column] = []
    for item in items:
        if not isinstance(item.expr, sa.Star):
            exprs.append(item.expr)
            out.append(Column(item.alias or _derive_name(item.expr),
                              infer_type(item.expr, layout.column_type)))
            continue
        for slot, col in enumerate(columns):
            if item.expr.table is None or col.table == item.expr.table:
                exprs.append(slot)
                out.append(Column(col.name, col.sql_type))
    return exprs, out


def _hashable(value):
    if isinstance(value, float) and value != value:
        return "__nan__"
    if isinstance(value, list):
        return tuple(value)
    return value


def _hash_probe(probe: list[list], build: list[list], null_safe: list[bool]
                ) -> tuple[list[int], list[int]]:
    """(probe, build) positions of every match of the key columns, in
    probe order and then build order.  A NULL key matches only where the
    key is compared IS NOT DISTINCT FROM."""
    index: dict = {}
    for j, key in enumerate(_join_keys(build, null_safe)):
        if key is not _NO_MATCH:
            index.setdefault(key, []).append(j)
    probe_at, build_at = [], []
    for i, key in enumerate(_join_keys(probe, null_safe)):
        matches = index.get(key)
        if matches:
            probe_at += [i] * len(matches)
            build_at += matches
    return probe_at, build_at


_NO_MATCH = object()


def _join_keys(columns: list[list], null_safe: list[bool]) -> list:
    """One hashable key per row, or ``_NO_MATCH`` for a row whose NULL
    key is compared with '='."""
    columns = [c if _plain_keys(c) else list(map(_hashable, c)) for c in columns]
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    for column, safe in zip(columns, null_safe):
        if not safe and None in column:
            keys = [_NO_MATCH if v is None else k for k, v in zip(keys, column)]
    return keys


def _null_extend(probe_at: list[int], build_at: list[int], probes: int,
                 null: int) -> tuple[list[int], list[int]]:
    """The pairs plus, in order, a (probe, ``null``) pair for each probe
    position that has none."""
    missing = set(range(probes)).difference(probe_at)
    if not missing:
        return probe_at, build_at
    pairs = sorted([*zip(probe_at, build_at), *((i, null) for i in missing)],
                   key=itemgetter(0))  # stable: build order within a probe
    return [p for p, __ in pairs], [b for __, b in pairs]


def _paired(left: Frame, right: Frame, left_at: list[int],
            right_at: list[int], nulls: bool = False) -> Frame:
    """Left rows at ``left_at`` beside right rows at ``right_at``; with
    ``nulls``, a position equal to its side's row count is a row of NULLs."""
    sides = [_null_take(left, left_at, nulls), _null_take(right, right_at, nulls)]
    split = len(left._columns)
    return Frame(len(left_at), [None] * (split + len(right._columns)),
                 lambda k: sides[0].column(k) if k < split
                 else sides[1].column(k - split))


def _null_take(frame: Frame, positions: list[int], nulls: bool) -> Frame:
    if not (nulls and frame.count in positions):
        return frame.take(positions)
    return Frame(len(positions), [None] * len(frame._columns),
                 lambda k: _gather([*frame.column(k), None], positions))


def _dedupe(rows: Rows) -> Rows:
    seen: set = set()
    out = []
    for row in rows:
        key = tuple(_hashable(v) for v in row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _dedupe_values(values: list) -> list:
    seen: set = set()
    out = []
    for v in values:
        key = _hashable(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _derive_name(expr: sa.Expr) -> str:
    if isinstance(expr, sa.ColumnRef):
        return expr.name
    if isinstance(expr, sa.FuncCall):
        return expr.name
    if isinstance(expr, sa.WindowFunc):
        return expr.func.name
    if isinstance(expr, sa.Cast):
        return _derive_name(expr.operand)
    return "?column?"


def _children(node: sa.Expr) -> tuple:
    """The scalar sub-expressions of ``node`` (not those inside subqueries)."""
    if isinstance(node, sa.BinaryOp):
        return (node.left, node.right)
    if isinstance(node, (sa.UnaryOp, sa.IsNull, sa.Cast, sa.InSubquery)):
        return (node.operand,)
    if isinstance(node, sa.InList):
        return (node.operand, *node.items)
    if isinstance(node, sa.Between):
        return (node.operand, node.low, node.high)
    if isinstance(node, sa.LikeOp):
        return (node.operand, node.pattern)
    if isinstance(node, sa.Case):
        parts = [node.operand, *(e for branch in node.branches for e in branch),
                 node.default]
        return tuple(part for part in parts if part is not None)
    if isinstance(node, sa.FuncCall):
        return tuple(node.args)
    if isinstance(node, sa.WindowFunc):
        return (*node.func.args, *node.window.partition_by,
                *(item.expr for item in node.window.order_by))
    return ()


def _collect_aggregates(select: sa.Select) -> list[sa.FuncCall]:
    found: list[sa.FuncCall] = []

    def walk(node, in_window: bool) -> None:
        if isinstance(node, sa.FuncCall) and not in_window \
                and (is_aggregate(node.name) or node.star):
            found.append(node)
            return  # do not descend: nested aggregates unsupported
        in_window = in_window or isinstance(node, sa.WindowFunc)
        for child in _children(node):
            walk(child, in_window)

    exprs = [item.expr for item in select.items if not isinstance(item.expr, sa.Star)]
    if select.having is not None:
        exprs.append(select.having)
    for expr in exprs + [item.expr for item in select.order_by]:
        walk(expr, False)
    return found


def _collect_windows(select: sa.Select) -> list[sa.WindowFunc]:
    found: list[sa.WindowFunc] = []

    def walk(node) -> None:
        if isinstance(node, sa.WindowFunc):
            found.append(node)
            return
        for child in _children(node):
            walk(child)

    for item in select.items:
        if not isinstance(item.expr, sa.Star):
            walk(item.expr)
    for item in select.order_by:
        walk(item.expr)
    return found


def _split_equi_condition(condition: sa.Expr, left: Layout, right: Layout):
    """Split a join condition into hash keys and a residual.

    Returns ([(left_expr, right_expr, null_safe)], residual); with no keys
    the residual is the whole condition, and with keys it is None when
    nothing else is left.
    """
    keys = []
    residual: sa.Expr | None = None
    for conjunct in flatten_and(condition):
        pair = _equi_pair(conjunct, left, right)
        if pair is not None:
            keys.append(pair)
        elif residual is None:
            residual = conjunct
        else:
            residual = sa.BinaryOp("AND", residual, conjunct)
    return (keys, residual) if keys else ([], condition)


def _equi_pair(expr: sa.Expr, left: Layout, right: Layout):
    if not isinstance(expr, sa.BinaryOp) or expr.op not in (
        "=",
        "IS NOT DISTINCT FROM",
    ):
        return None
    sides = []
    for operand in (expr.left, expr.right):
        refs = _column_refs(operand)
        if not refs:
            return None
        in_left = all(left.can_resolve(r) for r in refs)
        in_right = all(right.can_resolve(r) for r in refs)
        if in_left and not in_right:
            sides.append("L")
        elif in_right and not in_left:
            sides.append("R")
        else:
            return None
    null_safe = expr.op == "IS NOT DISTINCT FROM"
    if sides == ["L", "R"]:
        return expr.left, expr.right, null_safe
    if sides == ["R", "L"]:
        return expr.right, expr.left, null_safe
    return None


def _column_refs(expr: sa.Expr) -> list[sa.ColumnRef]:
    if isinstance(expr, sa.ColumnRef):
        return [expr]
    return [ref for child in _children(expr) for ref in _column_refs(child)]


def _apply_set_op(left: Rows, op: str, right: Rows) -> Rows:
    if op == "union all":
        return left + right
    if op == "union":
        return _dedupe(left + right)
    if op in ("intersect", "except"):
        right_set = {tuple(_hashable(v) for v in r) for r in right}
        keep = op == "intersect"
        return [
            r
            for r in _dedupe(left)
            if (tuple(_hashable(v) for v in r) in right_set) == keep
        ]
    raise SqlExecutionError(f"unsupported set operation {op!r}")


def promote_or_left(left: SqlType, right: SqlType) -> SqlType:
    try:
        return promote(left, right)
    except Exception:
        return left
