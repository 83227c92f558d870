"""Binding of Q's select/exec/update/delete templates to XTRA.

The interesting mappings, all grounded in the paper:

* **where** conjuncts become a chain of xtra_filter nodes, preserving q's
  sequential constraint evaluation;
* **by** becomes grouped aggregation followed by a sort on the group keys
  (q returns by-results in ascending key order);
* aggregates mixed with per-row columns broadcast via full-partition
  window functions;
* **update ... by** becomes window functions partitioned by the group
  keys — the Xformer's "inject window functions" device (Section 3.3);
* a scalar aggregation projects a constant order column, exactly like the
  paper's generated SQL (``SELECT 1::int AS ordcol, MAX(Price) ...``).
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.algebrizer.binder import Binder, BoundTable, ColumnContext
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    ORDCOL,
    XtraFilter,
    XtraGroupAgg,
    XtraLimit,
    XtraOp,
    XtraProject,
    XtraSort,
)
from repro.errors import QNotSupportedError, QTypeError
from repro.qlang import ast
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom, QVector
from repro.sqlengine.types import SqlType

FULL_FRAME = "rows between unbounded preceding and unbounded following"


def bind_template(
    binder: Binder, node: ast.Template, needed: set[str] | None = None
) -> BoundTable:
    source = binder.bind_table(node.source, _source_needed(binder, node, needed))
    rel = source.op

    if node.kind == "delete":
        return _bind_delete(binder, node, rel, source)

    for conjunct in node.where:
        ctx = ColumnContext(rel, rel.order_column)
        predicate = binder.bind_scalar(conjunct, ctx)
        if predicate.sql_type != SqlType.BOOLEAN:
            raise QTypeError(
                "where constraint must evaluate to booleans, got "
                f"{predicate.sql_type.value}"
            )
        # window functions (fby, differ, ...) are illegal inside WHERE:
        # lift them into computed columns on the input first
        rel, predicate = _lift_windows(binder, rel, predicate)
        rel = XtraFilter(rel, predicate)

    if node.kind == "select":
        return _bind_select(binder, node, rel, source)
    if node.kind == "exec":
        return _bind_exec(binder, node, rel, source)
    if node.kind == "update":
        return _bind_update(binder, node, rel, source)
    raise QNotSupportedError(f"template kind {node.kind!r}")


def _source_needed(
    binder: Binder, node: ast.Template, needed: set[str] | None
) -> set[str] | None:
    """The names a template can read from its source, or None for all
    of them (a bare ``select``/``update``/``delete`` keeps every column).
    With column pruning off nothing is narrowed, so the unpruned SQL stays
    what that ablation measures."""
    if not binder.config.xformer.column_pruning:
        return None
    if node.kind in ("select", "exec") and node.columns:
        return referenced_names([node.columns, node.by, node.where])
    if node.kind == "select" and not node.by and needed is not None:
        return needed | referenced_names(node.where)
    return None


def referenced_names(nodes: list) -> set[str]:
    """Every identifier and symbol literal under ``nodes``: a superset of
    the columns the expressions there can read."""
    names: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, ast.ColumnSpec):
            stack.append(node.expr)
        elif isinstance(node, ast.Name):
            names.add(node.name)
        elif isinstance(node, ast.Literal):
            value = node.value
            if isinstance(value, (QAtom, QVector)) and value.qtype == QType.SYMBOL:
                names.update([value.value] if isinstance(value, QAtom)
                             else value.items)
        elif isinstance(node, ast.Node):
            stack.extend(getattr(node, f.name) for f in fields(node))
    return names


def _lift_windows(binder: Binder, rel: XtraOp, predicate: sc.Scalar):
    """Replace window subexpressions of a predicate with references to
    freshly computed window columns over ``rel``."""
    from repro.core.xformer.rules import rewrite_scalar_tree
    from repro.core.xtra.ops import XtraWindow

    lifted: list[tuple[str, sc.Scalar]] = []

    def replace(scalar: sc.Scalar) -> sc.Scalar:
        if isinstance(scalar, sc.SWindow):
            name = binder.fresh_name("hq_w")
            lifted.append((name, scalar))
            return sc.SColRef(name, scalar.sql_type)
        return scalar

    rewritten = rewrite_scalar_tree(predicate, replace)
    if not lifted:
        return rel, predicate
    return XtraWindow(rel, lifted), rewritten


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _bind_select(
    binder: Binder, node: ast.Template, rel: XtraOp, source: BoundTable
) -> BoundTable:
    ctx = ColumnContext(rel, rel.order_column)

    if node.by:
        result = _bind_grouped_select(binder, node, rel, ctx)
    elif not node.columns:
        result = BoundTable(rel, keys=source.keys, shape=source.shape)
    else:
        result = _bind_plain_select(binder, node, rel, ctx)

    if node.limit is not None:
        offset, count = _limit_spec(binder, node.limit)
        op = result.op
        order_name = op.order_column
        if order_name is not None:
            order_ctx = ColumnContext(op, order_name)
            if count < 0:
                # select[-n]: the last n rows — take from a descending sort,
                # then restore the ascending implicit order
                descending = XtraSort(
                    op, [(order_ctx.colref(order_name), True)]
                )
                limited = XtraLimit(descending, -count)
                limited_ctx = ColumnContext(limited, order_name)
                op = XtraSort(
                    limited, [(limited_ctx.colref(order_name), False)]
                )
                return BoundTable(op, keys=[], shape="table")
            op = XtraSort(op, [(order_ctx.colref(order_name), False)])
        if count < 0:
            raise QNotSupportedError(
                "select[-n] needs an ordered input (no implicit order column)"
            )
        result = BoundTable(
            XtraLimit(op, count, offset=offset), keys=[], shape="table"
        )
    return result


def _bind_plain_select(
    binder: Binder, node: ast.Template, rel: XtraOp, ctx: ColumnContext
) -> BoundTable:
    specs = [
        (spec.name or ast.infer_column_name(spec.expr),
         binder.bind_scalar(spec.expr, ctx))
        for spec in node.columns
    ]
    has_agg = [bool(_find_aggregates(scalar)) for __, scalar in specs]

    if all(has_agg) and specs:
        # pure scalar aggregation: one row, constant order column
        agg = XtraGroupAgg(rel, [], [(name, scalar) for name, scalar in specs])
        projections = [(ORDCOL, sc.SConst(1, SqlType.INTEGER))] + [
            (name, sc.SColRef(name, scalar.sql_type))
            for name, scalar in specs
        ]
        return BoundTable(XtraProject(_with_ordcol_name(agg), projections))

    if any(has_agg):
        # mixed: broadcast aggregates over the whole input via windows
        specs = [
            (name, _aggregates_to_windows(scalar, partition=[]))
            for name, scalar in specs
        ]

    projections = []
    if ctx.ordcol is not None:
        projections.append((ctx.ordcol, ctx.colref(ctx.ordcol)))
    projections.extend(specs)
    return BoundTable(XtraProject(rel, projections))


def _with_ordcol_name(op: XtraOp) -> XtraOp:
    return op  # scalar aggregation result has no ordcol; projection adds one


def _bind_grouped_select(
    binder: Binder, node: ast.Template, rel: XtraOp, ctx: ColumnContext
) -> BoundTable:
    group_keys = [
        (spec.name or ast.infer_column_name(spec.expr),
         binder.bind_scalar(spec.expr, ctx))
        for spec in node.by
    ]
    if node.columns:
        aggregates = []
        for spec in node.columns:
            name = spec.name or ast.infer_column_name(spec.expr)
            scalar = binder.bind_scalar(spec.expr, ctx)
            if not _find_aggregates(scalar):
                # q keeps the last value per group for non-aggregates
                scalar = sc.SAgg("last", scalar, type_=scalar.sql_type)
            aggregates.append((name, scalar))
    else:
        # `select by a from t` keeps the last row of each group
        aggregates = [
            (col.name, sc.SAgg("last", ctx.colref(col.name), type_=col.sql_type))
            for col in rel.visible_columns
            if col.name not in {name for name, __ in group_keys}
        ]
    agg = XtraGroupAgg(rel, group_keys, aggregates)
    agg_ctx = ColumnContext(agg, None)
    sort_items = [(agg_ctx.colref(name), False) for name, __ in group_keys]
    ordered = XtraSort(agg, sort_items)
    return BoundTable(
        ordered, keys=[name for name, __ in group_keys], shape="keyed"
    )


# ---------------------------------------------------------------------------
# exec
# ---------------------------------------------------------------------------


def _bind_exec(
    binder: Binder, node: ast.Template, rel: XtraOp, source: BoundTable
) -> BoundTable:
    if not node.columns:
        raise QTypeError("exec requires explicit columns")
    ctx = ColumnContext(rel, rel.order_column)
    if node.by:
        if len(node.columns) != 1:
            raise QNotSupportedError("exec ... by supports a single column")
        grouped = _bind_grouped_select(binder, node, rel, ctx)
        return BoundTable(grouped.op, keys=grouped.keys, shape="dict_keyed")
    select_node = ast.Template(
        "select", node.columns, [], node.source, [], pos=node.pos
    )
    plain = _bind_plain_select(binder, select_node, rel, ctx)
    shape = "vector" if len(node.columns) == 1 else "dict"
    if len(node.columns) == 1:
        # `exec max Price from t` yields an atom, not a 1-item vector
        probe = binder.bind_scalar(node.columns[0].expr, ctx)
        if _find_aggregates(probe):
            shape = "atom"
    return BoundTable(plain.op, shape=shape)


# ---------------------------------------------------------------------------
# update / delete
# ---------------------------------------------------------------------------


def _bind_update(
    binder: Binder, node: ast.Template, rel: XtraOp, source: BoundTable
) -> BoundTable:
    ctx = ColumnContext(rel, rel.order_column)
    partition = [binder.bind_scalar(spec.expr, ctx) for spec in node.by]

    updated: dict[str, sc.Scalar] = {}
    for spec in node.columns:
        name = spec.name or ast.infer_column_name(spec.expr)
        scalar = binder.bind_scalar(spec.expr, ctx)
        if node.by:
            scalar = _aggregates_to_windows(scalar, partition)
            scalar = _add_partitions(scalar, partition)
        elif _find_aggregates(scalar):
            scalar = _aggregates_to_windows(scalar, [])
        updated[name] = scalar

    projections: list[tuple[str, sc.Scalar]] = []
    seen = set()
    for col in rel.columns:
        if col.name in updated:
            projections.append((col.name, updated[col.name]))
        else:
            projections.append((col.name, ctx.colref(col.name)))
        seen.add(col.name)
    for name, scalar in updated.items():
        if name not in seen:
            projections.append((name, scalar))
    return BoundTable(
        XtraProject(rel, projections), keys=source.keys, shape=source.shape
    )


def _bind_delete(
    binder: Binder, node: ast.Template, rel: XtraOp, source: BoundTable
) -> BoundTable:
    if node.columns:
        doomed = {
            spec.name or ast.infer_column_name(spec.expr)
            for spec in node.columns
        }
        ctx = ColumnContext(rel, rel.order_column)
        projections = [
            (col.name, ctx.colref(col.name))
            for col in rel.columns
            if col.name not in doomed
        ]
        return BoundTable(
            XtraProject(rel, projections), keys=source.keys, shape=source.shape
        )
    if node.where:
        ctx = ColumnContext(rel, rel.order_column)
        conjuncts = [binder.bind_scalar(c, ctx) for c in node.where]
        combined = conjuncts[0]
        for extra in conjuncts[1:]:
            combined = sc.SBool("AND", [combined, extra])
        # delete keeps rows where the predicate is NOT satisfied; SQL's
        # NOT(x) drops NULL rows, so wrap with a null-safe complement
        keep = sc.SBool(
            "OR",
            [sc.SBool("NOT", [combined]), sc.SIsNull(combined)],
        )
        return BoundTable(
            XtraFilter(rel, keep), keys=source.keys, shape=source.shape
        )
    raise QNotSupportedError("delete without columns or constraints")


# ---------------------------------------------------------------------------
# aggregate handling
# ---------------------------------------------------------------------------


def _find_aggregates(scalar: sc.Scalar) -> list[sc.SAgg]:
    found: list[sc.SAgg] = []

    def walk(node: sc.Scalar, in_window: bool) -> None:
        if isinstance(node, sc.SWindow):
            for child in node.children():
                walk(child, True)
            return
        if isinstance(node, sc.SAgg):
            if not in_window:
                found.append(node)
            if node.arg is not None:
                walk(node.arg, in_window)
            return
        for child in node.children():
            walk(child, in_window)

    walk(scalar, False)
    return found


def _aggregates_to_windows(
    scalar: sc.Scalar, partition: list[sc.Scalar]
) -> sc.Scalar:
    """Replace aggregates with full-partition window equivalents so they
    broadcast over rows (q's mixed select / update-by semantics)."""
    if isinstance(scalar, sc.SAgg):
        return sc.SWindow(
            scalar.name,
            [scalar.arg] if scalar.arg is not None else [],
            partition_by=list(partition),
            frame=FULL_FRAME,
            type_=scalar.sql_type,
        )
    for attr in ("left", "right", "arg"):
        if hasattr(scalar, attr):
            child = getattr(scalar, attr)
            if isinstance(child, sc.Scalar):
                setattr(scalar, attr, _aggregates_to_windows(child, partition))
    if isinstance(scalar, (sc.SBool, sc.SFunc)):
        scalar.args = [_aggregates_to_windows(a, partition) for a in scalar.args]
    if isinstance(scalar, sc.SCase):
        scalar.branches = [
            (
                _aggregates_to_windows(c, partition),
                _aggregates_to_windows(r, partition),
            )
            for c, r in scalar.branches
        ]
        if scalar.default is not None:
            scalar.default = _aggregates_to_windows(scalar.default, partition)
    return scalar


def _add_partitions(scalar: sc.Scalar, partition: list[sc.Scalar]) -> sc.Scalar:
    """Add group-key partitions to window functions bound inside an
    ``update ... by`` (e.g. ``sums Size by Symbol``)."""
    if isinstance(scalar, sc.SWindow) and not scalar.partition_by:
        scalar.partition_by = list(partition)
    for child in scalar.children():
        _add_partitions(child, partition)
    return scalar


def _limit_spec(binder: Binder, node: ast.Node) -> tuple[int, int]:
    """Parse select[...]'s limit literal into (offset, count).

    ``select[n]`` -> (0, n); ``select[-n]`` -> (0, -n) (last-n marker);
    ``select[offset count]`` -> (offset, count).
    """
    from repro.core.algebrizer.binder import _const_value

    value = _const_value(node)
    if value is None:
        raise QNotSupportedError("select[n] limit must be a literal")
    if isinstance(value, QVector) and len(value) == 2:
        return int(value.items[0]), int(value.items[1])
    if isinstance(value, QAtom) and value.qtype.is_integral:
        return 0, int(value.value)
    raise QTypeError("select[n] limit must be an integer or a pair")


def aggregate_over_table(binder: Binder, name: str, bound: BoundTable) -> BoundTable:
    """Bind ``avg exec Price from t`` style aggregates over a bound table."""
    from repro.core.algebrizer.binder import _AGGREGATE_NAMES

    op = bound.op
    visible = op.visible_columns
    if name == "count":
        agg = XtraGroupAgg(
            op, [], [("count", sc.SAgg("count", None, type_=SqlType.BIGINT))]
        )
        return BoundTable(agg, shape="atom")
    if len(visible) != 1:
        raise QTypeError(
            f"aggregate {name!r} over a table needs exactly one column, "
            f"found {len(visible)}"
        )
    sql_name, forced = _AGGREGATE_NAMES[name]
    col = visible[0]
    scalar = sc.SAgg(
        sql_name,
        sc.SColRef(col.name, col.sql_type),
        type_=forced or col.sql_type,
    )
    agg = XtraGroupAgg(op, [], [(col.name, scalar)])
    return BoundTable(agg, shape="atom")
