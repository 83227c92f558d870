"""Lowering of Q join verbs to XTRA.

The centerpiece is the as-of join: per the paper (Section 3.2.2, Figure 2)
``aj`` is "bound to a left outer join operator that computes a window
function on its right input.  The results need to be ordered at the end to
conform with Q ordered lists model."  Concretely the right input gains a
``lead(time)`` validity horizon per equality group, the join condition
checks ``r.time <= l.time < r.next_time``, and a final sort restores the
left table's implicit order.
"""

from __future__ import annotations

from repro.core.algebrizer.binder import (
    Binder,
    BoundTable,
    _const_value,
    _symbol_names,
)
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    ORDCOL,
    XtraColumn,
    XtraJoin,
    XtraOp,
    XtraProject,
    XtraSort,
    XtraUnionAll,
    XtraWindow,
)
from repro.errors import (
    QNotSupportedError,
    QRankError,
    QTypeError,
    ReproError,
)
from repro.qlang import ast
from repro.sqlengine.types import SqlType


def bind_join_call(
    binder: Binder, node: ast.Apply, needed: set[str] | None = None
) -> BoundTable:
    name = node.func.name  # type: ignore[union-attr]
    args = [a for a in node.args if a is not None]
    if name in ("aj", "aj0"):
        if len(args) != 3:
            raise QRankError(f"{name} expects 3 arguments: columns, left, right")
        columns = _symbol_names(_const_value(args[0]), name)
        left = binder.bind_table(args[1], _plus(needed, columns))
        right = binder.bind_table(args[2], _plus(needed, columns))
        return bind_asof_join(
            binder, columns, left, right, use_right_time=(name == "aj0"),
            needed=needed,
        )
    if name == "ej":
        if len(args) != 3:
            raise QRankError("ej expects 3 arguments: columns, left, right")
        columns = _symbol_names(_const_value(args[0]), "ej")
        left = binder.bind_table(args[1], _plus(needed, columns))
        right = binder.bind_table(args[2], _plus(needed, columns))
        return bind_equi_join(binder, columns, left, right, needed)
    raise QNotSupportedError(f"join verb {name!r}")


def bind_infix_join(
    binder: Binder, node: ast.BinOp, needed: set[str] | None = None
) -> BoundTable:
    if node.op == "uj":  # positional: every column of both sides
        left = binder.bind_table(node.left)
        return bind_union_join(binder, left, binder.bind_table(node.right))
    # a named keyed table binds first (that issues no fresh names), so the
    # left side learns the key columns it must keep; a failure there is
    # raised again below, after the left side's own errors
    right = None
    if needed is not None and isinstance(node.right, ast.Name):
        try:
            right = binder.bind_table(node.right)
        except ReproError:
            right = None
    left_needed = _plus(needed, right.keys) if right is not None else None
    left = binder.bind_table(node.left, left_needed)
    if right is None:
        right = binder.bind_table(node.right)
    if not right.keys:
        raise QTypeError(f"{node.op} expects a keyed table on the right")
    if node.op == "lj":
        return bind_keyed_join(binder, left, right, "left", needed)
    if node.op == "ij":
        return bind_keyed_join(binder, left, right, "inner", needed)
    raise QNotSupportedError(f"join verb {node.op!r}")


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------


def bind_asof_join(
    binder: Binder,
    columns: list[str],
    left: BoundTable,
    right: BoundTable,
    use_right_time: bool = False,
    needed: set[str] | None = None,
) -> BoundTable:
    if not columns:
        raise QTypeError("aj needs at least one join column")
    eq_cols, asof_col = columns[:-1], columns[-1]
    left_op, right_op = left.op, right.op
    for name in columns:
        if not left_op.has_column(name) or not right_op.has_column(name):
            raise QTypeError(
                f"aj join column {name!r} missing from an input "
                f"(property check during binding, Section 3.2.2)"
            )

    prefix = binder.fresh_name("hq_r")
    right_kept = [
        c for c in right_op.columns
        if c.name in columns or _wanted(needed, c.name)
    ]
    renamed = {c.name: f"{prefix}_{c.name}" for c in right_kept}
    next_col = f"{prefix}__next"

    # window on the right input: validity horizon per equality group
    asof_ref = _colref(right_op.column(asof_col))
    order_by: list[tuple[sc.Scalar, bool]] = [(asof_ref, False)]
    if right_op.order_column is not None:
        order_by.append((_colref(right_op.column(right_op.order_column)), False))
    lead = sc.SWindow(
        "lead",
        [asof_ref],
        partition_by=[_colref(right_op.column(c)) for c in eq_cols],
        order_by=order_by,
        type_=asof_ref.sql_type,
    )
    windowed = XtraWindow(right_op, [(next_col, lead)])

    # rename right columns to avoid collisions with the left input
    rename_projections = [(renamed[c.name], _colref(c)) for c in right_kept]
    rename_projections.append(
        (next_col, sc.SColRef(next_col, asof_ref.sql_type))
    )
    right_renamed = XtraProject(windowed, rename_projections)

    # join condition: equality on the leading columns, as-of on the last
    condition: sc.Scalar | None = None
    for name in eq_cols:
        left_col = left_op.column(name)
        clause: sc.Scalar = sc.SCmp(
            "=", _colref(left_col), sc.SColRef(renamed[name], left_col.sql_type)
        )
        condition = clause if condition is None else sc.SBool(
            "AND", [condition, clause]
        )
    left_time = _colref(left_op.column(asof_col))
    right_time = sc.SColRef(renamed[asof_col], left_time.sql_type)
    next_ref = sc.SColRef(next_col, left_time.sql_type)
    asof_clause = sc.SBool(
        "AND",
        [
            sc.SCmp("<=", right_time, left_time),
            sc.SBool(
                "OR",
                [sc.SCmp("<", left_time, next_ref), sc.SIsNull(next_ref)],
            ),
        ],
    )
    condition = asof_clause if condition is None else sc.SBool(
        "AND", [condition, asof_clause]
    )

    join = XtraJoin("left", left_op, right_renamed, condition)

    # output: left columns, then right payload columns not present in left
    left_order = left_op.order_column
    projections = [
        (c.name, _colref(c)) for c in left_op.columns
        if c.name == left_order or _wanted(needed, c.name)
    ]
    for c in right_kept:
        if c.name in columns or left_op.has_column(c.name):
            continue
        if c.name == right_op.order_column:
            continue
        projections.append((c.name, sc.SColRef(renamed[c.name], c.sql_type)))
    if use_right_time:
        projections = [
            (name, scalar)
            if name != asof_col
            else (name, sc.SColRef(renamed[asof_col], left_time.sql_type))
            for name, scalar in projections
        ]
    project = XtraProject(join, projections)
    return BoundTable(_restore_order(project, left_op), shape="table")


# ---------------------------------------------------------------------------
# keyed joins (lj / ij)
# ---------------------------------------------------------------------------


def bind_keyed_join(
    binder: Binder,
    left: BoundTable,
    right: BoundTable,
    kind: str,
    needed: set[str] | None = None,
) -> BoundTable:
    left_op, right_op = left.op, right.op
    keys = right.keys
    for name in keys:
        if not left_op.has_column(name):
            raise QTypeError(f"join key column {name!r} missing from left table")

    prefix = binder.fresh_name("hq_r")
    right_kept = [
        c for c in right_op.columns if c.name in keys or _wanted(needed, c.name)
    ]
    renamed = {c.name: f"{prefix}_{c.name}" for c in right_kept}
    match_col = f"{prefix}__match"
    rename_projections = [(renamed[c.name], _colref(c)) for c in right_kept]
    rename_projections.append((match_col, sc.SConst(1, SqlType.INTEGER)))
    right_renamed = XtraProject(right_op, rename_projections)

    condition: sc.Scalar | None = None
    for name in keys:
        left_col = left_op.column(name)
        clause: sc.Scalar = sc.SCmp(
            "=", _colref(left_col), sc.SColRef(renamed[name], left_col.sql_type)
        )
        condition = clause if condition is None else sc.SBool(
            "AND", [condition, clause]
        )

    join = XtraJoin(kind, left_op, right_renamed, condition)

    value_columns = [
        c for c in right_kept
        if c.name not in keys and c.name != right_op.order_column
    ]
    value_names = {c.name for c in value_columns}
    left_order = left_op.order_column
    projections: list[tuple[str, sc.Scalar]] = []
    for c in left_op.columns:
        if c.name != left_order and not _wanted(needed, c.name):
            continue
        if c.name in value_names:
            right_ref = sc.SColRef(renamed[c.name], c.sql_type)
            if kind == "left":
                # matched rows take the right value, unmatched keep the left
                match_ref = sc.SColRef(match_col, SqlType.INTEGER)
                scalar: sc.Scalar = sc.SCase(
                    [(sc.SIsNull(match_ref, negated=True), right_ref)],
                    _colref(c),
                    type_=c.sql_type,
                )
            else:
                scalar = right_ref
            projections.append((c.name, scalar))
        else:
            projections.append((c.name, _colref(c)))
    existing = {name for name, __ in projections}
    for c in value_columns:
        if c.name not in existing:
            projections.append(
                (c.name, sc.SColRef(renamed[c.name], c.sql_type))
            )
    project = XtraProject(join, projections)
    return BoundTable(_restore_order(project, left_op), shape="table")


# ---------------------------------------------------------------------------
# equi join (ej)
# ---------------------------------------------------------------------------


def bind_equi_join(
    binder: Binder,
    columns: list[str],
    left: BoundTable,
    right: BoundTable,
    needed: set[str] | None = None,
) -> BoundTable:
    left_op, right_op = left.op, right.op
    for name in columns:
        if not left_op.has_column(name) or not right_op.has_column(name):
            raise QTypeError(f"ej join column {name!r} missing from an input")
    prefix = binder.fresh_name("hq_r")
    left_order = left_op.order_column
    right_kept = [
        c for c in right_op.columns
        if c.name in columns or c.name == left_order or _wanted(needed, c.name)
    ]
    renamed = {c.name: f"{prefix}_{c.name}" for c in right_kept}
    right_renamed = XtraProject(
        right_op, [(renamed[c.name], _colref(c)) for c in right_kept]
    )
    condition: sc.Scalar | None = None
    for name in columns:
        left_col = left_op.column(name)
        clause: sc.Scalar = sc.SCmp(
            "=", _colref(left_col), sc.SColRef(renamed[name], left_col.sql_type)
        )
        condition = clause if condition is None else sc.SBool(
            "AND", [condition, clause]
        )
    join = XtraJoin("inner", left_op, right_renamed, condition)
    projections: list[tuple[str, sc.Scalar]] = []
    for c in left_op.columns:
        if c.name != left_order and not _wanted(needed, c.name):
            continue
        if c.name not in columns and right_op.has_column(c.name) and \
                c.name != right_op.order_column:
            projections.append(
                (c.name, sc.SColRef(renamed[c.name], c.sql_type))
            )
        else:
            projections.append((c.name, _colref(c)))
    existing = {name for name, __ in projections}
    for c in right_kept:
        if c.name in columns or c.name in existing or c.name == right_op.order_column:
            continue
        projections.append((c.name, sc.SColRef(renamed[c.name], c.sql_type)))
    project = XtraProject(join, projections)
    return BoundTable(_restore_order(project, left_op), shape="table")


# ---------------------------------------------------------------------------
# union join (uj)
# ---------------------------------------------------------------------------


def bind_union_join(
    binder: Binder, left: BoundTable, right: BoundTable
) -> BoundTable:
    left_op, right_op = left.op, right.op
    left_visible = [c for c in left_op.columns if not c.implicit]
    right_visible = [c for c in right_op.columns if not c.implicit]
    left_names = {c.name for c in left_visible}
    names = [c.name for c in left_visible] + [
        c.name for c in right_visible if c.name not in left_names
    ]
    side_col = binder.fresh_name("hq_side_")
    sub_order = binder.fresh_name("hq_sub_")

    types_by_name: dict[str, SqlType] = {}
    for c in right_visible + left_visible:  # left wins on collisions
        types_by_name[c.name] = c.sql_type

    def _type_of(name: str) -> SqlType:
        return types_by_name.get(name, SqlType.BIGINT)

    def pad(op: XtraOp, side: int) -> XtraOp:
        projections: list[tuple[str, sc.Scalar]] = []
        for name in names:
            if op.has_column(name):
                projections.append((name, _colref(op.column(name))))
            else:
                projections.append((name, sc.SConst(None, _type_of(name))))
        projections.append((side_col, sc.SConst(side, SqlType.INTEGER)))
        order = op.order_column
        if order is not None:
            projections.append((sub_order, _colref(op.column(order))))
        else:
            projections.append((sub_order, sc.SConst(0, SqlType.BIGINT)))
        return XtraProject(op, projections)

    union = XtraUnionAll(pad(left_op, 0), pad(right_op, 1))

    # regenerate the implicit order: left rows first, then right rows
    union_cols = {c.name: c for c in union.columns}
    row_number = sc.SWindow(
        "row_number",
        [],
        order_by=[
            (_colref(union_cols[side_col]), False),
            (_colref(union_cols[sub_order]), False),
        ],
        type_=SqlType.BIGINT,
    )
    windowed = XtraWindow(union, [(ORDCOL, row_number)])
    final_projections = [(ORDCOL, sc.SColRef(ORDCOL, SqlType.BIGINT, False))]
    for name in names:
        col = union_cols[name]
        final_projections.append((name, _colref(col)))
    project = XtraProject(windowed, final_projections)
    ordered = XtraSort(project, [(sc.SColRef(ORDCOL, SqlType.BIGINT), False)])
    return BoundTable(ordered, shape="table")


def _wanted(needed: set[str] | None, name: str) -> bool:
    return needed is None or name in needed


def _plus(needed: set[str] | None, names) -> set[str] | None:
    return None if needed is None else needed | set(names)


def _colref(col: XtraColumn) -> sc.SColRef:
    return sc.SColRef(col.name, col.sql_type, col.nullable)


def _restore_order(op: XtraOp, left_op: XtraOp) -> XtraOp:
    """Sort by the left input's implicit order column (paper: 'results need
    to be ordered at the end to conform with Q ordered lists model')."""
    order = left_op.order_column
    if order is None or not op.has_column(order):
        return op
    col = op.column(order)
    return XtraSort(op, [(sc.SColRef(col.name, col.sql_type), False)])
