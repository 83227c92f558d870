"""XTRA invariant checker (``XI00x``).

Every pipeline pass must hand its successor a *well-formed* XTRA tree:
derivable output columns, an order column that exists, scalar column
references that resolve against the correct input, boolean predicates,
and structurally valid operators.  The Xformer rebuilds trees wholesale,
so a buggy rewrite rule tends to corrupt trees in ways the serializer
only trips over much later — the pipeline runs :func:`check_operator_tree`
after each pass (``AnalysisConfig.enabled``) and attributes any
violation to the pass that *produced* the broken tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.xtra import ops
from repro.core.xtra import scalars as sc
from repro.sqlengine.types import SqlType


@dataclass
class InvariantViolation:
    """One broken invariant on one operator node."""

    code: str
    message: str
    operator: str

    def render(self) -> str:
        return f"{self.code} at {self.operator}: {self.message}"


def _input_column_names(op: ops.XtraOp) -> set[str]:
    """Column names an operator's scalar expressions may reference."""
    names: set[str] = set()
    for child in op.children():
        names.update(c.name for c in child.columns)
    return names


def _check_scalar_refs(
    label: str,
    scalar: sc.Scalar,
    available: set[str],
    op_name: str,
    out: list[InvariantViolation],
) -> None:
    unresolved = sorted(sc.scalar_columns(scalar) - available)
    if unresolved:
        out.append(
            InvariantViolation(
                "XI003",
                f"{label} references column(s) {unresolved} not produced "
                f"by the operator's input",
                op_name,
            )
        )


def _node_violations(op: ops.XtraOp) -> list[InvariantViolation]:
    out: list[InvariantViolation] = []
    op_name = type(op).__name__

    # XI001: output columns must be derivable, and leaf schemas must not
    # declare the same name twice (joins pre-rename, so only leaves and
    # projections can legally collide — and those collisions are bugs)
    try:
        columns = op.columns
    except Exception as exc:
        out.append(
            InvariantViolation(
                "XI001", f"column derivation failed: {exc}", op_name
            )
        )
        return out  # nothing below is checkable without a schema
    names = [c.name for c in columns]
    if isinstance(op, (ops.XtraGet, ops.XtraConstTable)):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            out.append(
                InvariantViolation(
                    "XI001",
                    f"duplicate output column name(s) {duplicates}",
                    op_name,
                )
            )

    # XI002: a derived order column must be one of the output columns
    order = op.order_column
    if order is not None and order not in names:
        out.append(
            InvariantViolation(
                "XI002",
                f"order column {order!r} is not among the output "
                f"columns {names}",
                op_name,
            )
        )

    # XI003: scalar column references resolve against the right input
    available = _input_column_names(op)
    if isinstance(op, ops.XtraProject):
        for name, scalar in op.projections:
            _check_scalar_refs(
                f"projection {name!r}", scalar, available, op_name, out
            )
    elif isinstance(op, ops.XtraFilter):
        _check_scalar_refs(
            "filter predicate", op.predicate, available, op_name, out
        )
    elif isinstance(op, ops.XtraJoin):
        if op.condition is not None:
            _check_scalar_refs(
                "join condition", op.condition, available, op_name, out
            )
    elif isinstance(op, ops.XtraGroupAgg):
        for name, scalar in op.group_keys:
            _check_scalar_refs(
                f"group key {name!r}", scalar, available, op_name, out
            )
        for name, scalar in op.aggregates:
            _check_scalar_refs(
                f"aggregate {name!r}", scalar, available, op_name, out
            )
    elif isinstance(op, ops.XtraWindow):
        for name, scalar in op.windows:
            _check_scalar_refs(
                f"window column {name!r}", scalar, available, op_name, out
            )
    elif isinstance(op, ops.XtraSort):
        for scalar, __ in op.sort_items:
            _check_scalar_refs(
                "sort item", scalar, available, op_name, out
            )

    # XI004: filters and join conditions must be boolean-typed
    predicate = None
    if isinstance(op, ops.XtraFilter):
        predicate = op.predicate
    elif isinstance(op, ops.XtraJoin):
        predicate = op.condition
    if predicate is not None and predicate.sql_type not in (
        SqlType.BOOLEAN,
        SqlType.NULL,
    ):
        out.append(
            InvariantViolation(
                "XI004",
                f"predicate has scalar type {predicate.sql_type.name}, "
                "expected BOOLEAN",
                op_name,
            )
        )

    # XI005: structural validity per operator
    if isinstance(op, ops.XtraJoin) and op.kind not in (
        "inner", "left", "cross"
    ):
        out.append(
            InvariantViolation(
                "XI005", f"unknown join kind {op.kind!r}", op_name
            )
        )
    if isinstance(op, ops.XtraUnionAll):
        left = [c for c in op.left.columns if not c.implicit]
        right = [c for c in op.right.columns if not c.implicit]
        if len(left) != len(right):
            out.append(
                InvariantViolation(
                    "XI005",
                    f"union inputs have {len(left)} vs {len(right)} "
                    "visible columns",
                    op_name,
                )
            )
    if isinstance(op, ops.XtraConstTable):
        width = len(op.output)
        bad = [i for i, row in enumerate(op.rows) if len(row) != width]
        if bad:
            out.append(
                InvariantViolation(
                    "XI005",
                    f"row(s) {bad} do not match the declared width "
                    f"{width}",
                    op_name,
                )
            )
    if isinstance(op, ops.XtraLimit) and (op.count < 0 or op.offset < 0):
        out.append(
            InvariantViolation(
                "XI005",
                f"negative limit/offset ({op.count}, {op.offset})",
                op_name,
            )
        )

    # XI006: declared keys must be real output columns
    if isinstance(op, ops.XtraGet):
        missing = sorted(set(op.keys) - set(names))
        if missing:
            out.append(
                InvariantViolation(
                    "XI006",
                    f"key column(s) {missing} are not in the output",
                    op_name,
                )
            )
    return out


def check_operator_tree(op: ops.XtraOp) -> list[InvariantViolation]:
    """All invariant violations anywhere in the tree, pre-order."""
    out: list[InvariantViolation] = []
    for node in ops.walk(op):
        out.extend(_node_violations(node))
    return out
