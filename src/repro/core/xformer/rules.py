"""The stock Xformer rules, one per purpose the paper names.

* :class:`TwoValuedLogicRule` — **correctness**: strict equalities on
  nullable operands become ``IS [NOT] DISTINCT FROM`` so Q's two-valued
  null semantics survive translation (Section 3.3, first bullet).
* :class:`ColumnPruningRule` — **performance**: keep only the columns each
  node actually needs, "to avoid bloating the serialized SQL with
  unnecessary columns" (second bullet).
* :class:`OrderElisionRule` — **transparency**: drop ordering requirements
  under order-insensitive parents, e.g. a scalar aggregation over a nested
  query (third bullet).
* :class:`OrderInjectionRule` — **transparency**: guarantee the final
  result carries and is sorted by an implicit order column, injecting a
  ``row_number`` window when the input has none.
* :class:`ConstantFoldingRule` — housekeeping: folds literal arithmetic.
* :class:`KeyFilterTransferRule` — **performance**: a join's left input
  filtered to one key value filters its right input to that value too,
  under renames and under windows partitioned by the key (the ``aj``
  quotes side below its ``lead``).
"""

from __future__ import annotations

from repro.core.xformer.framework import Rule, XformContext
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    ORDCOL,
    XtraConstTable,
    XtraDistinct,
    XtraFilter,
    XtraGet,
    XtraGroupAgg,
    XtraJoin,
    XtraLimit,
    XtraOp,
    XtraProject,
    XtraSort,
    XtraUnionAll,
    XtraWindow,
)
from repro.core.xtra.scalars import scalar_columns
from repro.sqlengine.types import SqlType

#: aggregates whose result depends on input order; sorts feeding them
#: cannot be elided
_ORDER_SENSITIVE_AGGS = {"first", "last", "array_agg", "string_agg"}


def default_rules() -> list[Rule]:
    return [
        ConstantFoldingRule(),
        TwoValuedLogicRule(),
        KeyFilterTransferRule(),
        FilterMergeRule(),
        OrderElisionRule(),
        ColumnPruningRule(),
        OrderInjectionRule(),
    ]


# ---------------------------------------------------------------------------
# scalar rewriting helpers
# ---------------------------------------------------------------------------


def _map_pairs(pairs, fn):
    """Apply fn to the scalar of each (name, scalar) pair, preserving
    identity when nothing changes (avoids invalidating property caches)."""
    out = []
    changed = False
    for name, scalar in pairs:
        rewritten = fn(scalar)
        changed = changed or rewritten is not scalar
        out.append((name, rewritten))
    return (out, True) if changed else (pairs, False)


def rewrite_scalars(op: XtraOp, fn) -> XtraOp:
    """Apply ``fn`` to every scalar expression of ``op`` (not recursive
    over the relational tree).  Returns ``op`` itself when unchanged."""
    if isinstance(op, XtraProject):
        pairs, changed = _map_pairs(op.projections, fn)
        return XtraProject(op.child, pairs) if changed else op
    if isinstance(op, XtraFilter):
        predicate = fn(op.predicate)
        return XtraFilter(op.child, predicate) if predicate is not op.predicate else op
    if isinstance(op, XtraJoin):
        if op.condition is None:
            return op
        condition = fn(op.condition)
        if condition is op.condition:
            return op
        return XtraJoin(op.kind, op.left, op.right, condition)
    if isinstance(op, XtraGroupAgg):
        keys, keys_changed = _map_pairs(op.group_keys, fn)
        aggs, aggs_changed = _map_pairs(op.aggregates, fn)
        if not (keys_changed or aggs_changed):
            return op
        return XtraGroupAgg(op.child, keys, aggs)
    if isinstance(op, XtraWindow):
        windows, changed = _map_pairs(op.windows, fn)
        return XtraWindow(op.child, windows) if changed else op
    if isinstance(op, XtraSort):
        items = [(fn(s), d) for s, d in op.sort_items]
        if all(a is b for (a, __), (b, __) in zip(items, op.sort_items)):
            return op
        return XtraSort(op.child, items)
    return op


def map_tree(op: XtraOp, fn) -> XtraOp:
    """Bottom-up relational-tree rewrite; preserves node identity (and so
    the per-node property caches) along unchanged branches."""
    children = op.children()
    new_children = [map_tree(c, fn) for c in children]
    if any(a is not b for a, b in zip(children, new_children)):
        op = _rebuild_with_children(op, new_children)
    return fn(op)


def _rebuild_with_children(op: XtraOp, children: list[XtraOp]) -> XtraOp:
    if not children:
        return op
    if isinstance(op, XtraProject):
        return XtraProject(children[0], op.projections)
    if isinstance(op, XtraFilter):
        return XtraFilter(children[0], op.predicate)
    if isinstance(op, XtraJoin):
        return XtraJoin(op.kind, children[0], children[1], op.condition)
    if isinstance(op, XtraGroupAgg):
        return XtraGroupAgg(children[0], op.group_keys, op.aggregates)
    if isinstance(op, XtraWindow):
        return XtraWindow(children[0], op.windows)
    if isinstance(op, XtraSort):
        return XtraSort(children[0], op.sort_items)
    if isinstance(op, XtraLimit):
        return XtraLimit(children[0], op.count, op.offset)
    if isinstance(op, XtraUnionAll):
        return XtraUnionAll(children[0], children[1])
    if isinstance(op, XtraDistinct):
        return XtraDistinct(children[0])
    return op


def rewrite_scalar_tree(scalar: sc.Scalar, fn) -> sc.Scalar:
    """Bottom-up scalar-tree rewrite.  Nodes whose subtrees are unchanged
    are passed to ``fn`` as-is, so an identity ``fn`` costs no allocation —
    important on 500-column projections."""
    if isinstance(scalar, (sc.SConst, sc.SColRef)):
        return fn(scalar)

    node = scalar
    if isinstance(scalar, sc.SArith):
        left = rewrite_scalar_tree(scalar.left, fn)
        right = rewrite_scalar_tree(scalar.right, fn)
        if left is not scalar.left or right is not scalar.right:
            node = sc.SArith(scalar.op, left, right, type_=scalar.type_)
    elif isinstance(scalar, sc.SCmp):
        left = rewrite_scalar_tree(scalar.left, fn)
        right = rewrite_scalar_tree(scalar.right, fn)
        if left is not scalar.left or right is not scalar.right:
            node = sc.SCmp(scalar.op, left, right, null_safe=scalar.null_safe)
    elif isinstance(scalar, sc.SBool):
        args = [rewrite_scalar_tree(a, fn) for a in scalar.args]
        if any(a is not b for a, b in zip(args, scalar.args)):
            node = sc.SBool(scalar.op, args)
    elif isinstance(scalar, sc.SFunc):
        args = [rewrite_scalar_tree(a, fn) for a in scalar.args]
        if any(a is not b for a, b in zip(args, scalar.args)):
            node = sc.SFunc(scalar.name, args, type_=scalar.type_)
    elif isinstance(scalar, sc.SAgg):
        arg = rewrite_scalar_tree(scalar.arg, fn) if scalar.arg else None
        if arg is not scalar.arg:
            node = sc.SAgg(
                scalar.name, arg, type_=scalar.type_, distinct=scalar.distinct
            )
    elif isinstance(scalar, sc.SWindow):
        args = [rewrite_scalar_tree(a, fn) for a in scalar.args]
        partition = [rewrite_scalar_tree(p, fn) for p in scalar.partition_by]
        order = [(rewrite_scalar_tree(e, fn), d) for e, d in scalar.order_by]
        changed = (
            any(a is not b for a, b in zip(args, scalar.args))
            or any(a is not b for a, b in zip(partition, scalar.partition_by))
            or any(a is not b for (a, __), (b, __) in zip(order, scalar.order_by))
        )
        if changed:
            node = sc.SWindow(
                scalar.name, args, partition_by=partition, order_by=order,
                frame=scalar.frame, type_=scalar.type_,
            )
    elif isinstance(scalar, sc.SCast):
        arg = rewrite_scalar_tree(scalar.arg, fn)
        if arg is not scalar.arg:
            node = sc.SCast(arg, scalar.type_)
    elif isinstance(scalar, sc.SCase):
        branches = [
            (rewrite_scalar_tree(c, fn), rewrite_scalar_tree(r, fn))
            for c, r in scalar.branches
        ]
        default = (
            rewrite_scalar_tree(scalar.default, fn) if scalar.default else None
        )
        changed = default is not scalar.default or any(
            a is not c or b is not r
            for (a, b), (c, r) in zip(branches, scalar.branches)
        )
        if changed:
            node = sc.SCase(branches, default, type_=scalar.type_)
    elif isinstance(scalar, sc.SIsNull):
        arg = rewrite_scalar_tree(scalar.arg, fn)
        if arg is not scalar.arg:
            node = sc.SIsNull(arg, scalar.negated)
    elif isinstance(scalar, sc.SIn):
        arg = rewrite_scalar_tree(scalar.arg, fn)
        items = [rewrite_scalar_tree(i, fn) for i in scalar.items]
        if arg is not scalar.arg or any(
            a is not b for a, b in zip(items, scalar.items)
        ):
            node = sc.SIn(arg, items, scalar.negated)
    elif isinstance(scalar, sc.SBetween):
        arg = rewrite_scalar_tree(scalar.arg, fn)
        low = rewrite_scalar_tree(scalar.low, fn)
        high = rewrite_scalar_tree(scalar.high, fn)
        if arg is not scalar.arg or low is not scalar.low or high is not scalar.high:
            node = sc.SBetween(arg, low, high)
    elif isinstance(scalar, sc.SLike):
        arg = rewrite_scalar_tree(scalar.arg, fn)
        if arg is not scalar.arg:
            node = sc.SLike(arg, scalar.pattern)
    return fn(node)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class TwoValuedLogicRule(Rule):
    """= / <> on nullable operands -> IS [NOT] DISTINCT FROM."""

    name = "two_valued_logic"
    purpose = "correctness"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        def fix_scalar(scalar: sc.Scalar) -> sc.Scalar:
            if (
                isinstance(scalar, sc.SCmp)
                and scalar.op in ("=", "<>")
                and not scalar.null_safe
                and (scalar.left.nullable or scalar.right.nullable)
            ):
                ctx.record(self.name)
                return sc.SCmp(
                    scalar.op, scalar.left, scalar.right, null_safe=True
                )
            return scalar

        def fix_op(node: XtraOp) -> XtraOp:
            return rewrite_scalars(
                node, lambda s: rewrite_scalar_tree(s, fix_scalar)
            )

        return map_tree(op, fix_op)


class ConstantFoldingRule(Rule):
    """Fold arithmetic on literal constants."""

    name = "constant_folding"
    purpose = "performance"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        def fold(scalar: sc.Scalar) -> sc.Scalar:
            if (
                isinstance(scalar, sc.SArith)
                and isinstance(scalar.left, sc.SConst)
                and isinstance(scalar.right, sc.SConst)
                and scalar.left.value is not None
                and scalar.right.value is not None
            ):
                left, right = scalar.left.value, scalar.right.value
                try:
                    if scalar.op == "+":
                        value = left + right
                    elif scalar.op == "-":
                        value = left - right
                    elif scalar.op == "*":
                        value = left * right
                    elif scalar.op == "%":
                        value = left / right
                    else:
                        return scalar
                except (TypeError, ZeroDivisionError):
                    return scalar
                ctx.record(self.name)
                return sc.SConst(value, scalar.type_)
            return scalar

        def fix_op(node: XtraOp) -> XtraOp:
            return rewrite_scalars(
                node, lambda s: rewrite_scalar_tree(s, fold)
            )

        return map_tree(op, fix_op)


class FilterMergeRule(Rule):
    """Collapse adjacent filters into one AND-ed predicate.

    Q's sequential where-conjuncts bind as a chain of xtra_filter nodes;
    for row-level predicates the chain is equivalent to a conjunction, and
    merging it halves the subquery nesting in the serialized SQL.
    """

    name = "filter_merge"
    purpose = "performance"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        def fix(node: XtraOp) -> XtraOp:
            if isinstance(node, XtraFilter) and isinstance(node.child, XtraFilter):
                ctx.record(self.name)
                inner = node.child
                combined = sc.SBool("AND", [inner.predicate, node.predicate])
                return fix(XtraFilter(inner.child, combined))
            return node

        return map_tree(op, fix)


class KeyFilterTransferRule(Rule):
    """Copy a join key's constant filter from the left input to the right.

    When an inner or left join equates ``l.k`` with ``r.k'`` (``=`` or
    ``IS NOT DISTINCT FROM``, same type on both sides) and every row of
    its left input has ``k IS NOT DISTINCT FROM c``, no right row with
    ``k'`` distinct from ``c`` can match: the right input is filtered to
    ``k' IS NOT DISTINCT FROM c``.  The filter moves down through renames,
    filters and sorts, and through window functions only when every one
    of them partitions by the key (then it drops whole partitions, and the
    values of the others stay as they were).  For ``aj`` this is the
    symbol filter on the quotes side under its ``lead`` window, which
    PostgreSQL does not derive across ``IS NOT DISTINCT FROM`` by itself.
    """

    name = "key_filter_transfer"
    purpose = "performance"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        def fix(node: XtraOp) -> XtraOp:
            if not isinstance(node, XtraJoin) or node.kind not in ("inner", "left"):
                return node
            right = node.right
            for left_name, right_name in _equi_keys(node):
                left_col = node.left.column(left_name)
                if left_col.sql_type != right.column(right_name).sql_type:
                    continue
                const = _fixed_value(node.left, left_name)
                if const is None:
                    continue
                ctx.record(self.name)
                right = _push_key_filter(right, right_name, const)
            if right is node.right:
                return node
            return XtraJoin(node.kind, node.left, right, node.condition)

        return map_tree(op, fix)


def _conjuncts(scalar: sc.Scalar) -> list[sc.Scalar]:
    if isinstance(scalar, sc.SBool) and scalar.op == "AND":
        return [c for arg in scalar.args for c in _conjuncts(arg)]
    return [scalar]


def _equi_keys(join: XtraJoin) -> list[tuple[str, str]]:
    """(left column, right column) of each equality conjunct of a join."""
    if join.condition is None:
        return []
    pairs = []
    for conjunct in _conjuncts(join.condition):
        if not (isinstance(conjunct, sc.SCmp) and conjunct.op == "="):
            continue
        a, b = conjunct.left, conjunct.right
        if not (isinstance(a, sc.SColRef) and isinstance(b, sc.SColRef)):
            continue
        if join.left.has_column(a.name) and join.right.has_column(b.name):
            pairs.append((a.name, b.name))
        elif join.left.has_column(b.name) and join.right.has_column(a.name):
            pairs.append((b.name, a.name))
    return pairs


def _fixed_value(op: XtraOp, name: str) -> sc.SConst | None:
    """The constant column ``name`` of ``op`` provably equals (IS NOT
    DISTINCT FROM) on every row, if a filter or projection fixes it."""
    if isinstance(op, XtraFilter):
        for conjunct in _conjuncts(op.predicate):
            const = _equated_const(conjunct, name)
            if const is not None:
                return const
        return _fixed_value(op.child, name)
    if isinstance(op, (XtraSort, XtraLimit, XtraDistinct)):
        return _fixed_value(op.child, name)
    if isinstance(op, XtraWindow):
        if any(w == name for w, __ in op.windows):
            return None
        return _fixed_value(op.child, name)
    if isinstance(op, (XtraProject, XtraGroupAgg)):
        pairs = op.projections if isinstance(op, XtraProject) else op.group_keys
        for out, scalar in pairs:
            if out != name:
                continue
            if isinstance(scalar, sc.SConst) and _plain_const(scalar):
                return scalar
            if isinstance(scalar, sc.SColRef):
                return _fixed_value(op.child, scalar.name)
            return None
        return None
    if isinstance(op, XtraJoin) and op.kind in ("inner", "left"):
        if op.left.has_column(name):
            return _fixed_value(op.left, name)
        if op.kind == "inner" and op.right.has_column(name):
            return _fixed_value(op.right, name)
    return None


def _equated_const(conjunct: sc.Scalar, name: str) -> sc.SConst | None:
    """``c`` when ``conjunct`` is ``name = c`` or ``name IS NOT DISTINCT
    FROM c`` (either way round).  A strict ``=`` with NULL holds for no
    row, so it fixes nothing."""
    if not (isinstance(conjunct, sc.SCmp) and conjunct.op == "="):
        return None
    for col, const in ((conjunct.left, conjunct.right),
                       (conjunct.right, conjunct.left)):
        if isinstance(col, sc.SColRef) and col.name == name \
                and isinstance(const, sc.SConst) and _plain_const(const) \
                and (conjunct.null_safe or const.value is not None):
            return const
    return None


def _plain_const(const: sc.SConst) -> bool:
    return const.value == const.value  # NaN equals nothing, itself included


def _push_key_filter(op: XtraOp, name: str, const: sc.SConst) -> XtraOp:
    """``op`` keeping only rows whose ``name`` IS NOT DISTINCT FROM
    ``const``, with the filter as far down as it keeps every other value
    as it was."""
    if isinstance(op, XtraProject):
        source = next((s for out, s in op.projections if out == name), None)
        if isinstance(source, sc.SColRef) \
                and _partitioned_by(op.projections, source.name):
            child = _push_key_filter(op.child, source.name, const)
            return XtraProject(child, op.projections)
    elif isinstance(op, XtraWindow) and _partitioned_by(op.windows, name) \
            and not any(w == name for w, __ in op.windows):
        return XtraWindow(_push_key_filter(op.child, name, const), op.windows)
    elif isinstance(op, XtraFilter):
        return XtraFilter(_push_key_filter(op.child, name, const), op.predicate)
    elif isinstance(op, XtraSort):
        return XtraSort(_push_key_filter(op.child, name, const), op.sort_items)
    col = op.column(name)
    predicate = sc.SCmp(
        "=", sc.SColRef(name, col.sql_type, col.nullable), const, null_safe=True
    )
    return XtraFilter(op, predicate)


def _partitioned_by(pairs: list[tuple[str, sc.Scalar]], name: str) -> bool:
    """Whether every window function among ``pairs`` partitions by the
    column ``name`` (vacuously true without any)."""
    stack = [scalar for __, scalar in pairs]
    while stack:
        scalar = stack.pop()
        if isinstance(scalar, sc.SWindow) and not any(
            isinstance(p, sc.SColRef) and p.name == name
            for p in scalar.partition_by
        ):
            return False
        stack.extend(scalar.children())
    return True


class OrderElisionRule(Rule):
    """Remove sorts feeding order-insensitive aggregations."""

    name = "order_elision"
    purpose = "transparency"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        def strip_sorts(node: XtraOp) -> XtraOp:
            """Remove sorts below an order-insensitive parent, walking
            through order-preserving unary operators."""
            if isinstance(node, XtraSort):
                ctx.record(self.name)
                return strip_sorts(node.child)
            if isinstance(node, XtraProject):
                return XtraProject(strip_sorts(node.child), node.projections)
            if isinstance(node, XtraFilter):
                return XtraFilter(strip_sorts(node.child), node.predicate)
            return node

        def fix(node: XtraOp) -> XtraOp:
            if isinstance(node, XtraGroupAgg):
                sensitive = any(
                    isinstance(s, sc.SAgg) and s.name in _ORDER_SENSITIVE_AGGS
                    for __, s in node.aggregates
                ) or any(
                    w.name in _ORDER_SENSITIVE_AGGS
                    for w in _window_nodes(node)
                )
                if not sensitive:
                    return XtraGroupAgg(
                        strip_sorts(node.child), node.group_keys, node.aggregates
                    )
            if isinstance(node, XtraSort) and isinstance(node.child, XtraSort):
                # outer sort fully determines order: drop the inner one
                ctx.record(self.name)
                return XtraSort(node.child.child, node.sort_items)
            return node

        return map_tree(op, fix)


def _window_nodes(op: XtraGroupAgg) -> list[sc.SWindow]:
    found: list[sc.SWindow] = []

    def walk(scalar: sc.Scalar) -> None:
        if isinstance(scalar, sc.SWindow):
            found.append(scalar)
        for child in scalar.children():
            walk(child)

    for __, scalar in op.group_keys + op.aggregates:
        walk(scalar)
    return found


class ColumnPruningRule(Rule):
    """Prune unused columns top-down (the paper's performance example)."""

    name = "column_pruning"
    purpose = "performance"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        required = {c.name for c in op.columns}
        return self._prune(op, required, ctx)

    def _prune(self, op: XtraOp, required: set[str], ctx: XformContext) -> XtraOp:
        if isinstance(op, XtraGet):
            kept = [c for c in op.output if c.name in required]
            if len(kept) < len(op.output):
                ctx.record(self.name, len(op.output) - len(kept))
            ordcol = op.ordcol if any(c.name == op.ordcol for c in kept) else None
            # keys must stay a subset of the output columns (invariant
            # XI006), so pruned key columns leave the key list too
            kept_names = {c.name for c in kept}
            keys = [k for k in op.keys if k in kept_names]
            return XtraGet(op.table, kept, ordcol=ordcol, keys=keys)
        if isinstance(op, XtraConstTable):
            keep_idx = [
                i for i, c in enumerate(op.output) if c.name in required
            ]
            if len(keep_idx) < len(op.output):
                ctx.record(self.name, len(op.output) - len(keep_idx))
            return XtraConstTable(
                [op.output[i] for i in keep_idx],
                [[row[i] for i in keep_idx] for row in op.rows],
            )
        if isinstance(op, XtraProject):
            kept = [
                (name, scalar)
                for name, scalar in op.projections
                if name in required
            ]
            if len(kept) < len(op.projections):
                ctx.record(self.name, len(op.projections) - len(kept))
            child_required: set[str] = set()
            for __, scalar in kept:
                child_required |= scalar_columns(scalar)
            child = self._prune(op.child, child_required, ctx)
            return XtraProject(child, kept)
        if isinstance(op, XtraFilter):
            child_required = required | scalar_columns(op.predicate)
            return XtraFilter(
                self._prune(op.child, child_required, ctx), op.predicate
            )
        if isinstance(op, XtraJoin):
            needed = set(required)
            if op.condition is not None:
                needed |= scalar_columns(op.condition)
            left_needed = {
                name for name in needed if op.left.has_column(name)
            }
            right_needed = {
                name for name in needed if op.right.has_column(name)
            }
            return XtraJoin(
                op.kind,
                self._prune(op.left, left_needed, ctx),
                self._prune(op.right, right_needed, ctx),
                op.condition,
            )
        if isinstance(op, XtraGroupAgg):
            child_required = set()
            for __, scalar in op.group_keys + op.aggregates:
                child_required |= scalar_columns(scalar)
            return XtraGroupAgg(
                self._prune(op.child, child_required, ctx),
                op.group_keys,
                op.aggregates,
            )
        if isinstance(op, XtraWindow):
            kept_windows = [
                (name, scalar)
                for name, scalar in op.windows
                if name in required
            ]
            child_required = {
                name for name in required
                if not any(w == name for w, __ in op.windows)
            }
            for __, scalar in kept_windows:
                child_required |= scalar_columns(scalar)
            child = self._prune(op.child, child_required, ctx)
            return XtraWindow(child, kept_windows)
        if isinstance(op, XtraSort):
            child_required = set(required)
            for scalar, __ in op.sort_items:
                child_required |= scalar_columns(scalar)
            return XtraSort(
                self._prune(op.child, child_required, ctx), op.sort_items
            )
        if isinstance(op, XtraLimit):
            return XtraLimit(
                self._prune(op.child, required, ctx), op.count, op.offset
            )
        if isinstance(op, XtraUnionAll):
            # positional semantics: pruning through a union would desynchronize
            # the branches; require everything below
            left = self._prune(op.left, {c.name for c in op.left.columns}, ctx)
            right = self._prune(
                op.right, {c.name for c in op.right.columns}, ctx
            )
            return XtraUnionAll(left, right)
        if isinstance(op, XtraDistinct):
            return XtraDistinct(self._prune(op.child, required, ctx))
        return op


class OrderInjectionRule(Rule):
    """Guarantee a deterministic final order (Q's ordered-list contract)."""

    name = "order_injection"
    purpose = "transparency"

    def apply(self, op: XtraOp, ctx: XformContext) -> XtraOp:
        if isinstance(op, (XtraSort, XtraLimit)):
            return op
        order = op.order_column
        if order is not None and op.has_column(order):
            ctx.record(self.name)
            col = op.column(order)
            return XtraSort(op, [(sc.SColRef(col.name, col.sql_type), False)])
        if isinstance(op, XtraGroupAgg) and op.is_scalar_agg:
            return op  # single row; no ordering needed
        # no implicit order column: inject a row_number window
        ctx.record(self.name)
        row_number = sc.SWindow("row_number", [], type_=SqlType.BIGINT)
        windowed = XtraWindow(op, [(ORDCOL, row_number)])
        return XtraSort(
            windowed, [(sc.SColRef(ORDCOL, SqlType.BIGINT, False), False)]
        )
