"""The binder: Q AST -> XTRA (paper Section 3.2.2).

Binding is bottom-up: for each operator the binder binds the inputs,
derives and checks their properties, then maps the operator to its XTRA
representation.  Variable references resolve through the scope hierarchy
and the metadata interface; literals map to typed constants (ints to
integer types, symbols to varchar, strings to text).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.config import HyperQConfig
from repro.core.metadata import MetadataInterface, TableMeta
from repro.core.scopes import Scope, VarKind
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    ORDCOL,
    XtraColumn,
    XtraConstTable,
    XtraGet,
    XtraOp,
    XtraProject,
    XtraSort,
    XtraWindow,
)
from repro.errors import QNameError, QNotSupportedError, QRankError, QTypeError
from repro.qlang import ast
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom, QList, QValue, QVector
from repro.sqlengine.types import SqlType, promote


@dataclass
class BoundTable:
    """A bound relational expression."""

    op: XtraOp
    #: key column names when the Q value is a keyed table
    keys: list[str] = field(default_factory=list)
    #: how the Q application expects the result shaped:
    #: 'table' | 'keyed' | 'vector' | 'dict' | 'atom'
    shape: str = "table"


@dataclass
class BoundScalar:
    """A bound scalar expression (no relation input)."""

    scalar: sc.Scalar


Bound = BoundTable | BoundScalar


class ColumnContext:
    """Columns visible while binding a template expression."""

    def __init__(self, op: XtraOp, ordcol: str | None):
        self.op = op
        self.ordcol = ordcol

    def has(self, name: str) -> bool:
        return self.op.has_column(name)

    def colref(self, name: str) -> sc.SColRef:
        col = self.op.column(name)
        return sc.SColRef(name, col.sql_type, col.nullable)


class Binder:
    """Binds parsed Q ASTs to XTRA using scopes + MDI."""

    def __init__(
        self,
        mdi: MetadataInterface,
        scope: Scope,
        config: HyperQConfig | None = None,
    ):
        self.mdi = mdi
        self.scope = scope
        self.config = config or HyperQConfig()
        self._name_counter = itertools.count(1)
        #: id(renumbered sort) -> (that tree, the same sort without the
        #: renumbering), for a sort that turns out to be a result's root
        self._plain_sorts: dict[int, tuple[XtraOp, XtraOp]] = {}

    def fresh_name(self, prefix: str = "hq_col_") -> str:
        return f"{prefix}{next(self._name_counter)}"

    # -- entry points -----------------------------------------------------------

    def bind(self, node: ast.Node, result: bool = False) -> Bound:
        """Bind an expression statement to either a table or a scalar.

        ``result`` marks a read whose rows go straight back to the client.
        A sort at its root then stays a plain sort: nothing reads its order
        column, and the final ORDER BY is the sort's own keys (on a sharded
        backend, a scatter with an ordered merge instead of a gather).
        Assignments and inserts bind with ``result=False``: their rows are
        stored in ``ordcol`` order, which a sort must renumber.
        """
        if _is_table_shaped(node):
            bound = self.bind_table(node)
            ordered, plain = self._plain_sorts.get(id(bound.op), (None, None))
            if result and ordered is bound.op:
                return BoundTable(plain, keys=bound.keys, shape=bound.shape)
            return bound
        # aggregate applied to a table expression: `avg exec Price from t`
        agg_call = self._as_table_aggregate(node)
        if agg_call is not None:
            from repro.core.algebrizer.templates import aggregate_over_table

            name, operand = agg_call
            return aggregate_over_table(self, name, self.bind_table(operand))
        # try scalar first; fall back to table for variables
        if isinstance(node, ast.Name):
            definition = self.scope.lookup(node.name)
            if definition is not None and definition.kind in (
                VarKind.TABLE,
                VarKind.VIEW,
            ):
                return self.bind_table(node)
            if definition is not None and definition.kind == VarKind.SCALAR:
                return BoundScalar(self.bind_literal(definition.value))
            meta = self.mdi.lookup_table(node.name)
            if meta is not None:
                return self.bind_table(node)
            raise QNameError(
                f"undefined variable {node.name!r} (searched local, session "
                f"and server scopes, then the backend catalog)"
            )
        scalar = self.bind_scalar(node, None)
        return BoundScalar(scalar)

    # -- table expressions --------------------------------------------------------

    def bind_table(
        self, node: ast.Node, needed: set[str] | None = None
    ) -> BoundTable:
        """Bind a table expression.  ``needed``, when given, holds every
        name the consumer can read from the result: a join then builds its
        renames and output only over those columns (plus its keys and
        order column), so binding it costs what the query reads rather
        than what the tables hold.  ``None`` means every column."""
        from repro.core.algebrizer import joins as join_binding
        from repro.core.algebrizer import templates as template_binding

        if isinstance(node, ast.Template):
            return template_binding.bind_template(self, node, needed)
        if isinstance(node, ast.Name):
            return self._bind_table_name(node.name)
        if isinstance(node, ast.TableExpr):
            return self._bind_table_literal(node)
        if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
            if node.func.name in ("aj", "aj0", "ej"):
                return join_binding.bind_join_call(self, node, needed)
        if isinstance(node, ast.BinOp) and node.op in ("lj", "ij", "uj"):
            return join_binding.bind_infix_join(self, node, needed)
        if isinstance(node, ast.BinOp) and node.op in ("xasc", "xdesc"):
            return self._bind_sort(node)
        if isinstance(node, ast.BinOp) and node.op == "xkey":
            return self._bind_xkey(node)
        if isinstance(node, ast.BinOp) and node.op == "!":
            return self._bind_bang_key(node)
        if isinstance(node, ast.UnOp) and node.op == "!":
            raise QNotSupportedError("monadic ! on tables")
        if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
            name = node.func.name
            if name == "value" or name == "get":
                return self.bind_table(node.args[0])
        raise QNotSupportedError(
            f"cannot bind {ast.node_name(node)} as a table expression; "
            f"this Q construct is outside the supported surface"
        )

    def _bind_table_name(self, name: str) -> BoundTable:
        definition = self.scope.lookup(name)
        if definition is not None:
            if definition.kind in (VarKind.TABLE, VarKind.VIEW):
                meta = definition.meta or self.mdi.require_table(
                    definition.relation or name
                )
                return BoundTable(
                    _get_from_meta(meta, definition.relation or name),
                    keys=list(meta.keys),
                    shape=definition.shape
                    or ("keyed" if meta.keys else "table"),
                )
            if definition.kind == VarKind.SCALAR:
                raise QTypeError(
                    f"variable {name!r} holds a scalar, not a table"
                )
            if definition.kind == VarKind.FUNCTION:
                raise QTypeError(f"variable {name!r} is a function, not a table")
        meta = self.mdi.lookup_table(name)
        if meta is None:
            raise QNameError(
                f"undefined table {name!r} (searched local, session and "
                f"server scopes, then the backend catalog)"
            )
        return BoundTable(
            _get_from_meta(meta, name),
            keys=list(meta.keys),
            shape="keyed" if meta.keys else "table",
        )

    def _bind_table_literal(self, node: ast.TableExpr) -> BoundTable:
        all_specs = node.key_columns + node.columns
        names = [name for name, __ in all_specs]
        value_columns: list[list] = []
        sql_types: list[SqlType] = []
        length = None
        for __, expr in all_specs:
            values, sql_type = self._literal_column(expr)
            value_columns.append(values)
            sql_types.append(sql_type)
            if length is None or len(values) > length:
                length = len(values)
        length = length or 0
        rows = []
        for i in range(length):
            row = []
            for values in value_columns:
                if len(values) == 1:
                    row.append(values[0])
                elif i < len(values):
                    row.append(values[i])
                else:
                    raise QTypeError("table literal columns differ in length")
            row.append(i)  # implicit ordcol
            rows.append(row)
        columns = [
            XtraColumn(name, sql_type)
            for name, sql_type in zip(names, sql_types)
        ]
        columns.append(XtraColumn(ORDCOL, SqlType.BIGINT, False, implicit=True))
        op = XtraConstTable(columns, rows)
        keys = [name for name, __ in node.key_columns]
        return BoundTable(op, keys=keys, shape="keyed" if keys else "table")

    def _literal_column(self, expr: ast.Node) -> tuple[list, SqlType]:
        value = _const_value(expr)
        if value is None and isinstance(expr, (ast.UnOp, ast.Apply)):
            # `enlist <literal>` is a common row-construction idiom
            inner = None
            if isinstance(expr, ast.UnOp) and expr.op == "enlist":
                inner = _const_value(expr.operand)
            elif (
                isinstance(expr, ast.Apply)
                and isinstance(expr.func, ast.Name)
                and expr.func.name == "enlist"
                and len(expr.args) == 1
                and expr.args[0] is not None
            ):
                inner = _const_value(expr.args[0])
            if isinstance(inner, QAtom):
                raw, sql_type = _atom_to_sql(inner)
                return [raw], sql_type
        if value is None:
            raise QNotSupportedError(
                "table literal columns must be constant expressions"
            )
        return _qvalue_to_sql_column(value)

    def _bind_sort(self, node: ast.BinOp) -> BoundTable:
        columns = _symbol_names(_const_value(node.left), node.op)
        source = self.bind_table(node.right)
        ctx = ColumnContext(source.op, source.op.order_column)
        items: list[tuple[sc.Scalar, bool]] = []
        descending = node.op == "xdesc"
        for name in columns:
            if not ctx.has(name):
                raise QTypeError(f"{node.op} column {name!r} not in table")
            items.append((ctx.colref(name), descending))
        # keep the original order as a secondary key so equal keys stay stable
        if source.op.order_column is not None:
            items.append((ctx.colref(source.op.order_column), False))
        ordered = _renumbered(source.op, items)
        # kept alive with the renumbered tree, so the id stays unique
        self._plain_sorts[id(ordered)] = (ordered, XtraSort(source.op, items))
        return BoundTable(ordered, keys=source.keys)

    def _bind_xkey(self, node: ast.BinOp) -> BoundTable:
        columns = _symbol_names(_const_value(node.left), "xkey")
        source = self.bind_table(node.right)
        for name in columns:
            if not source.op.has_column(name):
                raise QTypeError(f"xkey column {name!r} not in table")
        return BoundTable(source.op, keys=columns, shape="keyed")

    def _bind_bang_key(self, node: ast.BinOp) -> BoundTable:
        count = _const_value(node.left)
        if not isinstance(count, QAtom) or not count.qtype.is_integral:
            raise QNotSupportedError("dyadic ! is supported only as n!table")
        source = self.bind_table(node.right)
        n = int(count.value)
        if n == 0:
            return BoundTable(source.op, keys=[], shape="table")
        visible = [c.name for c in source.op.visible_columns]
        return BoundTable(source.op, keys=visible[:n], shape="keyed")

    # -- scalar expressions ---------------------------------------------------------

    def bind_scalar(self, node: ast.Node, ctx: ColumnContext | None) -> sc.Scalar:
        if isinstance(node, ast.Literal):
            return self.bind_literal(node.value)
        if isinstance(node, ast.Name):
            return self._bind_scalar_name(node.name, ctx)
        if isinstance(node, ast.BinOp):
            return self._bind_scalar_binop(node, ctx)
        if isinstance(node, ast.UnOp):
            return self._bind_monadic(node.op, node.operand, ctx)
        if isinstance(node, ast.Apply):
            return self._bind_scalar_apply(node, ctx)
        if isinstance(node, ast.Cond):
            return self._bind_cond(node, ctx)
        if isinstance(node, ast.Template):
            return self._bind_scalar_subquery(node)
        raise QNotSupportedError(
            f"cannot bind {ast.node_name(node)} in a scalar context"
        )

    def bind_literal(self, value: QValue) -> sc.Scalar:
        if isinstance(value, QAtom):
            raw, sql_type = _atom_to_sql(value)
            return sc.SConst(raw, sql_type)
        if isinstance(value, QVector) and value.qtype == QType.CHAR:
            return sc.SConst("".join(value.items), SqlType.TEXT)
        raise QTypeError(
            "list literals are only supported as the right operand of "
            "'in' or 'within'"
        )

    def _bind_scalar_name(self, name: str, ctx: ColumnContext | None) -> sc.Scalar:
        if ctx is not None and ctx.has(name):
            return ctx.colref(name)
        if ctx is not None and name == "i" and ctx.ordcol is not None:
            return ctx.colref(ctx.ordcol)
        definition = self.scope.lookup(name)
        if definition is not None and definition.kind == VarKind.SCALAR:
            return self.bind_literal(definition.value)
        if definition is not None:
            raise QTypeError(
                f"variable {name!r} is a {definition.kind.value}, "
                f"not usable in a scalar context"
            )
        if self.mdi.lookup_table(name) is not None:
            raise QTypeError(
                f"{name!r} is a table; tables are not usable in a scalar "
                f"context"
            )
        raise QNameError(
            f"undefined variable {name!r} in scalar context "
            f"(not a column of the current table, not in any scope)"
        )

    # arithmetic / comparison dyads -------------------------------------------------

    def _bind_scalar_binop(self, node: ast.BinOp, ctx) -> sc.Scalar:
        op = node.op
        if op in ("+", "-", "*", "%"):
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            return _arith(op, left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            # strict comparison; the Xformer upgrades = / <> to 2VL form
            return sc.SCmp(op, left, right)
        if op == "in":
            return self._bind_in(node, ctx)
        if op == "within":
            return self._bind_within(node, ctx)
        if op == "like":
            return self._bind_like(node, ctx)
        if op == "&":
            return self._min_max("least", node, ctx)
        if op == "|":
            return self._min_max("greatest", node, ctx)
        if op == "and":
            return sc.SBool(
                "AND",
                [self.bind_scalar(node.left, ctx), self.bind_scalar(node.right, ctx)],
            )
        if op == "or":
            return sc.SBool(
                "OR",
                [self.bind_scalar(node.left, ctx), self.bind_scalar(node.right, ctx)],
            )
        if op == "^":
            # x ^ y: y unless null, else x  ->  coalesce(y, x)
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            return sc.SFunc("coalesce", [right, left], type_=right.sql_type)
        if op == "xbar":
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            bucket = _arith(
                "*",
                sc.SFunc(
                    "floor", [_arith("%", right, left)], type_=SqlType.BIGINT
                ),
                left,
            )
            return bucket
        if op == "mod":
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            return sc.SFunc("mod", [left, right], type_=left.sql_type)
        if op == "div":
            left = self.bind_scalar(node.left, ctx)
            right = self.bind_scalar(node.right, ctx)
            return sc.SFunc(
                "floor", [_arith("%", left, right)], type_=SqlType.BIGINT
            )
        if op == "$":
            return self._bind_cast(node, ctx)
        if op in ("mavg", "msum", "mmax", "mmin", "mcount"):
            return self._bind_moving(op, node, ctx)
        if op in ("wavg", "wsum"):
            return self._bind_weighted(op, node, ctx)
        if op == "xprev":
            return self._bind_xprev(node, ctx)
        if op == "fby":
            return self._bind_fby(node, ctx)
        raise QNotSupportedError(
            f"dyadic {op!r} has no SQL translation in the supported surface"
        )

    def _bind_fby(self, node: ast.BinOp, ctx) -> sc.Scalar:
        """``(agg; data) fby group`` -> agg(data) OVER (PARTITION BY group).

        The canonical q filter-by idiom; its SQL form is exactly the
        full-partition window broadcast the paper's Xformer injects."""
        if ctx is None:
            raise QNotSupportedError("fby requires a table context")
        if not isinstance(node.left, ast.ListExpr) or len(node.left.items) != 2:
            raise QTypeError("fby expects (aggregate; data) on the left")
        fn_node, data_node = node.left.items
        if not isinstance(fn_node, ast.Name) or fn_node.name not in _AGGREGATE_NAMES:
            raise QNotSupportedError(
                "fby aggregate must be one of the built-in aggregates"
            )
        sql_name, forced = _AGGREGATE_NAMES[fn_node.name]
        data = self.bind_scalar(data_node, ctx)
        group = self.bind_scalar(node.right, ctx)
        return sc.SWindow(
            sql_name,
            [data],
            partition_by=[group],
            frame="rows between unbounded preceding and unbounded following",
            type_=forced or data.sql_type,
        )

    def _min_max(self, fn: str, node: ast.BinOp, ctx) -> sc.Scalar:
        left = self.bind_scalar(node.left, ctx)
        right = self.bind_scalar(node.right, ctx)
        if left.sql_type == SqlType.BOOLEAN and right.sql_type == SqlType.BOOLEAN:
            return sc.SBool("AND" if fn == "least" else "OR", [left, right])
        return sc.SFunc(fn, [left, right], type_=_promote_safe(left, right))

    def _bind_in(self, node: ast.BinOp, ctx) -> sc.Scalar:
        operand = self.bind_scalar(node.left, ctx)
        items_value = _const_value(node.right)
        if items_value is None:
            raise QNotSupportedError(
                "'in' requires a literal list on the right in the supported surface"
            )
        items = _qvalue_to_const_list(items_value)
        return sc.SIn(operand, items)

    def _bind_within(self, node: ast.BinOp, ctx) -> sc.Scalar:
        operand = self.bind_scalar(node.left, ctx)
        bounds_value = _const_value(node.right)
        if bounds_value is None:
            raise QNotSupportedError("'within' requires literal bounds")
        bounds = _qvalue_to_const_list(bounds_value)
        if len(bounds) != 2:
            raise QTypeError("'within' requires a 2-item bound list")
        return sc.SBetween(operand, bounds[0], bounds[1])

    def _bind_like(self, node: ast.BinOp, ctx) -> sc.Scalar:
        operand = self.bind_scalar(node.left, ctx)
        pattern_value = _const_value(node.right)
        if pattern_value is None:
            raise QNotSupportedError("'like' requires a literal pattern")
        if isinstance(pattern_value, QVector) and pattern_value.qtype == QType.CHAR:
            pattern = "".join(pattern_value.items)
        elif isinstance(pattern_value, QAtom) and pattern_value.qtype == QType.SYMBOL:
            pattern = pattern_value.value
        else:
            raise QTypeError("'like' pattern must be a string or symbol")
        sql_pattern = pattern.replace("%", r"\%").replace("*", "%").replace("?", "_")
        return sc.SLike(operand, sql_pattern)

    def _bind_cast(self, node: ast.BinOp, ctx) -> sc.Scalar:
        target_value = _const_value(node.left)
        if not isinstance(target_value, QAtom) or target_value.qtype != QType.SYMBOL:
            raise QNotSupportedError("cast target must be a symbol literal")
        mapping = {
            "long": SqlType.BIGINT,
            "int": SqlType.INTEGER,
            "short": SqlType.SMALLINT,
            "float": SqlType.DOUBLE,
            "real": SqlType.REAL,
            "boolean": SqlType.BOOLEAN,
            "symbol": SqlType.VARCHAR,
            "date": SqlType.DATE,
            "time": SqlType.TIME,
            "timestamp": SqlType.TIMESTAMP,
        }
        target = mapping.get(target_value.value)
        if target is None:
            raise QNotSupportedError(
                f"cast to `{target_value.value} has no SQL equivalent "
                f"(paper Section 5, limitation category 2)"
            )
        return sc.SCast(self.bind_scalar(node.right, ctx), target)

    # monadic keywords ----------------------------------------------------------------

    def _bind_monadic(self, op: str, operand: ast.Node, ctx) -> sc.Scalar:
        arg = None  # bound lazily; aggregates need raw node
        binding = _MONADIC_BINDINGS.get(op)
        if binding is not None:
            arg = self.bind_scalar(operand, ctx)
            return binding(arg)
        if op in _AGGREGATE_NAMES:
            return self._bind_aggregate(op, operand, ctx)
        if op in _UNIFORM_WINDOW_VERBS:
            return self._bind_uniform(op, operand, ctx)
        raise QNotSupportedError(
            f"monadic {op!r} has no SQL translation in the supported surface"
        )

    def _bind_scalar_apply(self, node: ast.Apply, ctx) -> sc.Scalar:
        if isinstance(node.func, ast.Name):
            name = node.func.name
            args = [a for a in node.args if a is not None]
            if name == "?" and len(args) == 3:
                # vector conditional ?[c;a;b] -> CASE WHEN c THEN a ELSE b
                condition = self.bind_scalar(args[0], ctx)
                then_value = self.bind_scalar(args[1], ctx)
                else_value = self.bind_scalar(args[2], ctx)
                return sc.SCase([(condition, then_value)], else_value)
            if len(args) == 1:
                return self._bind_monadic(name, args[0], ctx)
            if len(args) == 2 and name in (
                "mavg", "msum", "mmax", "mmin", "mcount", "wavg", "wsum",
                "xprev", "xbar", "mod", "div", "in", "within", "like",
            ):
                return self._bind_scalar_binop(
                    ast.BinOp(name, args[0], args[1], pos=node.pos), ctx
                )
        if isinstance(node.func, ast.AdverbApply):
            raise QNotSupportedError(
                "adverbs in scalar context are not translated to SQL"
            )
        raise QNotSupportedError(
            f"cannot bind application of {ast.node_name(node.func)} in SQL"
        )

    def _as_table_aggregate(self, node: ast.Node):
        """Recognize ``agg <table expr>`` (UnOp or juxtaposed Apply)."""
        if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
            name = node.func.name
            args = [a for a in node.args if a is not None]
            if name in _AGGREGATE_NAMES and len(args) == 1:
                operand = args[0]
                if _is_table_shaped(operand) or self._names_a_table(operand):
                    return name, operand
        return None

    def _names_a_table(self, node: ast.Node) -> bool:
        if not isinstance(node, ast.Name):
            return False
        definition = self.scope.lookup(node.name)
        if definition is not None:
            from repro.core.scopes import VarKind as _VK

            return definition.kind in (_VK.TABLE, _VK.VIEW)
        return self.mdi.lookup_table(node.name) is not None

    def _bind_aggregate(self, name: str, operand: ast.Node, ctx) -> sc.Scalar:
        if ctx is None:
            raise QNotSupportedError(
                f"aggregate {name!r} outside a table context; aggregate "
                f"over a table expression directly (e.g. avg exec c from t)"
            )
        if name == "count":
            return sc.SAgg("count", None, type_=SqlType.BIGINT)
        arg = self.bind_scalar(operand, ctx)
        sql_name, result_type = _AGGREGATE_NAMES[name]
        if name == "wavg" or name == "wsum":
            raise QRankError(f"{name} is dyadic")
        return sc.SAgg(sql_name, arg, type_=result_type or arg.sql_type)

    def _bind_uniform(self, op: str, operand: ast.Node, ctx) -> sc.Scalar:
        """Uniform verbs become window functions over the implicit order
        (paper Section 3.3: 'The Xformer may also generate implicit order
        columns by injecting window functions')."""
        if ctx is None or ctx.ordcol is None:
            raise QNotSupportedError(
                f"{op!r} requires an ordered table context"
            )
        arg = self.bind_scalar(operand, ctx)
        order = [(ctx.colref(ctx.ordcol), False)]
        if op in ("sums", "maxs", "mins"):
            name = {"sums": "sum", "maxs": "max", "mins": "min"}[op]
            return sc.SWindow(name, [arg], order_by=order, type_=arg.sql_type)
        if op == "prev":
            return sc.SWindow("lag", [arg], order_by=order, type_=arg.sql_type)
        if op == "next":
            return sc.SWindow("lead", [arg], order_by=order, type_=arg.sql_type)
        if op == "deltas":
            lag = sc.SWindow("lag", [arg], order_by=order, type_=arg.sql_type)
            return sc.SFunc(
                "coalesce", [_arith("-", arg, lag), arg], type_=arg.sql_type
            )
        if op == "ratios":
            lag = sc.SWindow("lag", [arg], order_by=order, type_=arg.sql_type)
            return _arith("%", arg, lag)
        if op == "differ":
            # x IS DISTINCT FROM lag(x), with the first row forced true
            lag = sc.SWindow("lag", [arg], order_by=order, type_=arg.sql_type)
            row_number = sc.SWindow(
                "row_number", [], order_by=order, type_=SqlType.BIGINT
            )
            return sc.SBool(
                "OR",
                [
                    sc.SCmp("<>", arg, lag, null_safe=True),
                    sc.SCmp("=", row_number, sc.SConst(1, SqlType.BIGINT)),
                ],
            )
        if op == "fills":
            raise QNotSupportedError(
                "fills needs a gap-filling subquery; outside the supported surface"
            )
        raise QNotSupportedError(f"uniform verb {op!r} is not translated")

    def _bind_moving(self, op: str, node: ast.BinOp, ctx) -> sc.Scalar:
        if ctx is None or ctx.ordcol is None:
            raise QNotSupportedError(f"{op!r} requires an ordered table context")
        window_size = _const_value(node.left)
        if not isinstance(window_size, QAtom) or not window_size.qtype.is_integral:
            raise QTypeError(f"{op} window size must be an integer literal")
        n = int(window_size.value)
        arg = self.bind_scalar(node.right, ctx)
        name = {
            "mavg": "avg",
            "msum": "sum",
            "mmax": "max",
            "mmin": "min",
            "mcount": "count",
        }[op]
        frame = f"rows between {n - 1} preceding and current row"
        result_type = SqlType.DOUBLE if op == "mavg" else (
            SqlType.BIGINT if op == "mcount" else arg.sql_type
        )
        return sc.SWindow(
            name,
            [arg],
            order_by=[(ctx.colref(ctx.ordcol), False)],
            frame=frame,
            type_=result_type,
        )

    def _bind_weighted(self, op: str, node: ast.BinOp, ctx) -> sc.Scalar:
        if ctx is None:
            raise QNotSupportedError(f"{op} requires a table context")
        weights = self.bind_scalar(node.left, ctx)
        values = self.bind_scalar(node.right, ctx)
        weighted = sc.SAgg(
            "sum", _arith("*", weights, values), type_=SqlType.DOUBLE
        )
        if op == "wsum":
            return weighted
        total = sc.SAgg("sum", weights, type_=SqlType.DOUBLE)
        return _arith("%", weighted, total)

    def _bind_xprev(self, node: ast.BinOp, ctx) -> sc.Scalar:
        if ctx is None or ctx.ordcol is None:
            raise QNotSupportedError("xprev requires an ordered table context")
        shift = _const_value(node.left)
        if not isinstance(shift, QAtom):
            raise QTypeError("xprev shift must be an integer literal")
        arg = self.bind_scalar(node.right, ctx)
        return sc.SWindow(
            "lag",
            [arg, sc.SConst(int(shift.value), SqlType.BIGINT)],
            order_by=[(ctx.colref(ctx.ordcol), False)],
            type_=arg.sql_type,
        )

    def _bind_cond(self, node: ast.Cond, ctx) -> sc.Scalar:
        branches: list[tuple[sc.Scalar, sc.Scalar]] = []
        i = 0
        items = node.branches
        while i + 1 < len(items):
            condition = self.bind_scalar(items[i], ctx)
            result = self.bind_scalar(items[i + 1], ctx)
            branches.append((condition, result))
            i += 2
        default = self.bind_scalar(items[i], ctx) if i < len(items) else None
        return sc.SCase(branches, default)

    def _bind_scalar_subquery(self, node: ast.Template) -> sc.Scalar:
        raise QNotSupportedError(
            "templates in scalar position require materialization; "
            "assign the result to a variable first"
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


#: scratch column the renumbering window fills before it becomes ordcol
_ROW_NUMBER = "hq_row_number"


def _renumbered(op: XtraOp, items: list[tuple[sc.Scalar, bool]]) -> XtraOp:
    """``op`` sorted by ``items``, its implicit order column renumbered to
    the sorted row order.

    Every consumer of a table expression orders by its ordcol (a
    ``select[n]``, an outer sort, a materialized variable), so a sort that
    kept its source's ordcol values would be undone by the next one.  The
    order column becomes ``row_number() - 1`` over the sort items (whose
    last is the old ordcol, for stability) and the result is sorted by it.
    """
    ordcol = op.order_column
    if ordcol is None or not op.column(ordcol).implicit:
        return XtraSort(op, items)
    order_by = []
    for expr, descending in items:
        if expr.nullable:
            # window keys take PG's null placement; lead with a null
            # flag so nulls sort smallest, as XtraSort renders them
            order_by.append((sc.SIsNull(expr, negated=not descending), False))
        order_by.append((expr, descending))
    row_number = sc.SWindow(
        "row_number", [], order_by=order_by, type_=SqlType.BIGINT
    )
    key_type = op.column(ordcol).sql_type
    position = sc.SArith(
        "-", sc.SColRef(_ROW_NUMBER, SqlType.BIGINT, False),
        sc.SConst(1, SqlType.BIGINT), type_=key_type,
    )
    projections = [
        (c.name, position if c.name == ordcol
         else sc.SColRef(c.name, c.sql_type, c.nullable))
        for c in op.columns
    ]
    renumbered = XtraProject(
        XtraWindow(op, [(_ROW_NUMBER, row_number)]), projections
    )
    return XtraSort(renumbered, [(sc.SColRef(ordcol, key_type, False), False)])


def _is_table_shaped(node: ast.Node) -> bool:
    if isinstance(node, (ast.Template, ast.TableExpr)):
        return True
    if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
        return node.func.name in ("aj", "aj0", "ej")
    if isinstance(node, ast.BinOp) and node.op in (
        "lj", "ij", "uj", "xasc", "xdesc", "xkey",
    ):
        return True
    # n!table keying: an integer literal on the left of '!'
    if (
        isinstance(node, ast.BinOp)
        and node.op == "!"
        and isinstance(node.left, ast.Literal)
        and isinstance(node.left.value, QAtom)
        and node.left.value.qtype.is_integral
    ):
        return True
    return False


def _get_from_meta(meta: TableMeta, relation: str) -> XtraGet:
    columns, colmap = meta.scan_columns
    return XtraGet.shared(relation, columns, colmap, meta.ordcol, list(meta.keys))


def _arith(op: str, left: sc.Scalar, right: sc.Scalar) -> sc.SArith:
    if op == "%":
        result = SqlType.DOUBLE
    else:
        result = _promote_safe(left, right)
    return sc.SArith(op, left, right, type_=result)


def _promote_safe(left: sc.Scalar, right: sc.Scalar) -> SqlType:
    try:
        return promote(left.sql_type, right.sql_type)
    except Exception:
        return left.sql_type if left.sql_type != SqlType.NULL else right.sql_type


def _const_value(node: ast.Node) -> QValue | None:
    """Extract a literal QValue from an AST node, if it is one."""
    if isinstance(node, ast.Literal):
        return node.value
    return None


def _symbol_names(value: QValue | None, verb: str) -> list[str]:
    if isinstance(value, QAtom) and value.qtype == QType.SYMBOL:
        return [value.value]
    if isinstance(value, QVector) and value.qtype == QType.SYMBOL:
        return list(value.items)
    raise QTypeError(f"{verb} expects literal symbol column names")


def _atom_to_sql(atom: QAtom) -> tuple[object, SqlType]:
    return atom.qtype.sql_value(atom.value), atom.qtype.spec.sql


def _qvalue_to_const_list(value: QValue) -> list[sc.SConst]:
    if isinstance(value, QAtom):
        return [sc.SConst(*_atom_to_sql(value))]
    if isinstance(value, QVector):
        sql_type = value.qtype.spec.sql
        raws = value.qtype.sql_values(value.items)
        return [sc.SConst(raw, sql_type) for raw in raws]
    if isinstance(value, QList):
        out = []
        for item in value.items:
            if not isinstance(item, QAtom):
                raise QTypeError("nested lists are not valid 'in' operands")
            out.append(sc.SConst(*_atom_to_sql(item)))
        return out
    raise QTypeError("expected a literal list")


def _qvalue_to_sql_column(value: QValue) -> tuple[list, SqlType]:
    if isinstance(value, QAtom):
        raw, sql_type = _atom_to_sql(value)
        return [raw], sql_type
    if isinstance(value, QVector):
        return value.qtype.sql_values(value.items), value.qtype.spec.sql
    raise QTypeError("table literal columns must be atoms or typed vectors")


#: monadic Q keyword -> Scalar builder
_MONADIC_BINDINGS = {
    "neg": lambda a: sc.SArith(
        "-", sc.SConst(0, SqlType.BIGINT), a, type_=a.sql_type
    ),
    "-": lambda a: sc.SArith(
        "-", sc.SConst(0, SqlType.BIGINT), a, type_=a.sql_type
    ),
    "abs": lambda a: sc.SFunc("abs", [a], type_=a.sql_type),
    "sqrt": lambda a: sc.SFunc("sqrt", [a], type_=SqlType.DOUBLE),
    "exp": lambda a: sc.SFunc("exp", [a], type_=SqlType.DOUBLE),
    "log": lambda a: sc.SFunc("ln", [a], type_=SqlType.DOUBLE),
    "floor": lambda a: sc.SFunc("floor", [a], type_=SqlType.BIGINT),
    "ceiling": lambda a: sc.SFunc("ceiling", [a], type_=SqlType.BIGINT),
    "signum": lambda a: sc.SFunc("sign", [a], type_=SqlType.INTEGER),
    "not": lambda a: sc.SBool("NOT", [a]),
    "null": lambda a: sc.SIsNull(a),
    "lower": lambda a: sc.SFunc("lower", [a], type_=SqlType.TEXT),
    "upper": lambda a: sc.SFunc("upper", [a], type_=SqlType.TEXT),
    "reciprocal": lambda a: sc.SArith(
        "%", sc.SConst(1.0, SqlType.DOUBLE), a, type_=SqlType.DOUBLE
    ),
}

#: Q aggregate keyword -> (SQL aggregate, forced result type or None)
_AGGREGATE_NAMES = {
    "sum": ("sum", None),
    "avg": ("avg", SqlType.DOUBLE),
    "min": ("min", None),
    "max": ("max", None),
    "med": ("median", SqlType.DOUBLE),
    "dev": ("stddev_pop", SqlType.DOUBLE),
    "var": ("var_pop", SqlType.DOUBLE),
    "count": ("count", SqlType.BIGINT),
    "first": ("first", None),
    "last": ("last", None),
}

_UNIFORM_WINDOW_VERBS = {
    "sums", "maxs", "mins", "deltas", "ratios", "prev", "next", "fills",
    "differ",
}
