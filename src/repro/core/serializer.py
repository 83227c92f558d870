"""Serializer: XTRA -> PostgreSQL SQL text.

The final stage of query translation (and, with optimization, the bulk of
translation time in the paper's Figure 7).  Every identifier is
double-quoted because Q identifiers are case-sensitive while PostgreSQL
folds unquoted names to lower case.
"""

from __future__ import annotations

import itertools

from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
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
from repro.errors import TranslationError
from repro.qlang.lexer import date_from_days
from repro.sqlengine.types import SqlType


def quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def quote_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def sql_literal(value, sql_type: SqlType) -> str:
    """``value`` in its SQL encoding as a typed SQL literal."""
    if value is None:
        return f"NULL::{sql_type.value}"
    if sql_type == SqlType.BOOLEAN:
        return "TRUE" if value else "FALSE"
    if sql_type in (SqlType.VARCHAR, SqlType.TEXT, SqlType.CHAR, SqlType.UUID):
        return f"{quote_string(str(value))}::{sql_type.value}"
    if sql_type == SqlType.DATE:
        y, m, d = date_from_days(int(value))
        return f"'{y:04d}-{m:02d}-{d:02d}'::date"
    if sql_type == SqlType.TIME:
        ms = int(value) % 1000
        s = int(value) // 1000
        return (
            f"'{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}."
            f"{ms:03d}'::time"
        )
    if sql_type == SqlType.TIMESTAMP:
        days, nanos = divmod(int(value), 86_400_000_000_000)
        y, m, d = date_from_days(days)
        s, frac = divmod(nanos, 1_000_000_000)
        return (
            f"'{y:04d}-{m:02d}-{d:02d} {s // 3600:02d}:"
            f"{s % 3600 // 60:02d}:{s % 60:02d}.{frac:09d}'"
            f"::timestamp"
        )
    if sql_type == SqlType.INTERVAL:
        return f"'{int(value)}'::interval"
    if isinstance(value, float):
        if value != value:
            return f"NULL::{sql_type.value}"
        if value in (float("inf"), float("-inf")):
            return f"'{'-' if value < 0 else ''}Infinity'::{sql_type.value}"
        text = repr(value)
    else:
        text = str(value)
    # an untyped numeral reads back as bigint or double precision
    if sql_type in (SqlType.SMALLINT, SqlType.INTEGER, SqlType.REAL):
        return f"{text}::{sql_type.value}"
    return text


class Serializer:
    """Stateless XTRA-to-SQL serializer.

    Each :meth:`serialize` call numbers its derived-table aliases from
    ``hq_t1`` with its own counter, passed down the relational render,
    so one instance — there is one per pipeline, shared with the
    materializer — serializes concurrently without interleaving alias
    sequences.  Scalars never open a derived table and take no counter.
    """

    def serialize(self, op: XtraOp) -> str:
        return self._rel(op, itertools.count(1))

    def serialize_scalar_statement(self, scalar: sc.Scalar) -> str:
        return f"SELECT {self._scalar(scalar)} AS {quote_ident('value')}"

    # -- relational -----------------------------------------------------------

    def _rel(self, op: XtraOp, alias) -> str:
        method = getattr(self, f"_rel_{type(op).__name__.lower()}", None)
        if method is None:
            raise TranslationError(
                f"serializer has no rendering for {type(op).__name__}"
            )
        return method(op, alias)

    def _subquery(self, op: XtraOp, alias) -> str:
        return f"({self._rel(op, alias)}) AS hq_t{next(alias)}"

    def _rel_xtraget(self, op: XtraGet, alias) -> str:
        cols = ", ".join(quote_ident(c.name) for c in op.output)
        if not cols:
            cols = "1"
        return f"SELECT {cols} FROM {quote_ident(op.table)}"

    def _rel_xtraconsttable(self, op: XtraConstTable, alias) -> str:
        if not op.rows:
            items = ", ".join(
                f"{sql_literal(None, c.sql_type)} AS {quote_ident(c.name)}"
                for c in op.output
            )
            return f"SELECT {items} LIMIT 0"
        selects = []
        for i, row in enumerate(op.rows):
            items = []
            for col, value in zip(op.output, row):
                rendered = sql_literal(value, col.sql_type)
                if i == 0:
                    rendered += f" AS {quote_ident(col.name)}"
                items.append(rendered)
            selects.append("SELECT " + ", ".join(items))
        return " UNION ALL ".join(selects)

    def _rel_xtraproject(self, op: XtraProject, alias) -> str:
        items = ", ".join(
            f"{self._scalar(scalar)} AS {quote_ident(name)}"
            for name, scalar in op.projections
        )
        if not items:
            items = "1"
        return f"SELECT {items} FROM {self._subquery(op.child, alias)}"

    def _rel_xtrafilter(self, op: XtraFilter, alias) -> str:
        return (
            f"SELECT * FROM {self._subquery(op.child, alias)} "
            f"WHERE {self._scalar(op.predicate)}"
        )

    def _rel_xtrajoin(self, op: XtraJoin, alias) -> str:
        kind = {"inner": "INNER JOIN", "left": "LEFT OUTER JOIN",
                "cross": "CROSS JOIN"}.get(op.kind)
        if kind is None:
            raise TranslationError(f"join kind {op.kind!r} cannot be serialized")
        sql = (
            f"SELECT * FROM {self._subquery(op.left, alias)} {kind} "
            f"{self._subquery(op.right, alias)}"
        )
        if op.condition is not None:
            sql += f" ON {self._scalar(op.condition)}"
        elif op.kind != "cross":
            sql += " ON TRUE"
        return sql

    def _rel_xtragroupagg(self, op: XtraGroupAgg, alias) -> str:
        items = [
            f"{self._scalar(scalar)} AS {quote_ident(name)}"
            for name, scalar in op.group_keys
        ]
        items += [
            f"{self._scalar(scalar)} AS {quote_ident(name)}"
            for name, scalar in op.aggregates
        ]
        sql = f"SELECT {', '.join(items)} FROM {self._subquery(op.child, alias)}"
        if op.group_keys:
            keys = ", ".join(self._scalar(s) for __, s in op.group_keys)
            sql += f" GROUP BY {keys}"
        return sql

    def _rel_xtrawindow(self, op: XtraWindow, alias) -> str:
        extras = ", ".join(
            f"{self._scalar(scalar)} AS {quote_ident(name)}"
            for name, scalar in op.windows
        )
        return f"SELECT *, {extras} FROM {self._subquery(op.child, alias)}"

    def _rel_xtrasort(self, op: XtraSort, alias) -> str:
        # Q's null ordering: nulls are the smallest values, so ascending
        # sorts put them first (PG's default is NULLS LAST for ASC)
        keys = ", ".join(
            self._scalar(scalar)
            + (" DESC NULLS LAST" if descending else " NULLS FIRST")
            for scalar, descending in op.sort_items
        )
        return f"SELECT * FROM {self._subquery(op.child, alias)} ORDER BY {keys}"

    def _rel_xtralimit(self, op: XtraLimit, alias) -> str:
        sql = f"SELECT * FROM {self._subquery(op.child, alias)} LIMIT {op.count}"
        if op.offset:
            sql += f" OFFSET {op.offset}"
        return sql

    def _rel_xtraunionall(self, op: XtraUnionAll, alias) -> str:
        return (
            f"SELECT * FROM ({self._rel(op.left, alias)} UNION ALL "
            f"{self._rel(op.right, alias)}) AS hq_t{next(alias)}"
        )

    def _rel_xtradistinct(self, op: XtraDistinct, alias) -> str:
        return f"SELECT DISTINCT * FROM {self._subquery(op.child, alias)}"

    # -- scalars -----------------------------------------------------------------

    def _scalar(self, scalar: sc.Scalar) -> str:
        if isinstance(scalar, sc.SConst):
            return sql_literal(scalar.value, scalar.type_)
        if isinstance(scalar, sc.SColRef):
            return quote_ident(scalar.name)
        if isinstance(scalar, sc.SArith):
            left = self._scalar(scalar.left)
            right = self._scalar(scalar.right)
            if scalar.op == "%":
                # Q's % is always float division
                return f"(CAST({left} AS double precision) / {right})"
            return f"({left} {scalar.op} {right})"
        if isinstance(scalar, sc.SCmp):
            left = self._scalar(scalar.left)
            right = self._scalar(scalar.right)
            if scalar.null_safe and scalar.op == "=":
                return f"({left} IS NOT DISTINCT FROM {right})"
            if scalar.null_safe and scalar.op == "<>":
                return f"({left} IS DISTINCT FROM {right})"
            return f"({left} {scalar.op} {right})"
        if isinstance(scalar, sc.SBool):
            if scalar.op == "NOT":
                return f"(NOT {self._scalar(scalar.args[0])})"
            joined = f" {scalar.op} ".join(self._scalar(a) for a in scalar.args)
            return f"({joined})"
        if isinstance(scalar, sc.SFunc):
            args = ", ".join(self._scalar(a) for a in scalar.args)
            return f"{scalar.name}({args})"
        if isinstance(scalar, sc.SAgg):
            if scalar.arg is None:
                return "count(*)"
            inner = self._scalar(scalar.arg)
            distinct = "DISTINCT " if scalar.distinct else ""
            return f"{scalar.name}({distinct}{inner})"
        if isinstance(scalar, sc.SWindow):
            return self._window(scalar)
        if isinstance(scalar, sc.SCast):
            return f"({self._scalar(scalar.arg)})::{scalar.type_.value}"
        if isinstance(scalar, sc.SCase):
            parts = ["CASE"]
            for condition, result in scalar.branches:
                parts.append(
                    f"WHEN {self._scalar(condition)} THEN {self._scalar(result)}"
                )
            if scalar.default is not None:
                parts.append(f"ELSE {self._scalar(scalar.default)}")
            parts.append("END")
            return "(" + " ".join(parts) + ")"
        if isinstance(scalar, sc.SIsNull):
            suffix = "IS NOT NULL" if scalar.negated else "IS NULL"
            return f"({self._scalar(scalar.arg)} {suffix})"
        if isinstance(scalar, sc.SIn):
            items = ", ".join(self._scalar(i) for i in scalar.items)
            negated = "NOT " if scalar.negated else ""
            return f"({self._scalar(scalar.arg)} {negated}IN ({items}))"
        if isinstance(scalar, sc.SBetween):
            return (
                f"({self._scalar(scalar.arg)} BETWEEN "
                f"{self._scalar(scalar.low)} AND {self._scalar(scalar.high)})"
            )
        if isinstance(scalar, sc.SLike):
            return f"({self._scalar(scalar.arg)} LIKE {quote_string(scalar.pattern)})"
        raise TranslationError(
            f"serializer has no rendering for scalar {type(scalar).__name__}"
        )

    def _window(self, scalar: sc.SWindow) -> str:
        args = ", ".join(self._scalar(a) for a in scalar.args)
        over = []
        if scalar.partition_by:
            keys = ", ".join(self._scalar(p) for p in scalar.partition_by)
            over.append(f"PARTITION BY {keys}")
        if scalar.order_by:
            keys = ", ".join(
                self._scalar(e) + (" DESC" if d else "")
                for e, d in scalar.order_by
            )
            over.append(f"ORDER BY {keys}")
        if scalar.frame:
            over.append(scalar.frame.upper())
        return f"{scalar.name}({args}) OVER ({' '.join(over)})"
