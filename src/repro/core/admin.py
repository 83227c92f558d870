"""The admin-verb registry: kdb+-style management utilities.

Hyper-Q answers kdb+'s management utilities from its own metadata layer
instead of the backend (the enterprise-tooling angle of Sections 2.1/5),
and reports its own state through the same surface.  :data:`VERBS` is
the one place that says which statements are admin verbs and what
answers them.  :func:`match` reads it for both sides of a request: the
WLM classifier bills a statement ``admin`` iff it matches, and the
session answers exactly the matching statements.  qcheck takes the verb
names from it as builtins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import QNameError
from repro.obs import metrics
from repro.qlang import ast
from repro.qlang.qtypes import QType, from_sql
from repro.qlang.values import QDict, QTable, QValue, QVector

if TYPE_CHECKING:
    from repro.core.scopes import Scope
    from repro.core.session import HyperQSession


def admin_table(spec: list[tuple[str, QType]], rows: list[tuple]) -> QTable:
    """Pivot ``rows`` (tuples parallel to ``spec``) into a Q table.

    ``spec`` is an ordered list of ``(column_name, qtype)``; supported
    qtypes are SYMBOL, CHAR, LONG and FLOAT — everything an admin verb
    reports.  Empty ``rows`` yields the empty table of the same schema
    (the "feature disabled" answer).
    """
    vectors = [
        QVector(qtype, [qtype.spec.cell(row[index]) for row in rows])
        for index, (__, qtype) in enumerate(spec)
    ]
    return QTable([name for name, __ in spec], vectors)


# -- argument forms: the given arguments -> the handler's, or _MISS ---------

_MISS = object()


def _no_argument(args: list[ast.Node]):
    return _MISS if args else None


def _table_name(args: list[ast.Node]):
    if len(args) == 1 and isinstance(args[0], ast.Name):
        return args[0].name
    return _MISS


def _optional_source(args: list[ast.Node]):
    if not args:
        return None
    if len(args) == 1 and isinstance(args[0], ast.Literal):
        value = args[0].value
        if isinstance(value, QVector) and value.qtype == QType.CHAR:
            return "".join(value.items)
    return _MISS


# -- handlers: (session, scope, argument) -> the reply value ------------------


def _tables(session: HyperQSession, scope: Scope, arg) -> QValue:
    from repro.core.materialize import GLOBAL_PREFIX, TEMP_TABLE_PREFIX, VIEW_PREFIX

    result = session.executor.run_sql(
        "SELECT tablename FROM pg_tables ORDER BY tablename"
    )
    internal = (TEMP_TABLE_PREFIX, VIEW_PREFIX, GLOBAL_PREFIX)
    return QVector(
        QType.SYMBOL,
        [row[0] for row in result.rows if not row[0].startswith(internal)],
    )


def _data_columns(session: HyperQSession, scope: Scope, table_name: str,
                  verb: str):
    """A variable's columns, else the backend table's (through the MDI)."""
    definition = scope.lookup(table_name)
    if definition is not None and definition.meta is not None:
        return definition.meta.data_columns
    meta = session.mdi.lookup_table(table_name)
    if meta is None:
        raise QNameError(
            f"{verb}: table {table_name!r} does not exist (searched local, "
            f"session and server scopes, then the backend catalog)"
        )
    return meta.data_columns


def _cols(session: HyperQSession, scope: Scope, table_name: str) -> QValue:
    columns = _data_columns(session, scope, table_name, "cols")
    return QVector(QType.SYMBOL, [c.name for c in columns])


def _meta(session: HyperQSession, scope: Scope, table_name: str) -> QValue:
    return admin_table(
        [("c", QType.SYMBOL), ("t", QType.CHAR)],
        [(c.name, from_sql(c.sql_type).char)
         for c in _data_columns(session, scope, table_name, "meta")],
    )


def _metrics(session: HyperQSession, scope: Scope, arg) -> QValue:
    flat = metrics.get_registry().flat()
    names = list(flat.keys())
    return QDict(
        QVector(QType.SYMBOL, names),
        QVector(QType.FLOAT, [float(flat[name]) for name in names]),
    )


def _check(session: HyperQSession, scope: Scope, source: str | None) -> QValue:
    analyzer = session.pipeline.analyzer
    if source is None:
        return admin_table(
            [("code", QType.SYMBOL), ("name", QType.SYMBOL),
             ("severity", QType.SYMBOL), ("purpose", QType.SYMBOL)],
            [(r.code, r.name, r.default_severity.label, r.purpose)
             for r in analyzer.rules],
        )
    return admin_table(
        [("code", QType.SYMBOL), ("severity", QType.SYMBOL),
         ("rule", QType.SYMBOL), ("pos", QType.LONG),
         ("message", QType.SYMBOL)],
        [(f.code, f.severity.label, f.rule, f.pos, f.message)
         for f in analyzer.analyze_source(source, scope)],
    )


def _wlm(session: HyperQSession, scope: Scope, arg) -> QValue:
    rows: list[tuple] = []
    wlm = session.wlm
    if wlm is not None:
        snapshot = wlm.snapshot()
        for name, stats in snapshot["classes"].items():
            rows.append((
                name, "class", "ok", stats["limit"], stats["active"],
                stats["queued"], stats["admitted"], stats["shed"],
            ))
        for name, stats in snapshot["breakers"].items():
            rows.append((
                name, "breaker", stats["state"],
                wlm.config.breaker.failure_threshold,
                stats["failures"], 0, stats["transitions"], 0,
            ))
        for point, count in snapshot["faults"].items():
            rows.append((point, "fault", "armed", 0, count, 0, 0, 0))
    return admin_table(
        [
            ("name", QType.SYMBOL), ("kind", QType.SYMBOL),
            ("state", QType.SYMBOL), ("limit", QType.LONG),
            ("active", QType.LONG), ("queued", QType.LONG),
            ("admitted", QType.LONG), ("shed", QType.LONG),
        ],
        rows,
    )


_SHARD_COLUMNS = [
    ("shard", QType.LONG), ("state", QType.SYMBOL),
    ("queries", QType.LONG), ("errors", QType.LONG),
    ("mean_ms", QType.FLOAT), ("mode", QType.SYMBOL),
    ("pid", QType.LONG), ("restarts", QType.LONG),
    ("rss_kb", QType.LONG),
]


def _shards(session: HyperQSession, scope: Scope, arg) -> QValue:
    return admin_table(
        _SHARD_COLUMNS,
        [
            tuple(row[name] for name, __ in _SHARD_COLUMNS)
            for row in session.backend.shard_snapshot()
        ],
    )


def _rcache(session: HyperQSession, scope: Scope, arg) -> QValue:
    rows = [
        ("rcache", name, value)
        for name, value in session.result_cache.snapshot().as_rows()
    ]
    return admin_table(
        [
            ("layer", QType.SYMBOL), ("stat", QType.SYMBOL),
            ("value", QType.LONG),
        ],
        rows,
    )


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Verb:
    """One admin verb: the argument shape it takes and what answers it."""

    #: argument nodes (elided ones dropped) -> the handler's argument,
    #: or ``_MISS`` when the shape is not this verb's (the statement is
    #: then not an admin verb and goes down the ordinary read path)
    form: Callable[[list[ast.Node]], object]
    answer: Callable[[HyperQSession, Scope, object], QValue]
    doc: str


#: verb name -> its argument form, handler and doc
VERBS = {
    "tables": Verb(_no_argument, _tables,
                   "backend table names, Hyper-Q's own relations excluded"),
    "cols": Verb(_table_name, _cols,
                 "column names of a variable or backend table"),
    "meta": Verb(_table_name, _meta,
                 "per-column name `c` and q type character `t`"),
    "metrics": Verb(_no_argument, _metrics,
                    "observability snapshot as a dict of sample name -> "
                    "value (docs/OBSERVABILITY.md)"),
    "check": Verb(_optional_source, _check,
                  "qcheck findings for the quoted Q source, or with no "
                  "argument the rule catalog (docs/ANALYSIS.md)"),
    "wlm": Verb(_no_argument, _wlm,
                "admission classes, circuit breakers and fired fault "
                "points; empty when workload management is off"),
    "shards": Verb(_no_argument, _shards,
                   "per-shard breaker state, counts, mean latency and "
                   "transport; empty when the backend is not sharded"),
    "rcache": Verb(_no_argument, _rcache,
                   "result-cache counters (docs/CACHING.md)"),
}


def match(statement: ast.Node) -> tuple[Verb, object] | None:
    """``(verb, argument)`` when ``statement`` is an admin verb applied
    to its argument form, else None.

    Only an Apply can name a verb: the parser builds ``UnOp`` for
    operator glyphs alone.
    """
    if not isinstance(statement, ast.Apply):
        return None
    func = statement.func
    verb = VERBS.get(func.name) if isinstance(func, ast.Name) else None
    if verb is None:
        return None
    arg = verb.form([a for a in statement.args if a is not None])
    return None if arg is _MISS else (verb, arg)
