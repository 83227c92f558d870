"""Cross Compiler (XC): query and result translation driver (Figure 4).

The XC couples two components:

* the **Query Translator (QT)** drives Q statements through the staged
  pipeline — bind (Algebrizer), transform (Xformer), serialize — which
  lives in :mod:`repro.core.pipeline` as an explicit pass manager (one
  per session; the active scope is passed per call);
* the **Protocol Translator (PT)** turns backend row sets back into the
  column-oriented values a Q application expects (Figure 5's pivot),
  buffering the full result before forming the QIPC message.  The PT is
  modeled as an FSM per the paper's design.
"""

from __future__ import annotations

from repro.core.fsm import Fsm
from repro.core.pipeline import TranslationResult
from repro.errors import TranslationError
from repro.obs import tracing
from repro.qlang.qtypes import QType, from_sql
from repro.qlang.values import (
    QDict,
    QKeyedTable,
    QList,
    QTable,
    QValue,
    QVector,
)
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType

__all__ = ["ProtocolTranslator", "pivot_result"]


# ---------------------------------------------------------------------------
# Result pivoting (PT's response path, Figure 5)
# ---------------------------------------------------------------------------


def _is_internal(name: str) -> bool:
    return name == "ordcol" or name.startswith("hq_")


def _column_to_vector(values: list, sql_type: SqlType) -> QVector:
    qtype = from_sql(sql_type)
    null, convert = qtype.spec.null, qtype.spec.cell
    raws = [null if value is None else convert(value) for value in values]
    return QVector(qtype, raws)


def pivot_result(result: ResultSet, shape: str, keys: list[str]) -> QValue:
    """Pivot a SQL result into the column-oriented Q value it maps to.

    This is the QIPC side of Figure 5: PG streams rows; Hyper-Q buffers
    them (the ResultSet *is* the buffered set) and ships columns.  A
    gateway result already carries columnar data, so this is a cheap
    wrap — no transpose; engine-built row results transpose once inside
    ``ResultSet.column_data``.
    """
    data = result.column_data
    row_count = len(data[0]) if data else 0
    visible = [
        (i, col)
        for i, col in enumerate(result.columns)
        if not _is_internal(col.name)
    ]
    vectors = {
        col.name: _column_to_vector(data[i], col.sql_type)
        for i, col in visible
    }
    names = [col.name for __, col in visible]

    if shape == "atom":
        if len(names) != 1 or row_count != 1:
            raise TranslationError(
                f"atom-shaped result has {len(names)} columns x "
                f"{row_count} rows"
            )
        return vectors[names[0]].atom_at(0)
    if shape == "vector":
        if len(names) != 1:
            raise TranslationError("vector-shaped result needs one column")
        return vectors[names[0]]
    if shape == "dict":
        return QDict(
            QVector(QType.SYMBOL, names),
            QList([vectors[n] for n in names]),
        )
    if shape == "dict_keyed":
        key_names = [n for n in names if n in keys]
        value_names = [n for n in names if n not in keys]
        if len(key_names) == 1 and len(value_names) == 1:
            return QDict(vectors[key_names[0]], vectors[value_names[0]])
        key_table = QTable(key_names, [vectors[n] for n in key_names])
        value_table = QTable(value_names, [vectors[n] for n in value_names])
        return QKeyedTable(key_table, value_table)
    if shape == "keyed" and keys:
        key_names = [n for n in names if n in keys]
        value_names = [n for n in names if n not in keys]
        key_table = QTable(key_names, [vectors[n] for n in key_names])
        value_table = QTable(value_names, [vectors[n] for n in value_names])
        return QKeyedTable(key_table, value_table)
    return QTable(names, [vectors[n] for n in names])


class ProtocolTranslator:
    """PT: an FSM walking one request through execute-and-pivot.

    ``execute`` receives the whole :class:`TranslationResult` (not bare
    SQL): the executor behind it keys the result cache on the
    statement's read set.
    ``serve`` is the executor's wire form
    (:meth:`repro.cache.executor.QueryExecutor.serve`): its answer may be
    a cached result's memoised QIPC reply frame, and the walk then goes
    from ``executing`` straight to ``responding`` with no pivot.
    """

    def __init__(self, execute, serve=None):
        self._execute = execute
        self._serve = serve

    def respond(self, translation: TranslationResult) -> QValue:
        """Execute and pivot: the in-process answer."""
        return self._walk(translation, wire=False)[0]

    def respond_served(self, translation: TranslationResult):
        """The wire path: ``(value, served)`` where ``served`` is the
        executor's :class:`~repro.cache.result_cache.Served`.  On a memo
        hit ``served.reply`` is the answer and ``value`` is None."""
        return self._walk(translation, wire=True)

    def _walk(self, translation: TranslationResult, wire: bool):
        work: dict = {"value": None, "served": None}
        fsm = Fsm("protocol-translator", "idle")

        def do_execute(machine: Fsm, payload) -> None:
            with tracing.span("pt.execute"):
                if wire:
                    served = work["served"] = self._serve(
                        translation, want_reply=True
                    )
                    work["result"] = served.result
                else:
                    work["result"] = self._execute(translation)
            if work["result"] is None:
                machine.fire("memo_hit")
            else:
                machine.fire("results_ready")

        def do_pivot(machine: Fsm, payload) -> None:
            with tracing.span("pt.pivot"):
                work["value"] = pivot_result(
                    work["result"], translation.shape, translation.keys
                )
            machine.fire("pivoted")

        fsm.add_state("executing", on_enter=do_execute)
        fsm.add_state("pivoting", on_enter=do_pivot)
        fsm.add_state("responding")
        fsm.add_transition("idle", "query_ready", "executing")
        fsm.add_transition("executing", "results_ready", "pivoting")
        fsm.add_transition("executing", "memo_hit", "responding")
        fsm.add_transition("pivoting", "pivoted", "responding")
        fsm.fire("query_ready")
        return work["value"], work["served"]
