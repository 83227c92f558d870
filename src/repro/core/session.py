"""HyperQSession: orchestration over the translation pipeline (Figure 1).

A session owns a session-level variable scope, one
:class:`~repro.core.pipeline.TranslationPipeline` (built once; the active
scope is passed per statement), the Protocol Translator and the
eager-materialization machinery; the metadata interface and both caches
are its platform's.  ``execute`` runs Q text end-to-end against the
backend; ``reply`` does the same for the QIPC server and returns the
framed response; ``translate`` stops after serialization and returns the
SQL (plus stage timings), which is what the evaluation section measures.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache import QueryExecutor
from repro.config import MaterializationMode
from repro.core.admin import match
from repro.core.algebrizer.binder import BoundScalar, BoundTable, _const_value
from repro.core.crosscompiler import ProtocolTranslator
from repro.core.materialize import (
    GLOBAL_PREFIX,
    MaterializationStep,
    Materializer,
)
from repro.core.pipeline import (
    StageTimings,
    TranslationPipeline,
    TranslationResult,
    TranslationUnit,
    stage_span,
)
from repro.core.scopes import (
    LocalScope,
    Scope,
    SessionScope,
    VarKind,
    VariableDef,
    called_function,
)
from repro.core.serializer import quote_ident
from repro.core.xtra.scalars import SConst
from repro.errors import QNotSupportedError, QRankError, QTypeError
from repro.obs import get_logger, metrics, tracing
from repro.qipc.encode import encode_reply
from repro.qipc.messages import resend
from repro.qlang import ast
from repro.qlang.parser import parse
from repro.qlang.qtypes import QType, from_sql
from repro.qlang.values import QAtom, QValue, QVector
from repro.wlm import classify_program, request_scope

if TYPE_CHECKING:
    from repro.core.platform import HyperQ

#: Q messages run through sessions, labelled mode=execute|translate
RUNS_TOTAL = metrics.counter(
    "hyperq_runs_total", "Q messages processed by Hyper-Q sessions"
)

_log = get_logger("core.session")


@dataclass
class ExecutionOutcome:
    """Result of running one Q message through Hyper-Q."""

    value: QValue | None
    sql_statements: list[str] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    rule_applications: dict[str, int] = field(default_factory=dict)
    #: messages answered from the translation cache (no pipeline run)
    cache_hits: int = 0
    #: pure-translation result of the last statement, feeding the cache;
    #: cleared whenever a statement takes a side-effecting path
    _last_translation: TranslationResult | None = field(
        default=None, repr=False
    )
    #: the message's value is the pivot of ``_last_translation``: one
    #: statement, and no side-effecting path taken
    _cacheable: bool = field(default=True, repr=False)
    #: the memoised QIPC reply frame that answered the message, if any
    reply: bytes | None = None
    #: set by ``HyperQSession.reply``: a memoised frame may answer
    _wire: bool = field(default=False, repr=False)
    #: the result-cache entry a freshly framed reply may be stored on
    _memo: tuple | None = field(default=None, repr=False)

    def mark_uncacheable(self) -> None:
        self._cacheable = False
        self._last_translation = None

    def add_rules(self, applications: dict[str, int]) -> None:
        """Add one translation's Xformer rule counts to the message's."""
        for rule, count in applications.items():
            self.rule_applications[rule] = (
                self.rule_applications.get(rule, 0) + count
            )


class HyperQSession:
    """One client's query life cycle over its platform's shared parts.

    Config, backend, workload manager, MDI, server scope and both caches
    all come from the :class:`~repro.core.platform.HyperQ` (or
    :class:`~repro.server.hyperq_server.HyperQServer`) that creates the
    session; what is the session's own is its scope (Figure 3), its
    pipeline and its materialized relations.
    """

    def __init__(self, platform: HyperQ):
        self.config = platform.config
        self.wlm = platform.wlm
        self.backend = platform.backend
        self.mdi = platform.mdi
        self.server_scope = platform.server_scope
        self.session_scope = SessionScope(self.server_scope)
        # one pipeline per session (no per-statement translator
        # reconstruction); scope per call
        self.pipeline = TranslationPipeline(self.mdi, self.config)
        self.translation_cache = platform.translation_cache
        self.materializer = Materializer(self.config)
        # the result cache is deployment-shared; the executor is the only
        # path to the backend from here down (lint rule HQ009)
        self.result_cache = platform.result_cache
        self.executor = QueryExecutor(self.backend, self.mdi, self.result_cache)
        self.pt = ProtocolTranslator(
            self.executor.execute, self.executor.serve
        )
        self._materialized: list[tuple[str, str]] = []  # (relation, kind)
        self._closed = False

    @property
    def xformer(self):
        """The pipeline's Xformer; assigning swaps it for the session
        (ablation benches reconfigure rules this way)."""
        return self.pipeline.xformer

    @xformer.setter
    def xformer(self, value) -> None:
        self.pipeline.xformer = value

    # -- public API ------------------------------------------------------------

    def execute(self, q_text: str) -> QValue | None:
        """Run a Q query message end-to-end; return the final Q value."""
        return self.run(q_text).value

    def run(self, q_text: str) -> ExecutionOutcome:
        return self._run(q_text, ExecutionOutcome(value=None))

    def reply(self, q_text: str) -> bytes:
        """Run a Q message end-to-end; return its framed QIPC response.

        The server's path.  A single-statement message whose value is
        the pivot of one cacheable read is answered with its result-cache
        entry's memoised reply frame when the entry holds one (no copy,
        pivot, encode or compression); otherwise the reply is framed
        here and, for such a read, memoised on the entry.
        """
        outcome = self._run(q_text, ExecutionOutcome(value=None, _wire=True))
        if outcome.reply is not None:
            return resend(outcome.reply)
        reply = encode_reply(outcome.value)
        if outcome._memo is not None:
            self.result_cache.store_reply(outcome._memo, reply)
        return reply

    def translate(self, q_text: str) -> ExecutionOutcome:
        """Translate without touching backend data (DDL is *not* executed;
        materialization is recorded logically so later statements bind)."""
        return self._run(q_text, ExecutionOutcome(value=None), execute=False)

    def close(self) -> list[str]:
        """Destroy the session scope: session variables are promoted to
        the server scope (paper Figure 3) and temp tables dropped.

        A promoted variable backed by a session temp table is persisted
        into a permanent relation first — in PG the pg_temp relation would
        vanish with the session.
        """
        if self._closed:
            return []
        promoted_defs = {
            name: definition
            for name, definition in self.session_scope.local_entries().items()
        }
        keep: set[str] = set()
        for name, definition in promoted_defs.items():
            if definition.kind == VarKind.TABLE and definition.relation:
                relation = definition.relation
                if any(r == relation and k == "temp_table"
                       for r, k in self._materialized):
                    permanent = f"{GLOBAL_PREFIX}{name}"
                    try:
                        self.executor.run_sql(
                            f"DROP TABLE IF EXISTS {quote_ident(permanent)}",
                            invalidates=[permanent],
                        )
                        self.executor.run_sql(
                            f"CREATE TABLE {quote_ident(permanent)} AS "
                            f"SELECT * FROM {quote_ident(relation)}",
                            invalidates=[permanent],
                        )
                        definition.relation = permanent
                        if definition.meta is not None:
                            definition.meta.name = permanent
                            definition.meta.schema = "public"
                        self.mdi.invalidate(permanent)
                    except Exception as exc:
                        _log.warning(
                            "session_promote_failed",
                            relation=relation,
                            error=str(exc),
                        )
                        keep.add(relation)
        promoted = self.session_scope.destroy()
        for relation, kind in self._materialized:
            if relation in keep:
                continue
            try:
                if kind == "view":
                    self.executor.run_sql(
                        f"DROP VIEW IF EXISTS {quote_ident(relation)}"
                    )
                else:
                    self.executor.run_sql(
                        f"DROP TABLE IF EXISTS {quote_ident(relation)}"
                    )
                self.mdi.invalidate(relation)
            except Exception as exc:
                # best-effort cleanup, but never silent (lint rule HQ002):
                # an undroppable temp table is worth a log line
                _log.warning(
                    "session_drop_failed",
                    relation=relation,
                    kind=kind,
                    error=str(exc),
                )
        self._materialized.clear()
        self._closed = True
        return promoted

    # -- the query life cycle ------------------------------------------------------

    def _run(self, q_text: str, outcome: ExecutionOutcome,
             execute: bool = True) -> ExecutionOutcome:
        scope = self.session_scope
        mode = "execute" if execute else "translate"
        RUNS_TOTAL.inc(mode=mode)

        cache = self.translation_cache
        key: tuple | None = None
        with tracing.span("hyperq.run", mode=mode) as run_span:
            if cache.enabled:
                key = cache.key_for(q_text, scope, self.mdi, self.xformer)
                cached = cache.get(key)
                if cached is not None:
                    # cache hits skip parse/classify; the entry remembers
                    # its class so the replay bills the right quota
                    with self._wlm_scope(cached.query_class, run_span):
                        return self._replay(cached, execute, outcome)

            with stage_span(outcome.timings, "parse"):
                program = parse(q_text)
            if len(program.statements) != 1:
                # neither cache may answer a multi-statement message
                outcome.mark_uncacheable()

            # billed after scope lookup: a stored-function call bills
            # by its body, even when it shadows an admin verb
            qclass = (
                classify_program(program.statements, scope.lookup).value
                if self.wlm is not None
                else "analytical"
            )
            with self._wlm_scope(qclass, run_span):
                for statement in program.statements:
                    outcome.value = self._run_statement(
                        statement, scope, execute, outcome
                    )

            if (
                key is not None
                and outcome._cacheable
                and outcome._last_translation is not None
            ):
                cache.put(key, outcome._last_translation)
        return outcome

    @contextmanager
    def _wlm_scope(self, query_class: str, run_span):
        """Admission + deadline for one request, on the request's context.

        A served request arrives with its context active (the endpoint
        made it, with the deadline its loop timer enforces) and the
        session joins it; otherwise the session opens one.  The context
        is active *before* admission so time spent queued counts against
        the deadline and a queued request whose deadline expires is shed,
        not started.  The run span takes ``wlm.*`` from it once, at exit.
        """
        if self.wlm is None:
            yield
            return
        context = tracing.current_context()
        scope = (
            request_scope(self.wlm.deadline_for_request())
            if context is None
            else nullcontext(context)
        )
        with scope as context:
            context.query_class = query_class
            try:
                with self.wlm.admit(query_class) as queued_seconds:
                    context.queued_seconds = queued_seconds
                    yield
            finally:
                run_span.attrs.update({
                    "wlm.class": query_class,
                    "wlm.queued_ms": round(context.queued_seconds * 1e3, 3),
                    "wlm.retries": context.retries,
                })

    def _replay(
        self, cached: TranslationResult, execute: bool,
        outcome: ExecutionOutcome,
    ) -> ExecutionOutcome:
        """Answer a message from the translation cache: the SQL, shape
        and rule counts are replayed; parse/bind/xform/serialize are
        skipped entirely (execution, if requested, still runs)."""
        outcome.cache_hits += 1
        outcome.sql_statements.append(cached.sql)
        outcome.add_rules(cached.rule_applications)
        if execute:
            outcome.value = self._respond(cached, outcome)
        return outcome

    def _respond(
        self, translation: TranslationResult, outcome: ExecutionOutcome
    ) -> QValue | None:
        """The PT's answer to one translated read.  On the wire path a
        read that is the whole message's value may be answered by its
        result-cache entry's reply frame (``outcome.reply``)."""
        if not (outcome._wire and outcome._cacheable):
            return self.pt.respond(translation)
        value, served = self.pt.respond_served(translation)
        outcome.reply, outcome._memo = served.reply, served.memo
        return value

    def _run_statement(
        self,
        statement: ast.Node,
        scope: Scope,
        execute: bool,
        outcome: ExecutionOutcome,
    ) -> QValue | None:
        if isinstance(statement, ast.Assign):
            outcome.mark_uncacheable()
            self._run_assign(statement, scope, execute, outcome)
            return None
        if isinstance(statement, ast.Return):
            return self._run_statement(statement.value, scope, execute, outcome)
        function = called_function(statement, scope.lookup)
        if function is not None:
            outcome.mark_uncacheable()
            return self._invoke_function(
                function, statement, scope, execute, outcome
            )
        admin = match(statement) if execute else None
        if admin is not None:
            outcome.mark_uncacheable()
            verb, argument = admin
            return verb.answer(self, scope, argument)
        if (
            isinstance(statement, ast.BinOp)
            and statement.op in ("insert", "upsert")
        ):
            outcome.mark_uncacheable()
            return self._run_insert(statement, scope, execute, outcome)
        translation = self.pipeline.translate(
            statement, scope, outcome.timings
        ).to_result()
        outcome._last_translation = translation
        outcome.sql_statements.append(translation.sql)
        outcome.add_rules(translation.rule_applications)
        if not execute:
            return None
        return self._respond(translation, outcome)

    # -- the write path: `t insert rows --------------------------------------------

    def _run_insert(
        self,
        statement: ast.Assign | ast.BinOp,
        scope: Scope,
        execute: bool,
        outcome: ExecutionOutcome,
    ) -> QValue | None:
        """``\\`t insert rows`` / ``upsert`` — append through the backend.

        The appended rows continue the target's implicit order column:
        ``ordcol = 1 + max(existing) + row_number() over the new rows``.
        Two backend statements: a ``count(*)`` for the first new index,
        then the INSERT, whose command tag (``INSERT 0 n``) gives the
        row count.  The count is not atomic with the INSERT, so two
        concurrent writers to one table can be answered each other's
        indices (ROADMAP item 7).
        """
        target_value = _const_value(statement.left)
        if not (
            isinstance(target_value, QAtom)
            and target_value.qtype == QType.SYMBOL
        ):
            raise QNotSupportedError(
                "insert expects a literal table name symbol on the left"
            )
        table_name = target_value.value
        definition = scope.lookup(table_name)
        relation = (
            definition.relation
            if definition is not None and definition.relation
            else table_name
        )
        meta = self.mdi.require_table(relation)

        # on a sharded backend the source's plan annotation ends up as a
        # comment inside the INSERT; only a leading plan is read, so the
        # write still routes as an unplanned statement
        source = self.pipeline.translate(
            statement.right, scope, outcome.timings, result=False
        )
        outcome.add_rules(source.rule_applications)
        if not isinstance(source.bound, BoundTable):
            raise QTypeError("insert expects a table of new rows")

        target_columns = [c.name for c in meta.data_columns]
        source_columns = [
            c.name for c in source.bound.op.visible_columns
        ]
        if set(source_columns) != set(target_columns):
            raise QTypeError(
                f"insert columns {source_columns} do not match table "
                f"{table_name!r} columns {target_columns}"
            )

        quoted_target = quote_ident(relation)
        select_list = ", ".join(quote_ident(c) for c in target_columns)
        insert_sql = (
            f"INSERT INTO {quoted_target} ({select_list}, "
            f'{quote_ident("ordcol")}) '
            f"SELECT {select_list}, "
            f"(SELECT coalesce(max({quote_ident('ordcol')}), -1) "
            f"FROM {quoted_target}) + row_number() OVER () "
            f"FROM ({source.sql}) AS hq_ins"
        )
        outcome.sql_statements.append(insert_sql)
        if not execute:
            return None
        before = self.executor.run_sql(
            f"SELECT count(*) FROM {quoted_target}"
        ).scalar()
        tag = self.executor.run_sql(insert_sql, invalidates=[relation]).command
        inserted = int(tag.split()[-1])  # INSERT 0 n
        return QVector(QType.LONG, list(range(before, before + inserted)))

    # -- assignments & materialization ---------------------------------------------

    def _run_assign(
        self,
        statement: ast.Assign,
        scope: Scope,
        execute: bool,
        outcome: ExecutionOutcome,
    ) -> None:
        if statement.indices:
            raise QNotSupportedError(
                "indexed amend through Hyper-Q is not in the supported surface"
            )
        if statement.op is not None:
            raise QNotSupportedError(
                "compound assignment through Hyper-Q is not in the supported "
                "surface"
            )
        target_scope = self.session_scope if statement.global_scope else scope

        # function definition: store source text, re-algebrized on call
        if isinstance(statement.value, ast.Lambda):
            self.materializer.store_function(
                statement.target, statement.value.source, target_scope
            )
            return
        self._bind_name(
            statement.target, statement.value, scope, target_scope, execute,
            outcome,
        )

    def _bind_name(
        self,
        name: str,
        expr: ast.Node,
        scope: Scope,
        target_scope: Scope,
        execute: bool,
        outcome: ExecutionOutcome,
    ) -> None:
        """Bind ``name`` in ``target_scope`` to the Q expression ``expr``
        (an assignment's value or a function argument), translated in
        ``scope`` by the pipeline like any read.

        Scalars, and atom-valued reads when executing, go to the variable
        store (Section 4.3's logical materialization of scalars); every
        other value keeps a relation through the materializer.
        Translate-only mode cannot evaluate, so an atom-valued read keeps
        its relation there.
        """
        unit = self.pipeline.translate(expr, scope, outcome.timings, result=False)
        outcome.add_rules(unit.rule_applications)
        if unit.shape == "atom" and (execute or isinstance(unit.bound, BoundScalar)):
            value = self._scalar_value(unit, execute)
            self.materializer.store_scalar(name, value, target_scope)
            return
        # function-local values (assignments in a body, arguments) must be
        # physically snapshotted; the paper's Example 3 materializes dt as
        # a temporary table
        mode = self.config.materialization
        if isinstance(scope, LocalScope) or isinstance(target_scope, LocalScope):
            mode = MaterializationMode.PHYSICAL
        step = self.materializer.materialize_table(name, unit, target_scope, mode)
        outcome.sql_statements.append(step.sql)
        if execute:
            self._execute_materialization(step)

    def _execute_materialization(self, step: MaterializationStep) -> None:
        """Run one materialization step's DDL in the backend: a temp
        table holds the defining SELECT's result at assignment time
        (docs/CACHING.md), a view re-runs it on every read."""
        self.executor.run_sql(step.sql)
        self.mdi.invalidate(step.relation)
        self._materialized.append((step.relation, step.kind))

    def _scalar_value(self, unit: TranslationUnit, execute: bool) -> QValue:
        bound = unit.bound
        if isinstance(bound, BoundScalar) and isinstance(bound.scalar, SConst):
            return _const_to_qvalue(bound.scalar)
        if not execute:
            raise QNotSupportedError(
                "translate-only mode cannot evaluate non-literal scalar "
                "assignments"
            )
        return self.pt.respond(unit.to_result())

    # -- function unrolling ------------------------------------------------------------

    def _invoke_function(
        self, definition: VariableDef, statement: ast.Apply, scope: Scope,
        execute: bool, outcome: ExecutionOutcome,
    ) -> QValue | None:
        with stage_span(outcome.timings, "parse"):
            lam = definition.function_lambda()
        args = [a for a in statement.args if a is not None]
        if len(args) != len(lam.params) and args:
            raise QRankError(
                f"function {definition.name!r} of rank {len(lam.params)} "
                f"applied to {len(args)} arguments"
            )

        local = LocalScope(scope)
        for param, arg in zip(lam.params, args):
            self._bind_name(param, arg, scope, local, execute, outcome)

        result: QValue | None = None
        for body_statement in lam.body:
            result = self._run_statement(body_statement, local, execute, outcome)
            if isinstance(body_statement, ast.Return):
                break
        return result


def _const_to_qvalue(scalar) -> QValue:
    """Convert a bound literal back to its Q value for the variable store."""
    qtype = from_sql(scalar.type_)
    if scalar.value is None:
        return QAtom(qtype, qtype.spec.null)
    return QAtom(qtype, scalar.value)
