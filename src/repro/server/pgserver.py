"""A PG v3 wire server wrapping the in-memory SQL engine.

This is the Greenplum stand-in: it speaks enough of the protocol for
Hyper-Q's gateway (and any simple-query PG client) — start-up with
pluggable authentication, simple query with RowDescription/DataRow
streaming, CommandComplete, ReadyForQuery, and error reporting.

Like the QIPC endpoint, every connection is an FSM-driven protocol on
the reactor: the loop thread polls complete frames out of a detached
:class:`~repro.pgwire.codec.PgFrameStream` and statement execution runs
on the worker pool.  The engine serializes itself: ``Engine.execute_all``
holds the engine lock across a connection's whole statement batch (like
kdb+, it executes one statement at a time); parsing runs outside it.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

from repro.core.fsm import Fsm
from repro.errors import (
    AuthenticationError,
    MetadataError,
    ReproError,
    SqlCatalogError,
    SqlSyntaxError,
    SqlTypeError,
)
from repro.obs import get_logger, metrics
from repro.pgwire import messages as m
from repro.pgwire.auth import AuthContext, AuthMechanism, TrustAuth
from repro.pgwire.codec import (
    PgFrameStream,
    decode_frontend,
    encode_backend,
    encode_data_rows,
)
from repro.server.reactor import Protocol, ReactorServer
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import render_value

#: same metric families as the QIPC endpoint, labelled server=pgwire
ACTIVE_SESSIONS = metrics.gauge(
    "server_active_sessions", "Connections currently being served"
)
QUERIES_TOTAL = metrics.counter(
    "server_queries_total", "Queries served, by message kind"
)
ERRORS_TOTAL = metrics.counter(
    "server_errors_total", "Query errors, by exception class"
)
QUERY_SECONDS = metrics.histogram(
    "server_query_seconds", "End-to-end per-query latency at the server"
)

_log = get_logger("server.pgwire")

#: engine error class -> SQLSTATE, so clients (and Hyper-Q's gateway)
#: see *why* a statement failed, not a generic XX000
_SQLSTATE_BY_ERROR = (
    (SqlSyntaxError, "42601"),  # syntax_error
    (SqlCatalogError, "42P01"),  # undefined_table (closest family)
    (SqlTypeError, "42804"),  # datatype_mismatch
    (MetadataError, "42P01"),
)


def _sqlstate_for(exc: Exception) -> str:
    for klass, code in _SQLSTATE_BY_ERROR:
        if isinstance(exc, klass):
            return code
    return "XX000"  # internal_error


class PgProtocol(Protocol):
    """One PG v3 connection as a reactor-driven state machine.

    ``startup`` (waiting for the StartupMessage) -> ``auth`` (password
    exchange, skipped under trust) -> ``ready`` <-> ``executing`` ->
    ``closed``.
    """

    def __init__(self, server: "PgWireServer"):
        self.server = server
        self.stream = PgFrameStream.detached()
        self.ctx: AuthContext | None = None
        self._inbox: deque[m.FrontendMessage] = deque()
        self._executing = False
        self._session_open = False
        fsm = Fsm("pg-conn", "startup")
        fsm.add_state("auth", on_enter=lambda f, p: self._begin_auth())
        fsm.add_state("ready", on_enter=lambda f, p: self._on_ready())
        fsm.add_state("executing")
        fsm.add_state("closed")
        fsm.add_transition("startup", "started", "auth")
        fsm.add_transition("auth", "authenticated", "ready")
        fsm.add_transition(
            "ready", "query", "executing",
            action=lambda f, sql: self._dispatch(sql),
        )
        fsm.add_transition("executing", "finished", "ready")
        for state in ("startup", "auth", "ready", "executing"):
            fsm.add_transition(state, "disconnect", "closed")
        self.fsm = fsm

    # -- loop-thread event handlers ----------------------------------------

    def data_received(self, data: bytes) -> None:
        self.stream.feed(data)
        self._pump()

    def _pump(self) -> None:
        max_bytes = self.server.server_config.max_message_bytes
        while True:
            state = self.fsm.state
            if state == "closed" or self.transport.closed:
                return
            if state == "startup":
                startup = self.stream.poll_startup(max_bytes)
                if startup is None:
                    return
                self.ctx = AuthContext(startup.user)
                self.fsm.fire("started")
                continue
            pending = self.stream.poll_frame(max_bytes)
            if pending is None:
                return
            message = decode_frontend(*pending)
            if state == "auth":
                self._check_password(message)
                continue
            self._inbox.append(message)
            self._maybe_dispatch()

    def _begin_auth(self) -> None:
        """auth entry: trust connections pass straight through, others
        get their mechanism's challenge."""
        if self.server.auth.request_code == 0:
            self.fsm.fire("authenticated")
            return
        salt = self.server.auth.challenge(self.ctx)
        self._send(m.AuthenticationRequest(self.server.auth.request_code, salt))

    def _check_password(self, message: m.FrontendMessage) -> None:
        if not isinstance(message, m.PasswordMessage):
            self._send(m.ErrorResponse(message="expected a password message"))
            self.transport.close()
            return
        try:
            self.server.auth.verify(self.ctx, message.password)
        except AuthenticationError as exc:
            self._send(m.ErrorResponse(message=str(exc), code="28P01"))
            self.transport.close()
            return
        self.fsm.fire("authenticated")

    def _on_ready(self) -> None:
        if not self._session_open:
            # first entry: the welcome sequence ends the startup phase
            self._session_open = True
            self._send(m.AuthenticationRequest(0))
            self._send(m.ParameterStatus("server_version", "9.2-repro"))
            self._send(m.BackendKeyData(self.server.next_pid(), 0xC0FFEE))
            self._send(m.ReadyForQuery("I"))
            ACTIVE_SESSIONS.inc(server="pgwire")
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        while self._inbox and self.fsm.can_fire("query"):
            message = self._inbox.popleft()
            if isinstance(message, m.Terminate):
                self._inbox.clear()
                self.transport.close()
                return
            if not isinstance(message, m.Query):
                self._send(m.ErrorResponse(message="unsupported message"))
                self._send(m.ReadyForQuery("I"))
                continue
            self.fsm.fire("query", message.sql)

    def _dispatch(self, sql: str) -> None:
        self.server.workers.submit(lambda: self._run_query(sql))

    def _job_done(self, response: bytes, fatal: bool) -> None:
        if self.fsm.state == "closed" or self.transport.closed:
            return
        self.transport.write(response)
        if fatal:
            self.transport.close()
            return
        # fire (not can_fire-guarded): a synchronous worker completes
        # inside the dispatch transition, and the FSM's event queue is
        # exactly the re-entrance mechanism that makes that safe
        self.fsm.fire("finished")

    def connection_lost(self, exc: Exception | None) -> None:
        if self.fsm.can_fire("disconnect"):
            self.fsm.fire("disconnect")
        self.stream.flush()
        if self._session_open:
            self._session_open = False
            ACTIVE_SESSIONS.dec(server="pgwire")

    def _send(self, message: m.BackendMessage) -> None:
        self.transport.write(encode_backend(message))

    # -- worker thread -----------------------------------------------------

    def _run_query(self, sql: str) -> None:
        fatal = False
        if not sql.strip():
            response = encode_backend(m.EmptyQueryResponse()) + encode_backend(
                m.ReadyForQuery("I")
            )
        else:
            started = time.perf_counter()
            QUERIES_TOTAL.inc(kind="simple", server="pgwire")
            try:
                try:
                    results = self.server.engine.execute_all(sql)
                except ReproError as exc:
                    ERRORS_TOTAL.inc(
                        error=type(exc).__name__, server="pgwire"
                    )
                    _log.warning("query_error", message=str(exc))
                    response = encode_backend(
                        m.ErrorResponse(
                            message=str(exc), code=_sqlstate_for(exc)
                        )
                    ) + encode_backend(m.ReadyForQuery("I"))
                except Exception as exc:
                    ERRORS_TOTAL.inc(
                        error=type(exc).__name__, server="pgwire"
                    )
                    _log.warning(
                        "query_crash", error=type(exc).__name__,
                        message=str(exc)[:200],
                    )
                    response = encode_backend(
                        m.ErrorResponse(message="internal error")
                    )
                    fatal = True
                else:
                    # one write per statement batch: every result's
                    # messages plus the trailing ReadyForQuery together
                    parts = [
                        self.server._result_bytes(result)
                        for result in results
                    ]
                    parts.append(encode_backend(m.ReadyForQuery("I")))
                    response = b"".join(parts)
            finally:
                QUERY_SECONDS.observe(
                    time.perf_counter() - started, server="pgwire"
                )
        self.transport.reactor.call_soon_threadsafe(
            lambda: self._job_done(response, fatal)
        )


class PgWireServer(ReactorServer):
    """Serves the engine over PG v3; one session per connection."""

    label = "pgwire"

    def __init__(
        self,
        engine: Engine | None = None,
        auth: AuthMechanism | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        server_config=None,
    ):
        super().__init__(host, port, server_config)
        self.engine = engine or Engine()
        self.auth = auth or TrustAuth()
        self._next_pid = itertools.count(1000)

    def build_protocol(self) -> PgProtocol:
        return PgProtocol(self)

    def next_pid(self) -> int:
        # called on the reactor thread (_on_ready -> BackendKeyData);
        # a count step is a single GIL-atomic op, so no lock is held
        # on the event loop (CC003)
        return next(self._next_pid)

    def _result_bytes(self, result: ResultSet) -> bytes:
        if result.columns:
            fields = [
                m.FieldDescription(
                    column.name,
                    m.TYPE_OIDS.get(column.sql_type.value, 25),
                )
                for column in result.columns
            ]
            column_types = [column.sql_type for column in result.columns]
            # the PG side of Figure 5: one DataRow message per row, all
            # framed in one batched pass
            row_cells = [
                [
                    None
                    if value is None
                    else render_value(value, sql_type).encode("utf-8")
                    for value, sql_type in zip(row, column_types)
                ]
                for row in result.rows
            ]
            tag = f"SELECT {len(row_cells)}"
            return b"".join(
                (
                    encode_backend(m.RowDescription(fields)),
                    encode_data_rows(row_cells),
                    encode_backend(m.CommandComplete(tag)),
                )
            )
        return encode_backend(m.CommandComplete(result.command))
