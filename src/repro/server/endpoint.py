"""The Endpoint: Hyper-Q's kdb+-side plugin (paper Section 3.1).

A QIPC socket server that impersonates kdb+: it performs the
``user:password<N>\\0`` handshake, reads sync/async query messages, hands
the raw query text to a per-connection handler, and writes back the
framed response the handler returns (or a kdb+-style error response).

"Hyper-Q takes over kdb+ server by listening to incoming messages on the
port used by the original kdb+ server.  Q applications run unchanged."

Each connection is one :class:`repro.core.fsm.Fsm`-driven
:class:`QipcProtocol` on the reactor (the paper's Erlang-actor shape):
the loop thread parses frames out of a detached
:class:`~repro.server.common.BufferedSocketReader` and query execution
runs on the server's worker pool, so thousands of idle connections cost
no threads and a slow query never blocks the accept/read loop.  Per-
request deadlines are enforced twice: cooperatively on the worker (as
before) and by a reactor timer that answers the client the moment the
deadline passes, even if the worker is still stuck.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import Callable

from repro.analysis.concurrency.locks import make_lock
from repro.core.fsm import Fsm
from repro.errors import (
    AuthenticationError,
    ProtocolError,
    QError,
    ReproError,
)
from repro.obs import get_logger, metrics
from repro.obs.tracing import RequestContext, activate
from repro.qipc.decode import decode_value
from repro.qipc.encode import encode_error, encode_reply
from repro.qipc.handshake import Authenticator, AllowAll, parse_hello, server_ack
from repro.qipc.messages import (
    MessageType,
    QipcMessage,
    frame,
    poll_message,
)
from repro.qlang.qtypes import QType
from repro.qlang.values import QValue, QVector
from repro.server.common import BufferedSocketReader
from repro.server.reactor import Protocol, ReactorServer
from repro.wlm.deadline import Deadline

#: server-level telemetry, labelled server=qipc (the PG-wire server
#: reports the same families with server=pgwire)
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

_log = get_logger("server.endpoint")

#: a handler receives query text and returns a QValue (or None)
QueryHandler = Callable[[str], QValue | None]

#: a handler factory builds one handler per connection (session isolation)
HandlerFactory = Callable[[], "ConnectionHandler"]

#: the QIPC hello must fit in this many bytes (kdb+ closes otherwise)
HELLO_LIMIT = 1024

#: QIPC servers serving in this process.  While any is, what the process
#: held when it started (the loaded tables above all) is frozen out of the
#: garbage collector, so a full collection walks only what requests
#: allocate; the last one to stop hands it back.
_serving = 0
_serving_lock = make_lock("server.gc_freeze")


def _freeze_heap() -> None:
    global _serving
    with _serving_lock:
        _serving += 1
        gc.collect()
        gc.freeze()


def _thaw_heap() -> None:
    global _serving
    with _serving_lock:
        _serving -= 1
        if not _serving:
            gc.unfreeze()


class ConnectionHandler:
    """Per-connection query processing; close() runs at disconnect."""

    def execute(self, query: str) -> QValue | None:
        raise NotImplementedError

    def respond(self, query: str, sync: bool) -> bytes | None:
        """Run ``query``: the framed RESPONSE for a sync message, None for
        an async one.  This is the endpoint's only success path; a
        handler that can answer with bytes it already holds overrides
        it (``HyperQServer`` serves result-cache hits this way)."""
        result = self.execute(query)
        return encode_reply(result) if sync else None

    def close(self) -> None:
        return None


class _CallableHandler(ConnectionHandler):
    def __init__(self, fn: QueryHandler):
        self.fn = fn

    def execute(self, query: str) -> QValue | None:
        return self.fn(query)


class _Job:
    """One in-flight query: the message, its request, its loop timer."""

    __slots__ = ("message", "context", "timer", "responded")

    def __init__(self, message: QipcMessage, context: RequestContext):
        self.message = message
        #: the request's one context object: created here on the loop,
        #: activated on the worker and handed on from there
        self.context = context
        self.timer = None
        #: True once a response (result, error, or deadline error) has
        #: been written — a late worker result is then discarded
        self.responded = False


class QipcProtocol(Protocol):
    """One QIPC connection as a reactor-driven state machine.

    States mirror the connection lifecycle: ``hello`` (handshake bytes
    pending) -> ``ready`` (idle between queries) <-> ``executing`` (one
    query on the worker pool) -> ``closed``.  Frames arriving while a
    query executes queue in the inbox; responses stay strictly FIFO per
    connection, exactly like the old thread-per-connection loop.
    """

    def __init__(self, server: "QipcEndpoint"):
        self.server = server
        self.reader = BufferedSocketReader.detached(
            server.server_config.recv_size
        )
        self.handler: ConnectionHandler | None = None
        self._inbox: deque[QipcMessage] = deque()
        self._job: _Job | None = None
        self._authed = False
        fsm = Fsm("qipc-conn", "hello")
        fsm.add_state("ready", on_enter=lambda f, p: self._maybe_dispatch())
        fsm.add_state("executing")
        fsm.add_state("closed")
        fsm.add_transition("hello", "authenticated", "ready")
        fsm.add_transition(
            "ready", "message", "executing",
            action=lambda f, message: self._dispatch(message),
        )
        fsm.add_transition("executing", "finished", "ready")
        for state in ("hello", "ready", "executing"):
            fsm.add_transition(state, "disconnect", "closed")
        self.fsm = fsm

    # -- loop-thread event handlers ----------------------------------------

    def data_received(self, data: bytes) -> None:
        self.reader.feed(data)
        if self.fsm.state == "hello" and not self._handshake():
            return
        if self.fsm.state == "closed":
            return
        while True:
            message = poll_message(
                self.reader, self.server.server_config.max_message_bytes
            )
            if message is None:
                break
            self._inbox.append(message)
        self._maybe_dispatch()

    def _handshake(self) -> bool:
        """Consume the hello if complete; False while bytes are pending
        or the connection was rejected."""
        hello = self.reader.poll_until(b"\x00", limit=HELLO_LIMIT)
        if hello is None:
            return False
        try:
            credentials = parse_hello(hello)
            self.server.authenticator.authenticate(credentials)
        except AuthenticationError:
            self.transport.close()  # close without an ack, as kdb+ does
            return False
        except ProtocolError as exc:
            _log.warning("bad_hello", message=str(exc))
            self.transport.close()
            return False
        self.transport.write(server_ack(credentials.capability))
        self.handler = self.server.handler_factory()
        self._authed = True
        ACTIVE_SESSIONS.inc(server="qipc")
        self.fsm.fire("authenticated")
        return True

    def _maybe_dispatch(self) -> None:
        if self._inbox and self.fsm.can_fire("message"):
            self.fsm.fire("message", self._inbox.popleft())

    def _dispatch(self, message: QipcMessage) -> None:
        """ready -> executing: create the request's context, hand the
        query to the worker pool and arm the deadline timer on the loop."""
        deadline = self.server.request_deadline()
        job = _Job(message, RequestContext(deadline))
        self._job = job
        if deadline is not None:
            job.timer = self.transport.reactor.call_later(
                max(deadline.remaining(), 0.0),
                lambda: self._deadline_fired(job),
            )
        self.server.workers.submit(lambda: self._run_job(job))

    def _deadline_fired(self, job: _Job) -> None:
        """Loop timer: the deadline passed with the worker still busy.

        Answer the client now (the old socket-timeout behaviour, without
        a socket timeout); the worker's own cooperative checks raise
        shortly after and that late result is discarded.  The FSM stays
        in ``executing`` until the worker actually returns, preserving
        strict per-connection serialization of handler state.
        """
        if job is not self._job or job.responded or self.transport.closed:
            return
        job.responded = True
        ERRORS_TOTAL.inc(error="DeadlineExceededError", server="qipc")
        _log.warning("deadline_fired", where="server.loop")
        if job.message.msg_type == MessageType.SYNC:
            self.transport.write(_error_reply("wlm-deadline"))

    def _job_done(self, job: _Job, response: bytes | None,
                  fatal: bool) -> None:
        """Worker completion, back on the loop thread."""
        if job.timer is not None:
            job.timer.cancel()
        if self._job is job:
            self._job = None
        if self.fsm.state == "closed" or self.transport.closed:
            self._close_handler()
            return
        if response is not None and not job.responded:
            self.transport.write(response)
        job.responded = True
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
        if self._authed:
            self._authed = False
            ACTIVE_SESSIONS.dec(server="qipc")
        if self._job is None:
            self._close_handler()
        # else: the in-flight worker's _job_done runs the close, so the
        # handler is never closed while a query is still using it

    def _close_handler(self) -> None:
        handler, self.handler = self.handler, None
        if handler is None:
            return

        def run() -> None:
            try:
                handler.close()
            except Exception as exc:
                # session teardown runs backend SQL (temp-table drops,
                # promotion); a pooled/network backend failing here must
                # not kill its worker thread
                ERRORS_TOTAL.inc(error=type(exc).__name__, server="qipc")
                _log.warning("handler_close_error", message=str(exc))

        self.server.workers.submit(run)

    # -- worker thread -----------------------------------------------------

    def _run_job(self, job: _Job) -> None:
        message = job.message
        started = time.perf_counter()
        response: bytes | None = None
        fatal = False
        is_sync = message.msg_type == MessageType.SYNC
        try:
            try:
                query = _extract_query(message.payload)
                with activate(job.context):
                    response = self.handler.respond(query, is_sync)
            except QError as exc:
                ERRORS_TOTAL.inc(error=type(exc).__name__, server="qipc")
                _log.warning(
                    "query_error", signal=exc.signal, message=str(exc)
                )
                if is_sync:
                    response = _error_reply(exc.signal)
            except ReproError as exc:
                ERRORS_TOTAL.inc(error=type(exc).__name__, server="qipc")
                _log.warning("query_error", message=str(exc))
                if is_sync:
                    response = _error_reply(str(exc)[:200])
            except Exception as exc:
                # a non-Repro crash dropped the whole connection in the
                # threaded server; keep that contract
                ERRORS_TOTAL.inc(error=type(exc).__name__, server="qipc")
                _log.warning(
                    "query_crash", error=type(exc).__name__,
                    message=str(exc)[:200],
                )
                fatal = True
        finally:
            QUERIES_TOTAL.inc(
                kind=message.msg_type.name.lower(), server="qipc"
            )
            QUERY_SECONDS.observe(time.perf_counter() - started, server="qipc")
        self.transport.reactor.call_soon_threadsafe(
            lambda: self._job_done(job, response, fatal)
        )


class QipcEndpoint(ReactorServer):
    """Generic QIPC server; Hyper-Q and the mini-kdb+ demo both use it."""

    label = "qipc"

    def __init__(
        self,
        handler_factory: HandlerFactory,
        authenticator: Authenticator | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        server_config=None,
    ):
        super().__init__(host, port, server_config)
        self.handler_factory = handler_factory
        self.authenticator = authenticator or AllowAll()
        self._frozen = False

    def start(self) -> "QipcEndpoint":
        super().start()
        if not self._frozen:
            self._frozen = True
            _freeze_heap()
        return self

    def stop(self) -> None:
        super().stop()
        if self._frozen:
            self._frozen = False
            _thaw_heap()

    @classmethod
    def from_function(
        cls,
        fn: QueryHandler,
        authenticator: Authenticator | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> "QipcEndpoint":
        """Endpoint whose every connection shares one query function."""
        return cls(lambda: _CallableHandler(fn), authenticator, host, port)

    def build_protocol(self) -> QipcProtocol:
        return QipcProtocol(self)

    def request_deadline(self) -> Deadline | None:
        """The per-request deadline the loop should enforce with a timer;
        None disables the timer (the generic endpoint has no WLM)."""
        return None


def _error_reply(text: str) -> bytes:
    """kdb+-style error RESPONSE frame."""
    return frame(QipcMessage(MessageType.RESPONSE, encode_error(text)))


def _extract_query(payload: bytes) -> str:
    """Queries arrive as char vectors (raw text), per the paper."""
    value = decode_value(payload)
    if isinstance(value, QVector) and value.qtype == QType.CHAR:
        return "".join(value.items)
    raise QError("query message must be a string", signal="type")
