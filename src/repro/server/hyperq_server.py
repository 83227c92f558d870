"""Deployable server assemblies (Figure 1 end to end).

* :class:`KdbServer` — the "before" picture: a QIPC server over the
  reference interpreter, i.e. the kdb+ a Q application originally talked
  to (serial execution, just like kdb+'s main loop).
* :class:`HyperQServer` — the "after" picture: the same QIPC surface, but
  every query runs through Hyper-Q's translation pipeline against a
  PG-compatible backend (in-process engine or a remote PG-wire server via
  the network gateway).

Because both speak identical QIPC, a Q application connects to either
without changes — the paper's central claim.
"""

from __future__ import annotations

from repro.analysis.concurrency.locks import make_lock
from repro.config import HyperQConfig
from repro.core.backends import PooledBackend
from repro.core.metadata import BackendPort
from repro.core.platform import HyperQ
from repro.qipc.handshake import Authenticator
from repro.qlang.interp import Interpreter
from repro.qlang.values import QValue
from repro.server.endpoint import ConnectionHandler, QipcEndpoint
from repro.sqlengine.engine import Engine
from repro.wlm import Deadline


class KdbServer(QipcEndpoint):
    """QIPC over the reference interpreter; one global interpreter state
    and a lock, matching kdb+'s single-threaded main loop."""

    def __init__(
        self,
        interpreter: Interpreter | None = None,
        authenticator: Authenticator | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.interpreter = interpreter or Interpreter()
        self._lock = make_lock("server.kdb_interp")

        def handler_factory() -> ConnectionHandler:
            return _KdbHandler(self)

        super().__init__(handler_factory, authenticator, host, port)

    def run_query(self, query: str) -> QValue | None:
        with self._lock:
            return self.interpreter.eval_text(query)


class _KdbHandler(ConnectionHandler):
    def __init__(self, server: KdbServer):
        self.server = server

    def execute(self, query: str) -> QValue | None:
        return self.server.run_query(query)


class HyperQServer(QipcEndpoint, HyperQ):
    """QIPC in front, PG-compatible SQL behind: the Hyper-Q deployment.

    The platform assembly (:class:`HyperQ`: backend, WLM, MDI, both
    caches) served over the QIPC endpoint.  Each connection gets its own
    :class:`~repro.core.session.HyperQSession` (local/session scopes per
    Figure 3) over the shared server scope and backend.  The paper's
    "configurable concurrency" (Section 5; kdb+ is strictly serial) is
    ``ServerConfig.worker_threads`` server-wide and ``WlmConfig.classes``
    per query class.
    """

    def __init__(
        self,
        backend: BackendPort | None = None,
        engine: Engine | None = None,
        config: HyperQConfig | None = None,
        authenticator: Authenticator | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        HyperQ.__init__(self, engine=engine, config=config, backend=backend)
        QipcEndpoint.__init__(
            self, lambda: _HyperQHandler(self), authenticator, host, port,
            server_config=self.config.server,
        )

    def request_deadline(self) -> Deadline | None:
        """The WLM default deadline, armed as a reactor timer per query.

        It becomes the deadline of the request's context, so the
        session's cooperative checks and the loop timer agree on one
        expiry; whichever notices first answers the client (docs/WLM.md,
        docs/ARCHITECTURE.md).
        """
        if self.wlm is None:
            return None
        return self.wlm.deadline_for_request()

    @classmethod
    def pooled(
        cls,
        connection_factory,
        config: HyperQConfig | None = None,
        **kwargs,
    ) -> "HyperQServer":
        """A server whose sessions share a bounded connection pool.

        ``connection_factory`` builds one connected
        :class:`~repro.core.backends.ExecutionBackend` (typically a
        :class:`~repro.server.gateway.NetworkGateway`); pool sizing comes
        from ``config.backend_pool``.
        """
        config = config or HyperQConfig()
        pool = PooledBackend(
            connection_factory,
            size=config.backend_pool.size,
            checkout_timeout=config.backend_pool.checkout_timeout,
        )
        return cls(backend=pool, config=config, **kwargs)


class _HyperQHandler(ConnectionHandler):
    def __init__(self, server: HyperQServer):
        self.server = server
        self.session = server.create_session()

    def execute(self, query: str) -> QValue | None:
        return self.session.execute(query)

    def respond(self, query: str, sync: bool) -> bytes | None:
        """Sync messages take the session's reply path, which answers a
        cached read with its memoised frame; async ones never touch it."""
        if not sync:
            return super().respond(query, sync)
        return self.session.reply(query)

    def close(self) -> None:
        self.session.close()
