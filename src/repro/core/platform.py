"""HyperQ platform facade.

Wires together the pieces of Figure 1 for the common in-process case: a
PG-compatible engine as the backend, a direct gateway, a server-level
variable scope, and per-client sessions.  The socket-level deployment
(QIPC endpoint + PG-wire gateway) lives in :mod:`repro.server`.
"""

from __future__ import annotations

from repro.cache import ResultCache
from repro.config import HyperQConfig
from repro.core.backends import ExecutionBackend
from repro.core.metadata import BackendPort, MetadataInterface
from repro.core.pipeline import TranslationCache
from repro.core.scopes import ServerScope
from repro.core.session import ExecutionOutcome, HyperQSession
from repro.obs import configure as obs_configure
from repro.qlang.values import QValue
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import ResultSet
from repro.wlm import WorkloadManager
from repro.wlm.deadline import current_deadline


class DirectGateway(ExecutionBackend):
    """The in-process execution backend: direct engine calls, no network.

    Deadline enforcement is cooperative: there is no socket to time out,
    so the gateway checks the request deadline at the statement boundary
    (the in-memory engine executes statements in microseconds; a
    finer-grained check would buy nothing).
    """

    name = "in-process"

    def __init__(self, engine: Engine):
        self.engine = engine

    def run_sql(self, sql: str) -> ResultSet:
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("backend.execute")
        return self.engine.execute(sql)

    def catalog_version(self) -> int:
        return self.engine.catalog.version

    def load_columns(
        self, name: str, columns: list, column_data: list,
        temporary: bool = False,
    ) -> None:
        self.engine.catalog.drop(name, if_exists=True)
        self.engine.create_table_from_columns(
            name, columns, column_data, temporary=temporary
        )


class HyperQ:
    """The data virtualization platform: Q in, PG-compatible SQL out.

    Owns what every session shares: the backend, the workload manager,
    the server scope, the MDI and both caches.  :class:`HyperQServer`
    serves the same assembly over QIPC.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        config: HyperQConfig | None = None,
        backend: BackendPort | None = None,
    ):
        self.config = config or HyperQConfig()
        obs_configure(self.config.observability)
        # a passed backend needs no engine of its own
        self.engine = engine
        if backend is None:
            self.engine = engine or Engine()
            backend = DirectGateway(self.engine)
        # platform-wide workload management: one admission domain, one
        # retry budget and one breaker per backend, and the backend is
        # wrapped before the MDI so metadata reads get the same recovery
        # policies as query execution (docs/WLM.md)
        self.wlm = (
            WorkloadManager(self.config.wlm)
            if self.config.wlm.enabled
            else None
        )
        if self.wlm is not None:
            backend = self.wlm.wrap_backend(backend)
        self.backend = backend
        self.server_scope = ServerScope()
        self.mdi = MetadataInterface(self.backend, self.config.metadata_cache)
        # one translation cache for the whole platform: repeat statements
        # hit across sessions (the scope fingerprint keeps them honest)
        self.translation_cache = TranslationCache(self.config.translation_cache)
        # likewise one result cache: the version-vector key makes entries
        # safe to share between sessions (docs/CACHING.md)
        self.result_cache = ResultCache(self.config.result_cache)

    def create_session(self) -> HyperQSession:
        return HyperQSession(self)

    # -- conveniences ------------------------------------------------------------

    def q(self, text: str) -> QValue | None:
        """One-shot execution of a Q message in a fresh session."""
        session = self.create_session()
        try:
            return session.execute(text)
        finally:
            session.close()

    def translate(self, text: str) -> ExecutionOutcome:
        """One-shot translation (no data access) of a Q message."""
        session = self.create_session()
        try:
            return session.translate(text)
        finally:
            session.close()
