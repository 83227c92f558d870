"""Pluggable execution backends (the right-hand side of Figure 1).

The translation pipeline produces SQL; *where* that SQL runs is an
interchangeable concern.  :class:`ExecutionBackend` is the protocol every
target implements — three implementations ship with the repo:

* :class:`~repro.core.platform.DirectGateway` — the in-process
  ``sqlengine`` (no network, used by tests and the platform facade);
* :class:`~repro.server.gateway.NetworkGateway` — one PG v3 wire
  connection (blocking, one statement at a time);
* :class:`PooledBackend` (here) — multiplexes a bounded pool of backend
  connections with checkout timeouts and dead-connection replacement, so
  many :class:`~repro.core.session.HyperQSession`\\ s execute
  concurrently against one logical backend.

Note on pooling semantics: session-scoped backend state (PG temp tables)
is only safe behind a pool when the backend shares one catalog across
connections, as the in-memory engine does.  Against a real PG,
materialization should use the session's dedicated connection — the
protocol keeps that choice per-deployment.
"""

from __future__ import annotations

import time

from repro.analysis.concurrency.locks import make_condition
from repro.core.metadata import BackendPort
from repro.errors import PoolTimeoutError, ProtocolError
from repro.obs import get_logger, metrics

#: pool telemetry, labelled pool=<name>
POOL_SIZE = metrics.gauge(
    "backend_pool_connections", "Open connections held by a backend pool"
)
POOL_IN_USE = metrics.gauge(
    "backend_pool_in_use", "Pooled connections currently checked out"
)
POOL_CHECKOUT_TIMEOUTS = metrics.counter(
    "backend_pool_checkout_timeouts_total",
    "Checkouts that gave up waiting for a free connection",
)
POOL_REPLACEMENTS = metrics.counter(
    "backend_pool_replacements_total",
    "Dead pooled connections discarded and replaced",
)
POOL_CHECKOUT_SECONDS = metrics.histogram(
    "backend_pool_checkout_seconds",
    "Wall-clock wait to check a connection out of the pool",
)

_log = get_logger("core.backends")

#: transport-level failures that mean "this connection is dead" (SQL
#: errors leave the connection healthy and are re-raised as-is)
TRANSPORT_ERRORS = (OSError, ConnectionError, EOFError, ProtocolError)


class ExecutionBackend(BackendPort):
    """Protocol for anything the pipeline's SQL can execute against.

    Extends :class:`~repro.core.metadata.BackendPort` (``run_sql`` +
    ``catalog_version``) with lifecycle hooks the pool needs.
    """

    #: human-readable backend label (metrics, diagnostics)
    name = "backend"

    def ping(self) -> bool:
        """Cheap liveness check; False means the connection is dead."""
        return True

    def close(self) -> None:
        """Release any held resources; idempotent."""
        return None

    def load_columns(
        self, name: str, columns: list, column_data: list,
        temporary: bool = False,
    ) -> None:
        """Bulk-load ``column_data`` (one value list per column) as table
        ``name``, replacing any previous table of that name.  Backends
        without a data plane raise :class:`NotImplementedError`; callers
        then fall back to SQL."""
        raise NotImplementedError(f"{self.name} has no bulk-load path")

    def process_info(self) -> dict:
        """Transport fields of a ``shards[]`` row."""
        return {"mode": "thread", "pid": 0, "restarts": 0, "rss_kb": 0}

    def shard_snapshot(self) -> list[dict]:
        """Per-shard health rows (``shards[]``); empty when unsharded."""
        return []


class PooledBackend(ExecutionBackend):
    """A bounded pool of backend connections behind one ``run_sql``.

    * connections are created lazily by ``factory`` up to ``size``;
    * ``run_sql`` checks a connection out (waiting up to
      ``checkout_timeout`` seconds, then raising
      :class:`~repro.errors.PoolTimeoutError`);
    * a connection that fails its liveness probe at checkout, or dies
      with a transport error mid-statement, is discarded and replaced;
    * DDL observed on any pooled connection bumps the pool's catalog
      version, so metadata/translation caches invalidate exactly as with
      a single connection.

    All pool state lives behind one :class:`threading.Condition`, which
    gives two invariants the previous queue-based design could not:
    ``open <= size`` at every instant (a slot is *reserved* under the
    lock before the factory runs, so concurrent checkouts cannot
    transiently overshoot), and one checkout observes one overall
    ``checkout_timeout`` even when it has to discard dead idle
    connections along the way (the deadline is fixed on entry, not reset
    per retry).
    """

    name = "pooled"

    def __init__(
        self,
        factory,
        size: int = 4,
        checkout_timeout: float = 5.0,
        name: str = "pooled",
    ):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self._factory = factory
        self.size = size
        self.checkout_timeout = checkout_timeout
        self.name = name
        self._cond = make_condition("core.backend_pool")
        self._idle: list[ExecutionBackend] = []  # LIFO: last in, first out
        self._open = 0
        self._in_use = 0
        self._catalog_version = 0
        self._closed = False

    # -- introspection ---------------------------------------------------------

    @property
    def open_connections(self) -> int:
        with self._cond:
            return self._open

    @property
    def in_use(self) -> int:
        with self._cond:
            return self._in_use

    # -- ExecutionBackend ------------------------------------------------------

    def run_sql(self, sql: str):
        conn = self._checkout()
        try:
            result = conn.run_sql(sql)
        except TRANSPORT_ERRORS:
            self._discard(conn)
            raise
        except Exception:
            # a SQL-level rejection: the connection is still healthy
            self._checkin(conn)
            raise
        self._observe_version(conn)
        self._checkin(conn)
        return result

    def _observe_version(self, conn: ExecutionBackend) -> None:
        """Fold one connection's catalog version into the pool maximum.

        The pool version is the *max observed* across connections, not an
        accumulated delta: a freshly created connection already carries
        the backend's current version, and delta accounting from a zero
        baseline under-reports it — leaving stale translations cached
        after out-of-band DDL.
        """
        try:
            version = conn.catalog_version()
        except TRANSPORT_ERRORS:
            return
        with self._cond:
            if version > self._catalog_version:
                self._catalog_version = version

    def catalog_version(self) -> int:
        probe = None
        with self._cond:
            # probe the most recently used idle connection so DDL done
            # out-of-band (directly on the backend) is visible without
            # waiting for the next statement through the pool; pop it
            # while probing — catalog_version may be a wire round-trip,
            # and a concurrent checkout must not run a statement on the
            # same connection mid-probe
            if self._idle:
                probe = self._idle.pop()
                self._in_use += 1
            never_connected = self._open == 0 and not self._closed
        if probe is not None:
            POOL_IN_USE.inc(pool=self.name)
            try:
                self._observe_version(probe)
            finally:
                self._checkin(probe)
        elif never_connected:
            # before the first statement the pool would report version 0
            # while the backend may already be far ahead; prime one
            # connection so translation-cache keys are right from the
            # first query
            try:
                conn = self._checkout()
            except (PoolTimeoutError, *TRANSPORT_ERRORS) as exc:
                _log.warning(
                    "pool_version_probe_failed",
                    pool=self.name, error=str(exc),
                )
            else:
                self._checkin(conn)
        with self._cond:
            return self._catalog_version

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._open -= len(idle)
            # wake every blocked checkout so it fails fast ("closed"),
            # not after its full timeout
            self._cond.notify_all()
        for conn in idle:
            self._close_quietly(conn)
        POOL_SIZE.set(self.open_connections, pool=self.name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- pool mechanics --------------------------------------------------------

    def _checkout(self) -> ExecutionBackend:
        with POOL_CHECKOUT_SECONDS.time(pool=self.name):
            conn = self._acquire()
        POOL_IN_USE.inc(pool=self.name)
        return conn

    def _acquire(self) -> ExecutionBackend:
        """Take a connection, honouring one overall checkout deadline.

        Under the condition lock the pool either hands out an idle
        connection, reserves a slot for a fresh one, or waits.  Slow work
        (factory call, liveness probe, close) happens outside the lock
        against the reserved accounting, so ``open``/``in_use`` never
        overshoot and other checkouts are never serialized behind I/O.
        """
        deadline = time.monotonic() + self.checkout_timeout
        while True:
            create = False
            with self._cond:
                while True:
                    if self._closed:
                        raise PoolTimeoutError(
                            f"backend pool {self.name!r} is closed"
                        )
                    if self._idle:
                        conn = self._idle.pop()
                        self._in_use += 1
                        break
                    if self._open < self.size:
                        # reserve before the (slow, unlocked) factory
                        # call so open <= size holds at every instant
                        self._open += 1
                        self._in_use += 1
                        create = True
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        POOL_CHECKOUT_TIMEOUTS.inc(pool=self.name)
                        raise PoolTimeoutError(
                            f"no backend connection free after "
                            f"{self.checkout_timeout:.1f}s (pool "
                            f"{self.name!r}, size {self.size})"
                        )
                    self._cond.wait(remaining)
            if create:
                try:
                    conn = self._factory()
                except Exception:
                    self._release_slot()
                    raise
                POOL_SIZE.set(self.open_connections, pool=self.name)
                # a fresh connection already carries the backend's
                # current catalog version — fold it in immediately so
                # the pool never reports a stale (lower) version
                self._observe_version(conn)
                return conn
            if self._ping_quietly(conn):
                return conn
            # dead while idle: drop it and retry against the *same*
            # deadline — replacement must not restart the clock
            self._close_quietly(conn)
            self._release_slot()
            POOL_REPLACEMENTS.inc(pool=self.name)
            POOL_SIZE.set(self.open_connections, pool=self.name)
            _log.warning("pool_replaced_dead_connection", pool=self.name)

    def _release_slot(self) -> None:
        """Give back a reserved slot (failed create or dead idle conn)."""
        with self._cond:
            self._open -= 1
            self._in_use -= 1
            self._cond.notify()

    def _checkin(self, conn: ExecutionBackend) -> None:
        close_it = False
        with self._cond:
            self._in_use -= 1
            if self._closed:
                # close() already drained the idle list; a connection
                # returned after that must be closed here, not leaked
                # back into a dead pool
                self._open -= 1
                close_it = True
            else:
                self._idle.append(conn)
            self._cond.notify()
        POOL_IN_USE.dec(pool=self.name)
        if close_it:
            self._close_quietly(conn)
            POOL_SIZE.set(self.open_connections, pool=self.name)

    def _discard(self, conn: ExecutionBackend) -> None:
        """Drop a connection that died mid-statement; the freed slot lets
        the next checkout open a replacement."""
        self._close_quietly(conn)
        self._release_slot()
        POOL_IN_USE.dec(pool=self.name)
        POOL_REPLACEMENTS.inc(pool=self.name)
        POOL_SIZE.set(self.open_connections, pool=self.name)
        _log.warning("pool_discarded_connection", pool=self.name)

    @staticmethod
    def _ping_quietly(conn) -> bool:
        try:
            ping = getattr(conn, "ping", None)
            return True if ping is None else bool(ping())
        except Exception:
            return False

    def _close_quietly(self, conn) -> None:
        try:
            close = getattr(conn, "close", None)
            if close is not None:
                close()
        except Exception as exc:
            # quiet means the pool keeps going, not that the failure
            # disappears (lint rule HQ002)
            _log.warning(
                "pool_close_failed", pool=self.name, error=str(exc)
            )
