"""Process shards: each partition engine in its own worker process.

Thread-mode shards share this process and its GIL, so scatter arithmetic
runs on one core.  Here every shard is a spawned child (the paper's
per-unit-of-work process, at OS granularity), and this module owns both
ends of the hop: :func:`serve` is the worker (``python -m
repro.core.procshard <fd>``), :class:`ProcessShardBackend` the
coordinator-side ``ExecutionBackend`` that the deployment's workload
manager wraps in the usual retries and breakers, and
:func:`spawn_process_shards` warm-starts a pool (launch all, then barrier
on each ready tuple).

The child inherits one end of a ``socket.socketpair()`` and listens on
no port, so only the coordinator can reach it.  Both ends wrap their
socket in a ``multiprocessing.connection.Connection`` and exchange
tuples pickled by the stdlib: ``(seq, op, *args)`` -> ``(seq, "ok" |
"err", value)``.  Pickle keeps NaN, ``Decimal``, ``None`` and bool vs int
exact, so results are byte-identical to thread mode; errors cross as
``(class, message, SQLSTATE)`` and are rebuilt for the retry layer.

A worker that dies (EOF on the pipe) is respawned, bounded by
``ShardingConfig.max_respawns``, and its journaled partition and writes
are replayed; the statement that noticed raises a transient
``ConnectionError``.  A deadline crosses as the remaining budget, which
the worker re-arms and which caps the coordinator's wait; a reply that
comes after its wait expired is dropped by ``seq``.  ``close()`` sends a
shutdown op, waits, then terminates or kills.  EOF is also the worker's
orphan signal.  Only this module may spawn processes (lint rule HQ010).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from multiprocessing.connection import Connection

from repro import errors
from repro.analysis.concurrency.locks import make_lock
from repro.config import ShardingConfig
from repro.core.backends import TRANSPORT_ERRORS, ExecutionBackend
from repro.core.sharded import is_write
from repro.errors import (
    BackendSqlError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
)
from repro.obs import get_logger, metrics
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import ResultSet
from repro.wlm.deadline import Deadline, current_deadline

_log = get_logger("core.procshard")

SHARD_PROC_SPAWNS = metrics.counter(
    "shard_proc_spawns_total", "Shard worker processes launched"
)
SHARD_PROC_RESTARTS = metrics.counter(
    "shard_proc_restarts_total", "Shard worker processes respawned after a crash"
)

#: SQLSTATE surfaced when the respawn budget is exhausted (class 58 —
#: system error — is deliberately *not* transient for the retry layer)
RESPAWN_EXHAUSTED_SQLSTATE = "58000"

#: seconds a (re)spawned worker has to send its ready tuple
STARTUP_TIMEOUT = 20.0
#: seconds a health ping waits for its reply
PING_TIMEOUT = 2.0
#: seconds ``close()`` waits for a worker to exit after the shutdown op
#: before escalating to terminate/kill
DRAIN_TIMEOUT = 3.0


def _describe(exc: Exception) -> tuple[str, str, str]:
    """Exception -> ``(class name, message, SQLSTATE)`` for the reply."""
    code = getattr(exc, "code", "")
    message = (
        exc.backend_message if isinstance(exc, BackendSqlError) else str(exc)
    )
    return type(exc).__name__, message, code if isinstance(code, str) else ""


def _execute(engine: Engine, sql: str, deadline_ms: float | None) -> tuple:
    """Run one statement, checking the coordinator's remaining budget so
    a worker-side overrun raises the ``DeadlineExceededError`` a
    thread-mode shard would."""
    if deadline_ms is not None:
        Deadline.after(max(deadline_ms, 0.0) / 1000.0).check("procshard.worker")
    result = engine.execute(sql)
    return result.columns, result.column_data, result.command


def _load(
    engine: Engine, table: str, columns: list, column_data: list,
    temporary: bool,
) -> str:
    engine.catalog.drop(table, if_exists=True)
    engine.create_table_from_columns(table, columns, column_data, temporary)
    return "loaded"


#: the worker's request handlers, each called as ``handler(engine, *args)``
_OPS = {
    "sql": _execute,
    "load": _load,
    "ping": lambda engine: "pong",
    "version": lambda engine: engine.catalog.version,
}


def serve(conn: Connection) -> None:
    """The worker loop: send the ready tuple, then answer each request
    until a ``shutdown`` op or EOF.  Every exception a request raises is
    caught here and crosses the pipe as data."""
    engine = Engine()
    reply = (0, "ok", "ready")
    try:
        while True:
            conn.send(reply)
            seq, op, *args = conn.recv()
            if op == "shutdown":
                return
            try:
                reply = (seq, "ok", _OPS[op](engine, *args))
            except Exception as exc:  # crosses the pipe as data
                reply = (seq, "err", _describe(exc))
    except (EOFError, OSError):
        return  # the coordinator's end is closed: nobody is left to answer


def _rebuild_exception(class_name: str, message: str, code: str) -> Exception:
    """Reconstruct the worker's exception coordinator-side.

    Known :mod:`repro.errors` classes come back as themselves (single
    message argument; ``BackendSqlError`` keeps its SQLSTATE), so the
    retry layer's transient classification and the session's error
    rendering behave exactly as they would against an in-process engine.
    """
    if class_name == "BackendSqlError":
        return BackendSqlError(message, code=code or "XX000")
    klass = getattr(errors, class_name, None)
    if isinstance(klass, type) and issubclass(klass, ReproError):
        try:
            return klass(message)
        except TypeError:
            pass
    return BackendSqlError(f"{class_name}: {message}", code=code or "XX000")


def _await_reply(conn: Connection, seq: int, timeout: float | None) -> tuple:
    """``(status, value)`` replied to request ``seq``.

    Replies to earlier requests whose wait expired are dropped; the wait
    raises ``TimeoutError`` when ``timeout`` runs out first."""
    expires = None if timeout is None else time.monotonic() + timeout
    while True:
        remaining = (
            None if expires is None else max(expires - time.monotonic(), 0.0)
        )
        if not conn.poll(remaining):
            raise TimeoutError(f"no reply to request {seq} in time")
        got, status, value = conn.recv()
        if got == seq:
            return status, value


def _unwrap(reply: tuple):
    """The replied value, or the worker's error rebuilt and raised."""
    status, value = reply
    if status == "err":
        raise _rebuild_exception(*value)
    return value


def _read_rss_kb(pid: int) -> int:
    """Resident set size of ``pid`` in KiB via procfs; 0 when unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return 0


class ProcessShardBackend(ExecutionBackend):
    """One shard partition hosted in a spawned worker process.

    Transport failures trigger a bounded respawn (with partition reload
    and write replay) and then surface as ``ConnectionError`` — a
    transient the per-shard :class:`~repro.wlm.retry.ResilientBackend`
    retries; a worker that outlives its deadline surfaces as
    ``DeadlineExceededError`` and keeps running.
    """

    def __init__(self, index: int, config: ShardingConfig | None = None):
        self.index = index
        self.config = config or ShardingConfig()
        self.name = f"procshard{index}"
        #: lifecycle: spawn, handshake, respawn, close and the journals
        self._lock = make_lock("core.procshard")
        #: one request/reply exchange on the pipe at a time (taken after
        #: ``_lock`` when both are held)
        self._io = make_lock("core.procshard.transport")
        self._proc: subprocess.Popen | None = None
        self._conn: Connection | None = None
        self._ready = False
        self._seq = 0
        self._generation = 0
        self.restarts = 0
        self._closed = False
        #: partition journal: table -> (columns, column data, temporary)
        #: for crash reload
        self._tables: dict[str, tuple[list, list, bool]] = {}
        #: replicated writes (broadcast DDL/DML) replayed after reload
        self._writes: list[str] = []
        #: test hook — SIGKILL the worker when the next statement arrives
        #: (deterministic mid-scatter crash injection)
        self.kill_next_request = False

    # -- lifecycle ---------------------------------------------------------

    def launch(self) -> None:
        """Fork the worker without waiting (warm-start pools launch every
        shard first, then barrier on :meth:`await_ready`)."""
        with self._lock:
            if self._proc is None:
                self._spawn_locked()

    def await_ready(self) -> None:
        """Block until the launched worker has sent its ready tuple."""
        with self._lock:
            self._ensure_ready_locked()

    def start(self) -> None:
        self.launch()
        self.await_ready()

    def _spawn_locked(self) -> None:
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        ours, theirs = socket.socketpair()
        with theirs:
            fd = theirs.fileno()
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.procshard", str(fd)],
                pass_fds=(fd,), env={**os.environ, "PYTHONPATH": path},
            )
        self._conn = Connection(ours.detach())
        self._ready = False
        SHARD_PROC_SPAWNS.inc(shard=str(self.index))
        _log.info("shard_worker_spawned", shard=self.index, pid=self._proc.pid)

    def _ensure_ready_locked(self) -> None:
        """The handshake barrier: wait for the ready tuple, then reload the
        journaled partition and replay journaled writes (both empty on a
        first boot)."""
        if self._closed:
            raise ProtocolError(f"shard {self.index} worker backend is closed")
        if self._proc is None:
            self._spawn_locked()
        if self._ready:
            return
        with self._io:
            try:
                _await_reply(self._conn, 0, STARTUP_TIMEOUT)
            except TimeoutError:
                raise ProtocolError(
                    f"shard {self.index} worker not ready within "
                    f"{STARTUP_TIMEOUT:.0f}s"
                ) from None
            except EOFError:
                raise ProtocolError(
                    f"shard {self.index} worker exited before becoming "
                    f"ready (status {self._proc.poll()})"
                ) from None
            self._ready = True
            for table, loaded in self._tables.items():
                _unwrap(self._exchange(self._conn, "load", (table, *loaded)))
            for sql in self._writes:
                try:
                    _unwrap(self._exchange(self._conn, "sql", (sql, None)))
                except ReproError as exc:
                    _log.warning(
                        "shard_replay_failed", shard=self.index,
                        sql=sql[:80], error=str(exc),
                    )

    def _respawn(self, generation: int, cause: str) -> None:
        """Bounded automatic respawn; a concurrent statement that already
        respawned this generation makes this a no-op."""
        with self._lock:
            if self._closed or generation != self._generation:
                return
            self._generation += 1
            if self.restarts >= self.config.max_respawns:
                raise BackendSqlError(
                    f"shard {self.index} worker exceeded its respawn "
                    f"budget ({self.config.max_respawns}) after: {cause}",
                    code=RESPAWN_EXHAUSTED_SQLSTATE,
                )
            self.restarts += 1
            SHARD_PROC_RESTARTS.inc(shard=str(self.index))
            _log.warning(
                "shard_worker_respawn", shard=self.index,
                restarts=self.restarts, cause=cause[:120],
            )
            self._teardown_locked(graceful=False)
            self._ensure_ready_locked()

    def _teardown_locked(self, graceful: bool) -> None:
        conn, proc = self._conn, self._proc
        self._conn, self._proc, self._ready = None, None, False
        if proc is not None:
            if graceful and self._io.acquire(timeout=DRAIN_TIMEOUT):
                try:
                    conn.send((0, "shutdown"))
                except TRANSPORT_ERRORS:
                    pass  # already dead: nothing to drain
                finally:
                    self._io.release()
            try:
                proc.wait(timeout=DRAIN_TIMEOUT if graceful else 0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=DRAIN_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if conn is not None:
            # the worker is gone, so a reader blocked on this pipe has
            # seen EOF and is about to release the transport lock
            with self._io:
                conn.close()

    def _exchange(self, conn: Connection, op: str, args: tuple,
                  timeout: float | None = None) -> tuple:
        """One request/reply exchange; the caller holds ``_io``."""
        self._seq += 1
        conn.send((self._seq, op, *args))
        return _await_reply(conn, self._seq, timeout)

    def _call(self, op: str, *args, timeout: float | None = None):
        """One exchange with the worker, respawning it if the pipe broke;
        an error the worker *replied* is rebuilt outside the transport
        handling, so it never costs a respawn."""
        with self._lock:
            self._ensure_ready_locked()
            generation, conn, proc = self._generation, self._conn, self._proc
            if self.kill_next_request and op == "sql":
                # deterministic crash injection: the worker dies exactly
                # as this statement reaches it (mid-scatter for fanouts)
                self.kill_next_request = False
                proc.kill()
        try:
            with self._io:
                reply = self._exchange(conn, op, args, timeout)
        except TRANSPORT_ERRORS as exc:  # TimeoutError is an OSError
            if isinstance(exc, TimeoutError) and proc.poll() is None:
                # the late reply is dropped by seq on the next exchange
                raise DeadlineExceededError(
                    f"shard {self.index} worker read timed out",
                    what=f"procshard{self.index}.recv",
                ) from None
            self._respawn(generation, f"{type(exc).__name__}: {exc}")
            raise ConnectionError(
                f"shard {self.index} worker connection failed "
                f"({type(exc).__name__}: {exc}); worker respawned"
            ) from exc
        return _unwrap(reply)

    # -- ExecutionBackend --------------------------------------------------

    def run_sql(self, sql: str) -> ResultSet:
        deadline = current_deadline()
        deadline_ms = timeout = None
        if deadline is not None:
            deadline.check(f"procshard{self.index}.send")
            timeout = max(deadline.remaining(), 0.001)
            deadline_ms = timeout * 1000.0
        columns, data, command = self._call(
            "sql", sql, deadline_ms, timeout=timeout
        )
        if is_write(sql):
            with self._lock:
                self._writes.append(sql)
        return ResultSet.from_columns(columns, data, command=command)

    def catalog_version(self) -> int:
        try:
            return int(self._call("version"))
        except ConnectionError:
            # the failed probe already triggered a respawn; version reads
            # are idempotent and sit on the metadata path, which has no
            # retry layer above it, so ask the fresh worker directly
            return int(self._call("version"))

    def ping(self) -> bool:
        with self._lock:
            if not self._ready or self._proc.poll() is not None:
                return False
            conn = self._conn
        try:
            with self._io:
                reply = self._exchange(conn, "ping", (), PING_TIMEOUT)
        except TRANSPORT_ERRORS:
            return False
        return reply == ("ok", "pong")

    def close(self) -> None:
        """Graceful drain: shutdown op, bounded wait, escalate."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._teardown_locked(graceful=True)

    def load_columns(
        self, name: str, columns: list, column_data: list,
        temporary: bool = False,
    ) -> None:
        """The load crosses as one message and is journaled so a respawn
        can restore the partition."""
        columns = list(columns)
        column_data = [list(values) for values in column_data]
        self._call("load", name, columns, column_data, temporary)
        with self._lock:
            self._tables[name] = (columns, column_data, temporary)

    def process_info(self) -> dict:
        """Row payload for the ``shards[]`` admin command."""
        proc = self._proc
        pid = proc.pid if proc is not None else -1
        alive = proc is not None and proc.poll() is None
        return {
            "mode": "process",
            "pid": pid,
            "restarts": self.restarts,
            "rss_kb": _read_rss_kb(pid) if alive else 0,
            "alive": alive,
        }


def spawn_process_shards(
    count: int, config: ShardingConfig | None = None
) -> list[ProcessShardBackend]:
    """Warm-start a pool of ``count`` shard workers.

    Every child is launched before any is awaited (parallel boot), then
    the handshake barrier waits for each worker's ready tuple.  A partial
    failure tears the whole pool down.
    """
    config = config or ShardingConfig()
    shards = [ProcessShardBackend(i, config) for i in range(count)]
    try:
        for shard in shards:
            shard.launch()
        for shard in shards:
            shard.await_ready()
    except BaseException:
        for shard in shards:
            try:
                shard.close()
            except TRANSPORT_ERRORS as exc:
                _log.warning(
                    "shard_pool_cleanup_failed", shard=shard.index,
                    error=str(exc),
                )
        raise
    return shards


if __name__ == "__main__":
    serve(Connection(int(sys.argv[1])))
