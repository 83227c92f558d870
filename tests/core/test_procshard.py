"""Unit tests for the process-shard transport (``repro.core.procshard``).

Every test talks to a live worker process, so values, errors and loads
cross the real pipe.  Spawn cost dominates: most tests share one
module-scoped worker, and the crash tests spawn their own.
"""

import math
import os
import pickle
import socket
import struct
import subprocess
import sys
from decimal import Decimal
from multiprocessing.connection import Connection

import pytest

from repro.config import ShardingConfig
from repro.core.procshard import ProcessShardBackend, spawn_process_shards
from repro.errors import (
    BackendSqlError,
    DeadlineExceededError,
    ProtocolError,
    SqlExecutionError,
)
from repro.sqlengine.catalog import Column
from repro.sqlengine.engine import Engine
from repro.sqlengine.types import SqlType
from repro.wlm.deadline import Deadline, request_scope
from repro.wlm.retry import is_transient


@pytest.fixture(scope="module")
def worker():
    """One shared worker process (spawns are the expensive part)."""
    shard = ProcessShardBackend(0, ShardingConfig(mode="process"))
    shard.start()
    shard.load_columns(
        "t",
        [Column("id", SqlType.BIGINT), Column("px", SqlType.DOUBLE)],
        [[1, 2, 3], [1.5, 2.5, float("nan")]],
    )
    yield shard
    shard.close()


def _roundtrip(worker, columns, rows, sql="SELECT * FROM rt"):
    """``sql`` over the same table in the worker and in an in-process
    engine — the thread-mode answer the worker's must equal."""
    column_data = [list(values) for values in zip(*rows)]
    worker.load_columns("rt", columns, column_data)
    local = Engine()
    local.create_table_from_columns("rt", columns, column_data)
    return worker.run_sql(sql), local.execute(sql)


def _assert_same(got, want):
    assert got.command == want.command
    assert [(c.name, c.sql_type, c.type_text) for c in got.columns] == [
        (c.name, c.sql_type, c.type_text) for c in want.columns
    ]
    assert got.column_data == want.column_data
    assert [list(map(type, col)) for col in got.column_data] == [
        list(map(type, col)) for col in want.column_data
    ]


class _InWorker:
    """Unpickles as ``exec(source)``: whatever rides the pipe runs inside
    the worker, which is why no other process may reach it."""

    def __init__(self, source: str):
        self.source = source

    def __reduce__(self):
        return exec, (self.source, {})


def _raise_in_worker(worker, error: str):
    """Send a statement whose execution in the worker raises ``error``
    (an expression over :mod:`repro.errors`); later statements run
    normally."""
    patch = _InWorker(
        "from repro.errors import *\n"
        "from repro.sqlengine.engine import Engine\n"
        "original = Engine.execute\n"
        "def execute(self, sql):\n"
        "    Engine.execute = original\n"
        f"    raise {error}\n"
        "Engine.execute = execute\n"
    )
    worker._call("sql", patch, None)


class TestCodec:
    def test_uniform_primitive_columns_roundtrip(self, worker):
        columns = [
            Column("n", SqlType.BIGINT),
            Column("x", SqlType.DOUBLE),
            Column("ok", SqlType.BOOLEAN),
            Column("sym", SqlType.VARCHAR),
        ]
        rows = [
            [1, 0.5, True, "a"],
            [-(2 ** 63), -1.25, False, ""],
            [2 ** 63 - 1, 3.0, True, "hello world"],
        ]
        _assert_same(*_roundtrip(worker, columns, rows))

    def test_nan_roundtrips_bit_exact(self, worker):
        nan = float("nan")
        got, __ = _roundtrip(
            worker, [Column("x", SqlType.DOUBLE)], [[nan], [1.5]]
        )
        assert struct.pack("<d", got.column_data[0][0]) == struct.pack(
            "<d", nan
        )
        assert got.column_data[0][1] == 1.5

    def test_null_and_mixed_columns_take_pickle_path(self, worker):
        columns = [
            Column("a", SqlType.BIGINT),
            Column("b", SqlType.NUMERIC),
            Column("c", SqlType.VARCHAR),
        ]
        rows = [
            [1, Decimal("1.50"), "x"],
            [None, Decimal("-2"), None],
            [3, None, "y\x00z"],
        ]
        got, want = _roundtrip(worker, columns, rows)
        _assert_same(got, want)
        assert type(got.column_data[1][0]) is Decimal

    def test_bools_do_not_masquerade_as_longs(self, worker):
        # bool is an int subclass: True must come back as True, not 1
        got, want = _roundtrip(
            worker, [Column("v", SqlType.BIGINT)], [[True], [2]]
        )
        _assert_same(got, want)
        assert got.column_data == [[True, 2]]
        assert type(got.column_data[0][0]) is bool

    def test_empty_result_roundtrips(self, worker):
        got, want = _roundtrip(
            worker, [Column("n", SqlType.BIGINT)], [[1]],
            "SELECT n FROM rt WHERE n > 1",
        )
        _assert_same(got, want)
        assert got.column_data == [[]]
        assert got.rows == []

    def test_scalar_envelope(self, worker):
        assert worker._call("ping") == "pong"
        assert type(worker._call("version")) is int

    def test_load_blob_roundtrip(self, worker):
        columns = [Column("id", SqlType.BIGINT), Column("s", SqlType.TEXT)]
        _assert_same(*_roundtrip(worker, columns, [[1, "a"], [2, None]]))

    def test_error_envelope_preserves_class_and_sqlstate(self, worker):
        with pytest.raises(BackendSqlError) as excinfo:
            _raise_in_worker(
                worker, "BackendSqlError('out of slots', code='53300')"
            )
        assert excinfo.value.code == "53300"
        assert excinfo.value.backend_message == "out of slots"
        assert is_transient(excinfo.value)
        assert worker.restarts == 0

    def test_error_envelope_rebuilds_repro_classes(self, worker):
        with pytest.raises(SqlExecutionError):
            _raise_in_worker(worker, "SqlExecutionError('div by zero')")
        # a budget already spent when the statement reaches the worker
        with pytest.raises(DeadlineExceededError):
            worker._call("sql", "SELECT 1", 0.0)

    def test_unknown_error_class_degrades_to_backend_error(self, worker):
        with pytest.raises(BackendSqlError) as excinfo:
            _raise_in_worker(worker, "type('Weird', (Exception,), {})('odd')")
        assert "Weird: odd" in str(excinfo.value)


class TestWorkerLifecycle:
    def test_sql_roundtrip(self, worker):
        result = worker.run_sql("SELECT id, px FROM t ORDER BY id")
        assert result.rows[0] == (1, 1.5)
        assert math.isnan(result.rows[2][1])

    def test_ping_and_version(self, worker):
        assert worker.ping() is True
        assert isinstance(worker.catalog_version(), int)

    def test_sql_errors_cross_with_classification(self, worker):
        from repro.errors import SqlCatalogError

        with pytest.raises(SqlCatalogError):
            worker.run_sql("SELECT * FROM no_such_table")

    def test_expired_deadline_raises_before_sending(self, worker):
        with request_scope(deadline=Deadline.after(-1.0)):
            with pytest.raises(DeadlineExceededError):
                worker.run_sql("SELECT 1")

    def test_live_deadline_passes_through(self, worker):
        with request_scope(deadline=Deadline.after(30.0)):
            result = worker.run_sql("SELECT count(*) AS n FROM t")
        assert result.rows == [(3,)]

    def test_timed_out_read_keeps_the_worker(self, worker):
        worker.load_columns(
            "slow", [Column("id", SqlType.BIGINT)], [list(range(80))]
        )
        with request_scope(deadline=Deadline.after(0.1)):
            with pytest.raises(DeadlineExceededError):
                worker.run_sql(
                    "SELECT count(*) AS n FROM slow a, slow b, slow c"
                    " WHERE a.id + b.id + c.id >= 0"
                )
        assert worker.restarts == 0
        # the late 512 000-row count is dropped; this statement gets its own
        assert worker.run_sql("SELECT count(*) AS n FROM slow").rows == [(80,)]

    def test_process_info_reports_worker(self, worker):
        info = worker.process_info()
        assert info["mode"] == "process"
        assert info["alive"] is True
        assert info["pid"] > 0
        # rss comes from procfs; tolerate platforms without it
        assert info["rss_kb"] >= 0

    def test_large_load_is_one_message(self, worker):
        columns = [Column("id", SqlType.BIGINT), Column("s", SqlType.TEXT)]
        rows = [[i, f"{i:06d}" + "v" * 1000] for i in range(10_000)]
        # a wide partition crosses in one message, whatever its size
        assert len(pickle.dumps(rows)) > 8 * 1024 * 1024
        worker.load_columns("big", columns, [list(c) for c in zip(*rows)])
        result = worker.run_sql(
            "SELECT count(*) AS n, min(id) AS lo, max(id) AS hi, max(s) AS s"
            " FROM big"
        )
        assert result.rows == [(10_000, 0, 9_999, rows[-1][1])]


def _listening_inodes() -> set[str]:
    """Socket inodes in state LISTEN (``0A``) in this network namespace."""
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        if not os.path.exists(table):
            continue
        with open(table, encoding="ascii") as handle:
            next(handle)
            for line in handle:
                fields = line.split()
                if fields[3] == "0A":
                    inodes.add(fields[9])
    return inodes


def _socket_inodes(pid: int) -> set[str]:
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    return inodes


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestIsolation:
    def test_worker_owns_no_listening_socket(self, worker):
        # anything that can reach a worker can run SQL on its partition and
        # replace its tables, so only the coordinator may hold a way in
        sockets = _socket_inodes(worker.process_info()["pid"])
        assert sockets, "the worker's pipe end should show up as a socket"
        assert not sockets & _listening_inodes()


class TestCrashRespawn:
    def test_kill_respawns_with_partition_and_writes_intact(self):
        shard = ProcessShardBackend(
            0, ShardingConfig(mode="process", max_respawns=2)
        )
        shard.start()
        try:
            shard.load_columns(
                "t", [Column("id", SqlType.BIGINT)], [[1, 2]]
            )
            shard.run_sql("CREATE TABLE w (x INTEGER)")
            shard.run_sql("INSERT INTO w VALUES (42)")
            old_pid = shard.process_info()["pid"]
            shard.kill_next_request = True
            # the in-flight statement surfaces as a transient the retry
            # layer would absorb
            with pytest.raises(ConnectionError):
                shard.run_sql("SELECT * FROM t")
            assert shard.restarts == 1
            assert shard.process_info()["pid"] != old_pid
            # partition reloaded, journaled writes replayed
            assert shard.run_sql(
                "SELECT count(*) AS n FROM t"
            ).rows == [(2,)]
            assert shard.run_sql("SELECT x FROM w").rows == [(42,)]
        finally:
            shard.close()

    def test_respawn_budget_exhaustion_is_not_transient(self):
        shard = ProcessShardBackend(
            0, ShardingConfig(mode="process", max_respawns=0)
        )
        shard.start()
        try:
            shard.kill_next_request = True
            with pytest.raises(BackendSqlError) as excinfo:
                shard.run_sql("SELECT 1")
            assert excinfo.value.code == "58000"
        finally:
            shard.close()

    def test_close_is_idempotent_and_reaps_the_worker(self):
        shard = ProcessShardBackend(0, ShardingConfig(mode="process"))
        shard.start()
        pid = shard.process_info()["pid"]
        assert pid > 0
        shard.close()
        shard.close()
        assert shard.process_info()["alive"] is False
        assert shard.ping() is False
        with pytest.raises(ProtocolError):
            shard.run_sql("SELECT 1")


class TestPool:
    def test_spawn_pool_barrier_and_teardown(self):
        shards = spawn_process_shards(2, ShardingConfig(mode="process"))
        try:
            assert [s.index for s in shards] == [0, 1]
            assert all(s.ping() for s in shards)
            pids = {s.process_info()["pid"] for s in shards}
            assert len(pids) == 2
        finally:
            for shard in shards:
                shard.close()


class TestOrphanWatchdog:
    def test_worker_exits_when_declared_parent_is_gone(self):
        # the coordinator's end closing without a shutdown op — what a
        # coordinator that dies ungracefully (SIGKILL, OOM) leaves
        # behind — must make the worker exit on its own
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        ours, theirs = socket.socketpair()
        with theirs:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.core.procshard",
                    str(theirs.fileno()),
                ],
                pass_fds=(theirs.fileno(),),
                env=env,
            )
        conn = Connection(ours.detach())
        try:
            assert conn.poll(30) and conn.recv() == (0, "ok", "ready")
        finally:
            conn.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            pytest.fail("orphaned shard worker did not exit on its own")
        assert proc.returncode == 0
