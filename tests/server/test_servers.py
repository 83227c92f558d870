"""Integration tests over real localhost sockets.

The headline test mirrors the paper's claim: the same Q application code
(the QConnection client) runs unchanged against a kdb+-style server and
against Hyper-Q fronting a PG-compatible backend, and sees the same
results.
"""

import gc

import pytest

from repro.errors import AuthenticationError, QError
from repro.pgwire.auth import CleartextAuth, KerberosStubAuth, Md5Auth
from repro.qipc.handshake import UserPassword
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom, QTable
from repro.server.client import QConnection
from repro.server.gateway import NetworkGateway
from repro.server.hyperq_server import HyperQServer, KdbServer
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.loader import load_q_source

SOURCE = (
    "trades: ([] Symbol:`GOOG`IBM`GOOG; Price:100.0 50.0 101.0; "
    "Size:10 20 30)"
)


@pytest.fixture()
def kdb_server():
    server = KdbServer()
    server.interpreter.eval_text(SOURCE)
    with server:
        yield server


@pytest.fixture()
def hyperq_server():
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    server = HyperQServer(engine=engine)
    with server:
        yield server


class TestKdbServer:
    def test_scalar_roundtrip(self, kdb_server):
        with QConnection(*kdb_server.address) as q:
            assert q.query("1+2") == QAtom(QType.LONG, 3)

    def test_table_roundtrip(self, kdb_server):
        with QConnection(*kdb_server.address) as q:
            result = q.query("select from trades where Price > 60")
            assert isinstance(result, QTable)
            assert len(result) == 2

    def test_error_becomes_signal(self, kdb_server):
        with QConnection(*kdb_server.address) as q:
            with pytest.raises(QError):
                q.query("undefined_thing")

    def test_global_state_shared_across_connections(self, kdb_server):
        with QConnection(*kdb_server.address) as q1:
            q1.query("shared_var: 99")
        with QConnection(*kdb_server.address) as q2:
            assert q2.query("shared_var") == QAtom(QType.LONG, 99)

    def test_async_message_does_not_reply(self, kdb_server):
        with QConnection(*kdb_server.address) as q:
            q.query_async("async_var: 5")
            assert q.query("async_var") == QAtom(QType.LONG, 5)

    def test_authentication_rejects(self):
        server = KdbServer(authenticator=UserPassword({"alice": "pw"}))
        with server:
            with pytest.raises(AuthenticationError):
                QConnection(
                    *server.address, username="alice", password="wrong"
                ).connect()
            with QConnection(
                *server.address, username="alice", password="pw"
            ) as q:
                assert q.query("1") == QAtom(QType.LONG, 1)


class TestHyperQServer:
    def test_q_app_runs_unchanged(self, hyperq_server):
        with QConnection(*hyperq_server.address) as q:
            result = q.query("select Price from trades where Symbol=`GOOG")
            assert isinstance(result, QTable)
            assert result.column("Price").items == [100.0, 101.0]

    def test_aggregation(self, hyperq_server):
        with QConnection(*hyperq_server.address) as q:
            result = q.query("exec max Price from trades")
            assert result == QAtom(QType.FLOAT, 101.0)

    def test_error_verbose(self, hyperq_server):
        with QConnection(*hyperq_server.address) as q:
            with pytest.raises(QError):
                q.query("select from no_such_table")

    def test_session_isolation_of_locals(self, hyperq_server):
        with QConnection(*hyperq_server.address) as q1:
            q1.query("mine: select from trades where Size > 15")
            assert len(q1.query("select from mine")) == 2

    def test_same_results_as_kdb(self, kdb_server, hyperq_server):
        queries = [
            "select from trades",
            "select sum Size by Symbol from trades",
            "select max Price from trades",
            "update N: Price*Size from trades",
        ]
        with QConnection(*kdb_server.address) as qk, QConnection(
            *hyperq_server.address
        ) as qh:
            for query in queries:
                left = qk.query(query)
                right = qh.query(query)
                comparison = compare_values(left, right)
                assert comparison, f"{query}: {comparison.reason}"


class TestPgWireServer:
    @pytest.fixture()
    def pg_server(self):
        engine = Engine()
        engine.execute("CREATE TABLE t (a bigint, b varchar)")
        engine.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        with PgWireServer(engine) as server:
            yield server

    def test_simple_query(self, pg_server):
        with NetworkGateway(*pg_server.address) as gateway:
            result = gateway.run_sql("SELECT a, b FROM t ORDER BY a")
            assert result.rows == [(1, "x"), (2, "y")]
            assert result.column_names == ["a", "b"]

    def test_null_round_trip(self, pg_server):
        with NetworkGateway(*pg_server.address) as gateway:
            result = gateway.run_sql("SELECT NULL::bigint AS n")
            assert result.rows == [(None,)]

    def test_ddl_and_reuse(self, pg_server):
        with NetworkGateway(*pg_server.address) as gateway:
            gateway.run_sql("CREATE TABLE made (x bigint)")
            gateway.run_sql("INSERT INTO made VALUES (7)")
            assert gateway.run_sql("SELECT x FROM made").rows == [(7,)]

    def test_error_propagates(self, pg_server):
        from repro.errors import SqlExecutionError

        with NetworkGateway(*pg_server.address) as gateway:
            with pytest.raises(SqlExecutionError):
                gateway.run_sql("SELECT * FROM missing")
            # connection still usable after an error
            assert gateway.run_sql("SELECT 1").rows == [(1,)]

    def test_cleartext_auth(self):
        engine = Engine()
        server = PgWireServer(engine, auth=CleartextAuth({"hq": "pw"}))
        with server:
            gateway = NetworkGateway(
                *server.address, user="hq", password="pw",
                auth=CleartextAuth({"hq": "pw"}),
            )
            with gateway:
                assert gateway.run_sql("SELECT 1").rows == [(1,)]
            bad = NetworkGateway(
                *server.address, user="hq", password="wrong",
                auth=CleartextAuth({"hq": "pw"}),
            )
            with pytest.raises(AuthenticationError):
                bad.connect()

    def test_md5_auth(self):
        engine = Engine()
        server = PgWireServer(engine, auth=Md5Auth({"hq": "pw"}))
        with server:
            auth = Md5Auth({"hq": "pw"})
            with NetworkGateway(
                *server.address, user="hq", password="pw", auth=auth
            ) as gateway:
                assert gateway.run_sql("SELECT 1").rows == [(1,)]

    def test_kerberos_stub_auth(self):
        engine = Engine()
        auth = KerberosStubAuth(b"realm", principals={"svc_hq"})
        server = PgWireServer(engine, auth=auth)
        with server:
            with NetworkGateway(
                *server.address, user="svc_hq", auth=auth
            ) as gateway:
                assert gateway.run_sql("SELECT 1").rows == [(1,)]


class TestFullStack:
    """Q app -> QIPC -> Hyper-Q -> PG v3 wire -> PG server, per Figure 1."""

    def test_three_tier_deployment(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        with PgWireServer(engine) as pg_server:
            gateway = NetworkGateway(*pg_server.address).connect()
            try:
                hyperq = HyperQServer(backend=gateway)
                with hyperq:
                    with QConnection(*hyperq.address) as q:
                        result = q.query(
                            "select sum Size by Symbol from trades"
                        )
                        flat = result.unkey()
                        assert flat.column("Symbol").items == ["GOOG", "IBM"]
                        assert flat.column("Size").items == [40, 20]
            finally:
                gateway.close()

    def test_three_tier_temp_table_workflow(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        with PgWireServer(engine) as pg_server:
            gateway = NetworkGateway(*pg_server.address).connect()
            try:
                with HyperQServer(backend=gateway) as hyperq:
                    with QConnection(*hyperq.address) as q:
                        q.query("dt: select from trades where Price > 60")
                        result = q.query("exec max Price from dt")
                        assert result == QAtom(QType.FLOAT, 101.0)
            finally:
                gateway.close()


class TestHeapFreeze:
    """While a QIPC server serves, what the process held when it started
    (the loaded tables) is frozen out of the garbage collector; the last
    server to stop hands it back."""

    def test_frozen_while_serving_and_thawed_after_stop(self):
        assert gc.get_freeze_count() == 0
        first = HyperQServer(engine=Engine()).start()
        try:
            assert gc.get_freeze_count() > 0
            KdbServer().start().stop()
            assert gc.get_freeze_count() > 0  # the first one still serves
        finally:
            first.stop()
        assert gc.get_freeze_count() == 0
        first.stop()  # stopping twice thaws nothing twice
        assert gc.get_freeze_count() == 0
