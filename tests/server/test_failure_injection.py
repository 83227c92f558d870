"""Failure injection: the man-in-the-middle must degrade gracefully."""

import socket
import struct

import pytest

from repro.errors import QError
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom
from repro.server.client import QConnection
from repro.server.gateway import NetworkGateway
from repro.server.hyperq_server import HyperQServer
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.workload.loader import load_q_source

SOURCE = "trades: ([] Symbol:`GOOG`IBM; Price:100.0 50.0; Size:10 20)"


def make_server():
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    return HyperQServer(engine=engine)


class TestEndpointResilience:
    def test_garbage_hello_does_not_kill_server(self):
        with make_server() as server:
            raw = socket.create_connection(server.address, timeout=5)
            raw.sendall(b"\xff" * 64 + b"\x00")
            raw.close()
            # the server must still accept well-formed clients
            with QConnection(*server.address) as q:
                assert q.query("1") == QAtom(QType.LONG, 1)

    def test_truncated_message_drops_only_that_connection(self):
        with make_server() as server:
            raw = socket.create_connection(server.address, timeout=5)
            raw.sendall(b"user\x03\x00")
            assert raw.recv(1)  # handshake accepted
            # header claims 100 bytes but the connection dies first
            raw.sendall(struct.pack("<BBBBI", 1, 1, 0, 0, 100))
            raw.close()
            with QConnection(*server.address) as q:
                assert q.query("1") == QAtom(QType.LONG, 1)

    def test_query_error_keeps_connection_alive(self):
        with make_server() as server:
            with QConnection(*server.address) as q:
                with pytest.raises(QError):
                    q.query("select from missing")
                assert q.query("count select from trades").value == 2

    def test_bad_query_payload_type_signalled(self):
        from repro.qipc.encode import encode_value
        from repro.qipc.messages import MessageType, QipcMessage, frame
        from repro.qipc.decode import decode_value
        from repro.qipc.messages import poll_message
        from repro.server.common import BufferedSocketReader

        with make_server() as server:
            raw = socket.create_connection(server.address, timeout=5)
            raw.sendall(b"user\x03\x00")
            raw.recv(1)
            # send a long atom instead of the expected query string
            payload = encode_value(QAtom(QType.LONG, 42))
            raw.sendall(frame(QipcMessage(MessageType.SYNC, payload)))
            reader = BufferedSocketReader(raw)
            while (response := poll_message(reader)) is None:
                reader.fill()
            with pytest.raises(QError):
                decode_value(response.payload)
            raw.close()


class TestGatewayResilience:
    def test_backend_death_surfaces_as_error(self):
        engine = Engine()
        engine.execute("CREATE TABLE t (a bigint)")
        server = PgWireServer(engine)
        server.start()
        gateway = NetworkGateway(*server.address).connect()
        assert gateway.run_sql("SELECT 1").rows == [(1,)]
        server.stop()
        with pytest.raises((ConnectionError, OSError)):
            gateway.run_sql("SELECT 1")
        gateway.close()

    def test_sql_error_does_not_poison_connection(self):
        from repro.errors import SqlExecutionError

        engine = Engine()
        with PgWireServer(engine) as server:
            with NetworkGateway(*server.address) as gateway:
                for __ in range(3):
                    with pytest.raises(SqlExecutionError):
                        gateway.run_sql("SELECT * FROM nope")
                assert gateway.run_sql("SELECT 2").rows == [(2,)]


class TestLargeResults:
    def test_large_result_roundtrips_with_compression(self):
        """Results above the QIPC compression threshold survive the full
        socket round trip (frame flag, decompression, pivot)."""
        engine = Engine()
        interp = Interpreter()
        interp.eval_text("big: ([] v: til 20000)")
        load_q_source(engine, interp, "", ["big"])
        with HyperQServer(engine=engine) as server:
            with QConnection(*server.address) as q:
                result = q.query("select from big")
                assert len(result) == 20000
                assert result.column("v").items[:3] == [0, 1, 2]
                assert result.column("v").items[-1] == 19999
