"""Peer-declared frame lengths are bounded on every reader.

A QIPC or PG v3 length field is a promise from the peer; no reader may
buffer toward it once it exceeds the limit.  The PG-wire server applies
``ServerConfig.max_message_bytes`` (the QIPC endpoint already did); the
blocking clients apply the ``MAX_FRAME_BYTES`` default and raise
:class:`ProtocolError` from the header alone, before any body is read.
"""

import socket
import struct
import threading

import pytest

from repro.config import ServerConfig
from repro.errors import ProtocolError
from repro.pgwire import messages as m
from repro.pgwire.codec import PgFrameStream, decode_backend, encode_startup
from repro.server.client import QConnection
from repro.server.common import MAX_FRAME_BYTES
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine


def _small_server() -> PgWireServer:
    """A started PG-wire server that accepts frames up to 1 KiB."""
    server = PgWireServer(
        Engine(), server_config=ServerConfig(max_message_bytes=1024)
    )
    server.start()
    return server


class TestPgWireServerBound:
    @pytest.fixture()
    def session(self):
        """A raw PG connection past start-up."""
        server = _small_server()
        raw = socket.create_connection(server.address, timeout=5)
        raw.sendall(encode_startup(m.StartupMessage("u", "db")))
        stream = PgFrameStream.over(raw)
        while not isinstance(stream.read_message(decode_backend), m.ReadyForQuery):
            pass
        yield raw, stream
        raw.close()
        server.stop()

    def test_frame_within_the_limit_is_served(self, session):
        raw, stream = session
        sql = b"SELECT 1" + b" " * 500 + b"\x00"
        raw.sendall(b"Q" + struct.pack(">I", len(sql) + 4) + sql)
        assert isinstance(stream.read_message(decode_backend), m.RowDescription)

    def test_oversized_frame_closes_the_connection(self, session):
        raw, stream = session
        # declares 4 KiB against the 1 KiB limit; the body never follows
        raw.sendall(b"Q" + struct.pack(">I", 4096) + b"SELECT 1")
        with pytest.raises(ConnectionError):
            stream.read_frame()

    def test_oversized_startup_closes_the_connection(self):
        server = _small_server()
        try:
            with socket.create_connection(server.address, timeout=5) as raw:
                raw.sendall(struct.pack(">I", 1 << 31))
                assert raw.recv(1) == b""
        finally:
            server.stop()


class TestClientBounds:
    def test_pg_stream_rejects_an_oversized_declaration(self):
        left, right = socket.socketpair()
        with left, right:
            left.settimeout(5)
            right.sendall(b"D" + struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                PgFrameStream.over(left).read_frame()

    def test_qconnection_rejects_an_oversized_response(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, __ = listener.accept()
            with conn:
                conn.recv(64)  # the client hello
                conn.sendall(b"\x03")
                conn.recv(1024)  # the query frame
                header = struct.pack("<BBBBI", 1, 2, 0, 0, MAX_FRAME_BYTES + 1)
                conn.sendall(header)
                conn.recv(1)  # hold the socket until the client hangs up

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            # a client that waited for the body would time out instead
            with QConnection(*listener.getsockname(), read_timeout=5) as q:
                with pytest.raises(ProtocolError, match="exceeds"):
                    q.query("1")
        finally:
            thread.join(timeout=5)
            listener.close()
