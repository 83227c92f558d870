"""QIPC client library — what a Q application uses to talk to a server.

Works identically against a real kdb+-style server (the mini-kdb+ demo in
:mod:`repro.server.hyperq_server`) and against Hyper-Q, which is the whole
point of the paper: the application cannot tell the difference.
"""

from __future__ import annotations

import socket

from repro.analysis.concurrency.locks import make_lock
from repro.errors import AuthenticationError, ProtocolError
from repro.qipc.decode import decode_value
from repro.qipc.encode import encode_value
from repro.qipc.handshake import Credentials, client_hello
from repro.qipc.messages import MessageType, QipcMessage, frame, poll_message
from repro.qlang.qtypes import QType
from repro.qlang.values import QValue, QVector
from repro.server.common import BufferedSocketReader


class QConnection:
    """A synchronous QIPC client connection."""

    def __init__(
        self,
        host: str,
        port: int,
        username: str = "user",
        password: str = "",
        connect_timeout: float = 10.0,
        read_timeout: float | None = None,
    ):
        self.host = host
        self.port = port
        self.credentials = Credentials(username, password)
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._sock: socket.socket | None = None
        self._reader: BufferedSocketReader | None = None
        self._lock = make_lock("server.qconnection")

    def connect(self) -> "QConnection":
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.sendall(client_hello(self.credentials))
        ack = sock.recv(1)
        if not ack:
            sock.close()
            raise AuthenticationError(
                f"server at {self.host}:{self.port} rejected the credentials"
            )
        sock.settimeout(self.read_timeout)
        self._sock = sock
        self._reader = BufferedSocketReader(sock)
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
            self._reader = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info):
        self.close()

    # -- queries -----------------------------------------------------------------

    def query(self, q_text: str, timeout: float | None = None) -> QValue:
        """Synchronous query: send text, block for the response object.

        ``timeout`` caps this one exchange (seconds); the connection's
        ``read_timeout`` is restored afterwards.  On expiry the socket
        raises ``TimeoutError`` and the stream is left mid-message — the
        caller must reconnect before reusing the connection.
        """
        if self._sock is None or self._reader is None:
            raise ProtocolError("connection is not open")
        payload = encode_value(QVector(QType.CHAR, list(q_text)))
        with self._lock:
            if timeout is not None:
                self._sock.settimeout(timeout)
            try:
                self._sock.sendall(
                    frame(QipcMessage(MessageType.SYNC, payload))
                )
                while (response := poll_message(self._reader)) is None:
                    self._reader.fill()
            finally:
                if timeout is not None and self._sock is not None:
                    self._sock.settimeout(self.read_timeout)
        if response.msg_type != MessageType.RESPONSE:
            raise ProtocolError(
                f"expected a response message, got {response.msg_type.name}"
            )
        return decode_value(response.payload)

    def query_async(self, q_text: str) -> None:
        """Fire-and-forget message (QIPC async type 0)."""
        if self._sock is None:
            raise ProtocolError("connection is not open")
        payload = encode_value(QVector(QType.CHAR, list(q_text)))
        with self._lock:
            self._sock.sendall(frame(QipcMessage(MessageType.ASYNC, payload)))
