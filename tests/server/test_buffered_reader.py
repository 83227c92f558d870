"""Tests for :class:`repro.server.common.BufferedSocketReader`.

The buffered reader is the substrate of the streaming data plane: both
PG-wire sides and the QIPC endpoints read through it, so its blocking
("fill, then poll"), timeout, and close semantics must match a bare
``recv`` loop exactly.
"""

import socket
import threading

import pytest

from repro.server.common import BufferedSocketReader


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestTake:
    def test_exact_read(self, pair):
        left, right = pair
        right.sendall(b"hello world")
        reader = BufferedSocketReader(left)
        assert reader.take(5) == b"hello"
        assert reader.take(6) == b" world"

    def test_many_frames_from_one_recv(self, pair):
        left, right = pair
        right.sendall(b"ab" * 500)
        reader = BufferedSocketReader(left)
        chunks = [reader.take(2) for __ in range(500)]
        assert chunks == [b"ab"] * 500
        # everything after the first take was served from the buffer
        assert reader.buffered() == 0

    def test_spans_partial_deliveries(self, pair):
        left, right = pair
        reader = BufferedSocketReader(left)

        def dribble():
            for piece in (b"ab", b"cd", b"ef"):
                right.sendall(piece)

        thread = threading.Thread(target=dribble)
        thread.start()
        assert reader.take(6) == b"abcdef"
        thread.join()

    def test_zero_bytes(self, pair):
        left, __ = pair
        assert BufferedSocketReader(left).take(0) == b""

    def test_peer_close_raises_connection_error(self, pair):
        left, right = pair
        right.sendall(b"abc")
        right.close()
        reader = BufferedSocketReader(left)
        with pytest.raises(ConnectionError):
            reader.take(10)

    def test_matches_bare_recv_exact(self, pair):
        left, right = pair
        right.sendall(b"0123456789")
        reader = BufferedSocketReader(left)
        assert reader.take(4) == b"0123"
        # remaining bytes are in the reader's buffer, not the socket
        assert reader.take(6) == b"456789"
        right.sendall(b"tail")
        assert left.recv(4) == b"tail"


class TestTimeouts:
    def test_timeout_leaves_buffered_bytes_intact(self, pair):
        left, right = pair
        left.settimeout(0.05)
        reader = BufferedSocketReader(left)
        right.sendall(b"par")
        with pytest.raises((socket.timeout, TimeoutError)):
            reader.take(6)
        # the partial delivery was not lost: completing the send lets the
        # same request succeed (same contract as bare recv loops)
        right.sendall(b"tial!")
        left.settimeout(None)
        assert reader.take(6) == b"partia"

    def test_no_socket_touch_when_buffer_satisfies(self, pair):
        left, right = pair
        right.sendall(b"buffered")
        reader = BufferedSocketReader(left)
        assert reader.take(4) == b"buff"
        # nothing else on the wire; a buffered read must not block even
        # with no timeout configured
        left.settimeout(0.05)
        assert reader.take(4) == b"ered"


class TestTakeUntil:
    """Delimiter framing (the QIPC hello) over a live socket: fill, then
    ``poll_until`` — the same units the event loop runs detached."""

    def test_includes_delimiter(self, pair):
        left, right = pair
        right.sendall(b"user:pw\x03\x00rest")
        reader = BufferedSocketReader(left)
        while (hello := reader.poll_until(b"\x00")) is None:
            reader.fill()
        assert hello == b"user:pw\x03\x00"
        assert reader.take(4) == b"rest"

    def test_limit_enforced(self, pair):
        left, right = pair
        right.sendall(b"a" * 2048)
        reader = BufferedSocketReader(left, recv_size=4096)
        with pytest.raises(ConnectionError):
            while reader.poll_until(b"\x00", limit=1024) is None:
                reader.fill()
