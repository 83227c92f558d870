"""Shared socket plumbing for the server components."""

from __future__ import annotations

import socket

from repro.errors import ProtocolError

#: how much BufferedSocketReader asks the kernel for per recv(); large
#: enough to drain hundreds of small DataRow frames per syscall
DEFAULT_RECV_SIZE = 64 * 1024

#: largest frame a client-side reader accepts from a peer's length field
#: (QIPC and PG v3); servers pass ``ServerConfig.max_message_bytes``
MAX_FRAME_BYTES = 64 * 1024 * 1024


class BufferedSocketReader:
    """Exact-length reads served from large ``recv()`` chunks.

    The reader drains the socket in :data:`DEFAULT_RECV_SIZE` chunks into
    a reusable ``bytearray`` and slices complete frames out of it, so many
    frames ride on one syscall instead of three syscalls per frame.

    There is one way to read a frame: the non-blocking :meth:`peek` /
    :meth:`poll` / :meth:`poll_until` units carve it out of the buffer or
    return None.  The event-loop connection core runs them on a
    *detached* reader (:meth:`detached`) that it :meth:`feed`\\ s with
    whatever the kernel had ready; a blocking client loops "one
    :meth:`fill` from the socket, then poll" until the frame is complete.

    Timeout semantics are those of bare ``recv``: the reader never
    touches the socket while buffered bytes satisfy a request, and a
    ``socket.timeout`` raised mid-fill leaves already-received bytes in
    the buffer (the caller owns connection disposal).
    """

    __slots__ = ("_sock", "_buf", "_pos", "recv_size")

    def __init__(
        self,
        sock: socket.socket | None,
        recv_size: int = DEFAULT_RECV_SIZE,
    ):
        self._sock = sock
        self._buf = bytearray()
        self._pos = 0
        self.recv_size = recv_size

    @classmethod
    def detached(cls, recv_size: int = DEFAULT_RECV_SIZE) -> "BufferedSocketReader":
        """A reader with no socket: bytes arrive only via :meth:`feed`."""
        return cls(None, recv_size)

    def buffered(self) -> int:
        """Bytes available without touching the socket."""
        return len(self._buf) - self._pos

    def _compact(self) -> None:
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0

    def fill(self) -> None:
        """One blocking recv() from the socket into the buffer."""
        if self._sock is None:
            raise ProtocolError(
                "detached reader has no socket to block on — use "
                "feed()/poll() from the event loop"
            )
        chunk = self._sock.recv(self.recv_size)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        self.feed(chunk)

    def feed(self, data: bytes) -> None:
        """Append bytes received elsewhere (the reactor's recv)."""
        if data:
            self._compact()
            self._buf += data

    def peek(self, n: int) -> bytes | None:
        """The next ``n`` bytes without consuming them, or None if fewer
        are buffered.  Never touches the socket."""
        if self.buffered() < n:
            return None
        return bytes(self._buf[self._pos : self._pos + n])

    def poll(self, n: int) -> bytes | None:
        """Exactly ``n`` bytes if buffered, else None.  Never blocks."""
        if self.buffered() < n:
            return None
        start = self._pos
        self._pos = start + n
        return bytes(self._buf[start : self._pos])

    def poll_until(self, delimiter: bytes, limit: int = 1024) -> bytes | None:
        """Bytes up to and including ``delimiter`` if buffered, else None.

        Raises :class:`ConnectionError` once more than ``limit`` bytes are
        buffered with no delimiter in sight (a peer that will never send
        a valid hello must not grow the buffer forever).
        """
        index = self._buf.find(delimiter, self._pos)
        if index == -1:
            if self.buffered() > limit:
                raise ConnectionError(
                    f"delimiter not found in the first {limit} bytes"
                )
            return None
        end = index + len(delimiter)
        chunk = bytes(self._buf[self._pos : end])
        self._pos = end
        return chunk

    def take(self, n: int) -> bytes:
        """Exactly ``n`` bytes: poll, filling from the socket only when
        the buffer cannot satisfy the request."""
        while (chunk := self.poll(n)) is None:
            self.fill()
        return chunk
