"""Tests for the buffered PG frame reader and batched result framing.

Covers the PR's wire-path invariants:

* :class:`PgFrameStream`'s blocking reads (fill, then poll) decode the
  same messages as the event loop's detached ``feed``/``poll_*`` path
  over the same bytes — one frame reader, two drivers;
* batched telemetry (``_InboundStats`` and :func:`encode_data_rows`)
  produces *identical* counter totals to the per-message path;
* :func:`encode_data_rows` output is byte-for-byte what per-row
  ``encode_backend`` emits.
"""

import socket
import threading

import pytest

from repro.errors import ProtocolError
from repro.pgwire import messages as m
from repro.pgwire.codec import (
    PGWIRE_BYTES,
    PGWIRE_MESSAGES,
    PgFrameStream,
    decode_backend,
    decode_frontend,
    encode_backend,
    encode_data_rows,
    encode_frontend,
    encode_startup,
)
BACKEND_SCRIPT = [
    m.AuthenticationRequest(0),
    m.ParameterStatus("server_version", "9.2-repro"),
    m.RowDescription(
        [m.FieldDescription("a", 20), m.FieldDescription("b", 25)]
    ),
    m.DataRow([b"1", b"x"]),
    m.DataRow([b"2", None]),
    m.DataRow([None, "é".encode("utf-8")]),
    m.CommandComplete("SELECT 3"),
    m.ReadyForQuery("I"),
]


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _send_script(sock, script):
    sock.sendall(b"".join(encode_backend(message) for message in script))


class TestFrameStreamDecoding:
    def test_matches_legacy_read_message(self, pair):
        left, right = pair
        _send_script(right, BACKEND_SCRIPT)
        _send_script(right, BACKEND_SCRIPT)
        stream = PgFrameStream.over(left)
        streamed = [
            stream.read_message(decode_backend)
            for __ in range(2 * len(BACKEND_SCRIPT))
        ]
        detached = PgFrameStream.detached()
        detached.feed(b"".join(encode_backend(msg) for msg in BACKEND_SCRIPT))
        polled = [
            decode_backend(*detached.poll_frame())
            for __ in range(len(BACKEND_SCRIPT))
        ]
        assert streamed == BACKEND_SCRIPT * 2
        assert polled == BACKEND_SCRIPT

    def test_startup_roundtrip(self, pair):
        left, right = pair
        startup = m.StartupMessage("alice", "analytics", {"app": "test"})
        right.sendall(encode_startup(startup))
        stream = PgFrameStream.over(left)
        while (decoded := stream.poll_startup()) is None:
            stream.reader.fill()
        assert decoded == startup

    def test_startup_matches_legacy(self, pair):
        left, right = pair
        startup = m.StartupMessage("bob", "db")
        right.sendall(encode_startup(startup))
        right.sendall(encode_startup(startup))
        stream = PgFrameStream.over(left)
        decoded = []
        for __ in range(2):
            while (message := stream.poll_startup()) is None:
                stream.reader.fill()
            decoded.append(message)
        assert decoded == [startup, startup]

    def test_frontend_messages(self, pair):
        left, right = pair
        script = [m.Query("select 1"), m.Terminate()]
        right.sendall(b"".join(encode_frontend(q) for q in script))
        stream = PgFrameStream.over(left)
        assert [
            stream.read_message(decode_frontend) for __ in range(2)
        ] == script

    def test_bad_length_rejected(self, pair):
        left, right = pair
        right.sendall(b"D" + (2).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            PgFrameStream.over(left).read_frame()

    def test_frames_span_recv_boundaries(self, pair):
        left, right = pair
        wire = b"".join(encode_backend(msg) for msg in BACKEND_SCRIPT)

        def dribble():
            for i in range(0, len(wire), 3):
                right.sendall(wire[i : i + 3])

        thread = threading.Thread(target=dribble)
        thread.start()
        stream = PgFrameStream.over(left)
        decoded = [
            stream.read_message(decode_backend)
            for __ in range(len(BACKEND_SCRIPT))
        ]
        thread.join()
        assert decoded == BACKEND_SCRIPT


class TestBatchedDataRowEncoding:
    ROWS = [
        [b"1", b"alpha"],
        [b"2", None],
        [None, b""],
        [b"-17", "café".encode("utf-8")],
    ]

    def test_byte_identical_to_per_message_encoding(self):
        reference = b"".join(
            encode_backend(m.DataRow(cells)) for cells in self.ROWS
        )
        assert encode_data_rows(self.ROWS) == reference

    def test_empty_result_set(self):
        assert encode_data_rows([]) == b""

    def test_roundtrips_through_frame_stream(self, pair):
        left, right = pair
        right.sendall(encode_data_rows(self.ROWS))
        stream = PgFrameStream.over(left)
        decoded = [
            stream.read_message(decode_backend) for __ in range(len(self.ROWS))
        ]
        assert [message.values for message in decoded] == self.ROWS


class TestMetricsBatching:
    """Counter totals must be identical between the batched and the
    per-message paths — batching changes *when* counters move, not by
    how much."""

    @staticmethod
    def _totals():
        return (
            PGWIRE_BYTES.value(direction="in"),
            PGWIRE_MESSAGES.value(type="D", direction="in"),
            PGWIRE_MESSAGES.value(type="T", direction="in"),
            PGWIRE_MESSAGES.value(type="C", direction="in"),
            PGWIRE_MESSAGES.value(type="Z", direction="in"),
        )

    def test_inbound_totals_match_legacy(self, pair):
        left, right = pair
        script = BACKEND_SCRIPT[2:]  # T, D, D, D, C, Z
        wire = b"".join(encode_backend(message) for message in script)
        right.sendall(wire + wire)

        before = self._totals()
        stream = PgFrameStream.over(left)
        for __ in range(len(script)):
            stream.read_message(decode_backend)
        stream.flush()
        batched_delta = [
            after - b for after, b in zip(self._totals(), before)
        ]

        before = self._totals()
        detached = PgFrameStream.detached()
        detached.feed(wire)
        for __ in range(len(script)):
            detached.poll_frame()
        polled_delta = [
            after - b for after, b in zip(self._totals(), before)
        ]

        assert batched_delta == polled_delta
        assert batched_delta[0] == len(wire)
        assert batched_delta[1] == 3  # three DataRow frames

    def test_flush_on_buffer_drain(self, pair):
        left, right = pair
        frame = encode_backend(m.ReadyForQuery("I"))
        right.sendall(frame)
        before = PGWIRE_MESSAGES.value(type="Z", direction="in")
        stream = PgFrameStream.over(left)
        stream.read_frame()
        # the buffer drained, so the stats flushed without an explicit
        # flush() call
        assert (
            PGWIRE_MESSAGES.value(type="Z", direction="in") - before == 1
        )

    def test_outbound_totals_match_per_message(self):
        rows = TestBatchedDataRowEncoding.ROWS
        bytes_before = PGWIRE_BYTES.value(direction="out")
        msgs_before = PGWIRE_MESSAGES.value(type="D", direction="out")
        per_message = b"".join(
            encode_backend(m.DataRow(cells)) for cells in rows
        )
        per_message_deltas = (
            PGWIRE_BYTES.value(direction="out") - bytes_before,
            PGWIRE_MESSAGES.value(type="D", direction="out") - msgs_before,
        )

        bytes_before = PGWIRE_BYTES.value(direction="out")
        msgs_before = PGWIRE_MESSAGES.value(type="D", direction="out")
        batched = encode_data_rows(rows)
        batched_deltas = (
            PGWIRE_BYTES.value(direction="out") - bytes_before,
            PGWIRE_MESSAGES.value(type="D", direction="out") - msgs_before,
        )

        assert batched == per_message
        assert batched_deltas == per_message_deltas == (len(batched), 4.0)
