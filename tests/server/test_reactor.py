"""Unit tests for the event-loop connection core (repro/server/reactor).

Covers the reactor primitives (timers, cross-thread callbacks), the
feed-bytes/poll-frame read units, the QIPC protocol FSM driven with a
fake transport (no sockets), and the loop-timer deadline path where the
reactor answers a client whose worker is stuck in the backend.
"""

import threading
import time

import pytest

from repro.config import FaultConfig, HyperQConfig, WlmConfig
from repro.core.platform import DirectGateway
from repro.errors import ProtocolError, QError
from repro.obs import metrics
from repro.pgwire import messages as m
from repro.pgwire.codec import PgFrameStream, encode_backend, encode_startup
from repro.qipc.encode import encode_value
from repro.qipc.handshake import Credentials, client_hello
from repro.qipc.messages import (
    MessageType,
    QipcMessage,
    frame,
    poll_message,
    unframe,
)
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom, QVector
from repro.server.client import QConnection
from repro.server.common import BufferedSocketReader
from repro.server.endpoint import QipcEndpoint
from repro.server.hyperq_server import HyperQServer
from repro.server.reactor import Reactor, TimerHandle
from repro.sqlengine.engine import Engine
from repro.workload.loader import load_q_source


class TestReactorPrimitives:
    def test_call_soon_threadsafe_runs_on_loop_thread(self):
        reactor = Reactor("test")
        reactor.start()
        try:
            done = threading.Event()
            seen = {}

            def record():
                seen["thread"] = threading.current_thread().name
                done.set()

            reactor.call_soon_threadsafe(record)
            assert done.wait(timeout=5.0)
            assert seen["thread"] == "reactor-test"
        finally:
            reactor.stop()

    def test_timers_fire_in_schedule_order(self):
        reactor = Reactor("test")
        reactor.start()
        try:
            fired = []
            reactor.call_later(0.05, lambda: fired.append("late"))
            reactor.call_later(0.01, lambda: fired.append("early"))
            deadline = time.monotonic() + 5.0
            while len(fired) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fired == ["early", "late"]
        finally:
            reactor.stop()

    def test_cancelled_timer_never_fires(self):
        reactor = Reactor("test")
        reactor.start()
        try:
            fired = []
            handle = reactor.call_later(0.02, lambda: fired.append("no"))
            handle.cancel()
            confirm = threading.Event()
            reactor.call_later(0.08, confirm.set)
            assert confirm.wait(timeout=5.0)
            assert fired == []
        finally:
            reactor.stop()

    def test_timer_handle_orders_by_when_then_seq(self):
        a = TimerHandle(1.0, 0, lambda: None)
        b = TimerHandle(1.0, 1, lambda: None)
        c = TimerHandle(0.5, 2, lambda: None)
        assert sorted([b, a, c]) == [c, a, b]

    def test_loop_lag_metric_minted_by_heartbeat(self):
        before = (
            metrics.get_registry().flat().get(
                "server_loop_lag_ms_count{server=lagtest}", 0.0
            )
        )
        from repro.config import ServerConfig

        reactor = Reactor("lagtest", ServerConfig(heartbeat_seconds=0.02))
        reactor.start()
        try:
            time.sleep(0.15)
        finally:
            reactor.stop()
        after = (
            metrics.get_registry().flat().get(
                "server_loop_lag_ms_count{server=lagtest}", 0.0
            )
        )
        assert after > before


class TestNonBlockingReadUnits:
    def test_detached_reader_feed_and_poll(self):
        reader = BufferedSocketReader.detached()
        assert reader.poll(4) is None
        reader.feed(b"ab")
        assert reader.peek(4) is None
        reader.feed(b"cdef")
        assert reader.peek(4) == b"abcd"
        assert reader.poll(4) == b"abcd"
        assert reader.poll(2) == b"ef"
        assert reader.poll(1) is None

    def test_detached_reader_poll_until(self):
        reader = BufferedSocketReader.detached()
        reader.feed(b"user:pw")
        assert reader.poll_until(b"\x00") is None
        reader.feed(b"\x03\x00rest")
        assert reader.poll_until(b"\x00") == b"user:pw\x03\x00"
        assert reader.buffered() == 4

    def test_detached_reader_poll_until_limit(self):
        reader = BufferedSocketReader.detached()
        reader.feed(b"x" * 2000)
        with pytest.raises(ConnectionError):
            reader.poll_until(b"\x00", limit=1024)

    def test_detached_reader_blocking_take_raises(self):
        reader = BufferedSocketReader.detached()
        reader.feed(b"ab")
        with pytest.raises(ProtocolError):
            reader.take(4)

    def test_poll_message_across_partial_feeds(self):
        payload = encode_value(QAtom(QType.LONG, 7))
        framed = frame(QipcMessage(MessageType.SYNC, payload))
        reader = BufferedSocketReader.detached()
        for i in range(len(framed)):
            assert poll_message(reader) is None or i >= len(framed)
            reader.feed(framed[i : i + 1])
        message = poll_message(reader)
        assert message is not None
        assert message.msg_type == MessageType.SYNC
        assert message.payload == payload
        assert poll_message(reader) is None

    def test_poll_message_rejects_oversized(self):
        import struct

        reader = BufferedSocketReader.detached()
        reader.feed(struct.pack("<BBBBI", 1, 1, 0, 0, 10_000_000))
        with pytest.raises(ProtocolError):
            poll_message(reader, max_bytes=1024)

    def test_pg_stream_poll_frame_partial(self):
        framed = encode_backend(m.CommandComplete("SELECT 1"))
        stream = PgFrameStream.detached()
        stream.feed(framed[:3])
        assert stream.poll_frame() is None
        stream.feed(framed[3:])
        type_byte, body = stream.poll_frame()
        assert type_byte == b"C"
        assert body == b"SELECT 1\x00"
        assert stream.poll_frame() is None

    def test_pg_stream_poll_startup_partial(self):
        framed = encode_startup(m.StartupMessage(user="hq", database="db"))
        stream = PgFrameStream.detached()
        stream.feed(framed[:5])
        assert stream.poll_startup() is None
        stream.feed(framed[5:])
        startup = stream.poll_startup()
        assert startup.user == "hq"
        assert startup.database == "db"


class _FakeReactor:
    """Runs callbacks inline and records timers (never fires them)."""

    def __init__(self):
        self.timers = []
        self._seq = 0

    def call_soon_threadsafe(self, callback):
        callback()

    def call_later(self, delay, callback):
        handle = TimerHandle(delay, self._seq, callback)
        self._seq += 1
        self.timers.append(handle)
        return handle


class _FakeTransport:
    def __init__(self):
        self.reactor = _FakeReactor()
        self.out = bytearray()
        self.closed = False

    def write(self, data):
        self.out += data

    def close(self):
        self.closed = True

    def abort(self, exc=None):
        self.closed = True


class _InlineWorkers:
    """Runs submitted jobs synchronously (deterministic FSM stepping)."""

    def submit(self, job):
        job()


class TestQipcProtocolFsm:
    """The per-connection FSM driven directly, no sockets anywhere."""

    def _protocol(self, fn=lambda q: QAtom(QType.LONG, 42)):
        endpoint = QipcEndpoint.from_function(fn)
        endpoint.workers = _InlineWorkers()
        protocol = endpoint.build_protocol()
        transport = _FakeTransport()
        protocol.connection_made(transport)
        return protocol, transport

    def test_handshake_then_query_walks_the_states(self):
        protocol, transport = self._protocol()
        assert protocol.fsm.state == "hello"
        protocol.data_received(client_hello(Credentials("u", "p")))
        assert protocol.fsm.state == "ready"
        assert bytes(transport.out[:1]) == b"\x03"  # the capability ack

        query = QVector(QType.CHAR, list("1+1"))
        del transport.out[:]
        protocol.data_received(
            frame(QipcMessage(MessageType.SYNC, encode_value(query)))
        )
        # inline workers mean the whole execute completed synchronously
        assert protocol.fsm.state == "ready"
        response = unframe(bytes(transport.out))
        assert response.msg_type == MessageType.RESPONSE
        assert ("hello", "authenticated", "ready") in protocol.fsm.history
        assert ("ready", "message", "executing") in protocol.fsm.history
        assert ("executing", "finished", "ready") in protocol.fsm.history

    def test_fragmented_hello_and_frame(self):
        protocol, transport = self._protocol()
        hello = client_hello(Credentials("u", "p"))
        framed = frame(
            QipcMessage(
                MessageType.SYNC,
                encode_value(QVector(QType.CHAR, list("1"))),
            )
        )
        blob = hello + framed
        for i in range(len(blob)):
            protocol.data_received(blob[i : i + 1])
        assert protocol.fsm.state == "ready"
        assert len(transport.out) > 1

    def test_queued_messages_dispatch_fifo(self):
        seen = []

        def record(query):
            seen.append(query)
            return QAtom(QType.LONG, len(seen))

        protocol, transport = self._protocol(record)
        protocol.data_received(client_hello(Credentials("u", "p")))
        batch = b"".join(
            frame(
                QipcMessage(
                    MessageType.SYNC,
                    encode_value(QVector(QType.CHAR, list(text))),
                )
            )
            for text in ("first", "second", "third")
        )
        protocol.data_received(batch)
        assert seen == ["first", "second", "third"]

    def test_bad_payload_type_answers_error_and_stays_open(self):
        protocol, transport = self._protocol()
        protocol.data_received(client_hello(Credentials("u", "p")))
        del transport.out[:]
        protocol.data_received(
            frame(
                QipcMessage(
                    MessageType.SYNC, encode_value(QAtom(QType.LONG, 1))
                )
            )
        )
        response = unframe(bytes(transport.out))
        assert response.msg_type == MessageType.RESPONSE
        assert not transport.closed
        assert protocol.fsm.state == "ready"

    def test_disconnect_from_any_state(self):
        protocol, transport = self._protocol()
        protocol.connection_lost(None)
        assert protocol.fsm.state == "closed"

    def test_history_stays_bounded_on_a_long_lived_connection(self):
        protocol, transport = self._protocol()
        protocol.data_received(client_hello(Credentials("u", "p")))
        query = frame(
            QipcMessage(
                MessageType.SYNC, encode_value(QVector(QType.CHAR, list("1")))
            )
        )
        for __ in range(1000):
            protocol.data_received(query)
            del transport.out[:]
        assert protocol.fsm.state == "ready"
        assert len(protocol.fsm.history) <= 32
        assert protocol.fsm.history[-1] == ("executing", "finished", "ready")


class _SleepyBackend(DirectGateway):
    """A backend that ignores deadlines entirely: only the reactor's
    loop timer can answer the client before the sleep ends."""

    def __init__(self, engine, delay):
        super().__init__(engine)
        self.delay = delay

    def run_sql(self, sql):
        time.sleep(self.delay)
        return self.engine.execute(sql)


SOURCE = "trades: ([] Symbol:`GOOG`IBM; Price:100.0 50.0; Size:10 20)"


class TestLoopTimerDeadline:
    def test_deadline_timer_answers_while_worker_is_stuck(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        config = HyperQConfig(
            wlm=WlmConfig(
                default_deadline=0.25, faults=FaultConfig(enabled=False)
            )
        )
        backend = _SleepyBackend(engine, delay=1.5)
        with HyperQServer(backend=backend, config=config) as server:
            with QConnection(*server.address) as q:
                started = time.perf_counter()
                with pytest.raises(QError) as excinfo:
                    q.query("select from trades")
                elapsed = time.perf_counter() - started
        # answered by the loop timer at ~0.25s, not by the 1.5s sleep
        assert elapsed < 1.0
        assert excinfo.value.signal == "wlm-deadline"

    def test_no_deadline_config_means_no_timer(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        config = HyperQConfig(
            wlm=WlmConfig(default_deadline=0.0)
        )
        with HyperQServer(engine=engine, config=config) as server:
            assert server.request_deadline() is None
            with QConnection(*server.address) as q:
                assert len(q.query("select from trades")) == 2


class TestConnectionGauge:
    def test_connections_open_tracks_connects_and_disconnects(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        with HyperQServer(engine=engine) as server:
            with QConnection(*server.address) as q:
                q.query("1")
                assert server.reactor.connections_open == 1
                with QConnection(*server.address) as q2:
                    q2.query("2")
                    assert server.reactor.connections_open == 2
            # disconnect is processed asynchronously by the loop
            deadline = time.monotonic() + 5.0
            while (
                server.reactor.connections_open > 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.reactor.connections_open == 0
