"""The connection core: a non-blocking event loop plus a worker pool.

The paper's Hyper-Q front end is built on Erlang actor FSMs precisely so
one gateway process can hold thousands of concurrent client connections
(Section 3.4).  The previous substitution here was thread-per-connection,
which caps a server at a few hundred clients; this module replaces it
with the same shape the paper describes:

* a :class:`Reactor` — one thread driving a ``selectors`` loop: it
  accepts, reads whatever the kernel has ready, drains write buffers as
  sockets allow, and fires loop *timers* (the WLM deadline mechanism in
  the async world);
* per-connection :class:`Protocol` objects — pure event handlers that
  receive bytes and produce bytes, never touching a socket (lint rule
  HQ006 enforces this); the QIPC and PG protocols drive
  :class:`repro.core.fsm.Fsm` state machines off these events;
* a bounded :class:`WorkerPool` — the *only* place blocking work is
  allowed: query execution (admission, retries, backend reads) runs
  here, so a stalled backend can never stall the accept/read loop.

Idle connections cost one registered selector key and one reusable read
buffer — no thread, no stack — which is what makes the C10k connection
scale bench (`benchmarks/bench_connection_scale.py`) hold 1k+ clients in
one process with near-flat memory.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable

from repro.analysis.concurrency.locks import make_lock
from repro.config import ServerConfig
from repro.obs import get_logger, metrics

#: connections currently registered with a server's reactor, by server
#: kind (qipc / pgwire) — the live C10k gauge
CONNECTIONS_OPEN = metrics.gauge(
    "server_connections_open", "Connections registered with the event loop"
)
#: how late loop timers fire versus their schedule; a loaded or blocked
#: loop shows up here long before clients notice
LOOP_LAG_MS = metrics.histogram(
    "server_loop_lag_ms",
    "Milliseconds between a timer's schedule and its actual firing",
    buckets=(0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
)
#: jobs waiting for a worker thread (queries the loop has parsed but the
#: pool has not started)
WORKER_QUEUE_DEPTH = metrics.gauge(
    "server_worker_queue_depth", "Jobs queued for the worker pool"
)

_log = get_logger("server.reactor")

#: listen(2) backlog for every accept socket
ACCEPT_BACKLOG = 128
#: seconds stop() waits for the loop and each worker thread to drain
STOP_JOIN_TIMEOUT = 2.0


class TimerHandle:
    """One scheduled loop callback; ``cancel()`` is loop-thread-safe."""

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class Protocol:
    """Per-connection event handler; subclasses own a state machine.

    Protocols run entirely on the loop thread and communicate with it
    only through their :class:`Transport` — they never see a socket.
    Blocking work must be handed to the server's worker pool, with the
    result posted back via ``reactor.call_soon_threadsafe``.
    """

    transport: "Transport | None" = None

    def connection_made(self, transport: "Transport") -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        raise NotImplementedError

    def connection_lost(self, exc: Exception | None) -> None:
        return None


class Transport:
    """One accepted connection: non-blocking reads in, buffered writes out.

    All methods are loop-thread-only; cross-thread senders go through
    ``reactor.call_soon_threadsafe``.
    """

    __slots__ = ("reactor", "sock", "protocol", "_out", "_want_write",
                 "_closing", "closed")

    def __init__(self, reactor: "Reactor", sock: socket.socket,
                 protocol: Protocol):
        self.reactor = reactor
        self.sock = sock
        self.protocol = protocol
        self._out = bytearray()
        self._want_write = False
        self._closing = False
        self.closed = False

    # -- outbound ----------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Queue bytes; send immediately as far as the kernel allows."""
        if self.closed or self._closing:
            return
        if not self._out:
            try:
                sent = self.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._teardown(exc)
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
        self._out += data
        self._update_interest()

    def close(self) -> None:
        """Close once the write buffer drains (responses flush first)."""
        if self.closed:
            return
        self._closing = True
        if not self._out:
            self._teardown(None)
        else:
            self._update_interest()

    def abort(self, exc: Exception | None = None) -> None:
        """Close immediately, discarding unwritten bytes."""
        self._teardown(exc)

    # -- loop callbacks ----------------------------------------------------

    def _on_events(self, mask: int) -> None:
        if mask & selectors.EVENT_READ and not self.closed:
            self._on_readable()
        if mask & selectors.EVENT_WRITE and not self.closed:
            self._on_writable()

    def _on_readable(self) -> None:
        try:
            data = self.sock.recv(self.reactor.recv_size)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._teardown(exc)
            return
        if not data:
            self._teardown(None)
            return
        try:
            self.protocol.data_received(data)
        except Exception as exc:
            # a protocol error on one connection (bad hello, oversized
            # frame, codec failure) drops that connection only
            _log.warning(
                "connection_error", error=type(exc).__name__,
                message=str(exc)[:200],
            )
            self._teardown(exc)

    def _on_writable(self) -> None:
        if self._out:
            try:
                sent = self.sock.send(self._out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._teardown(exc)
                return
            del self._out[:sent]
        if not self._out:
            if self._closing:
                self._teardown(None)
            else:
                self._update_interest()

    def _update_interest(self) -> None:
        want = bool(self._out) or self._closing
        if want == self._want_write:
            return
        self._want_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        try:
            self.reactor._selector.modify(self.sock, events, self)
        except (KeyError, ValueError, OSError) as exc:
            self._teardown(exc)

    def _teardown(self, exc: Exception | None) -> None:
        if self.closed:
            return
        self.closed = True
        self.reactor._forget(self)
        try:
            self.sock.close()
        except OSError as close_exc:
            _log.warning("socket_close_error", message=str(close_exc))
        try:
            self.protocol.connection_lost(exc)
        except Exception as lost_exc:
            _log.warning(
                "connection_lost_error", error=type(lost_exc).__name__,
                message=str(lost_exc)[:200],
            )


class _Acceptor:
    """The listening socket's event handler: drains accept(2)."""

    __slots__ = ("reactor", "sock", "protocol_factory")

    def __init__(self, reactor: "Reactor", sock: socket.socket,
                 protocol_factory: Callable[[], Protocol]):
        self.reactor = reactor
        self.sock = sock
        self.protocol_factory = protocol_factory

    def _on_events(self, mask: int) -> None:
        while True:
            try:
                conn, __ = self.sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listening socket closed mid-stop
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:
                _log.warning("nodelay_failed", message=str(exc))
            self.reactor._adopt(conn, self.protocol_factory())


class Reactor:
    """One event-loop thread: selector + timers + cross-thread callbacks."""

    def __init__(self, label: str = "server",
                 config: ServerConfig | None = None):
        self.label = label
        self.config = config or ServerConfig()
        self.recv_size = self.config.recv_size
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self)
        self._lock = make_lock("server.reactor")
        self._callbacks: deque[Callable[[], None]] = deque()
        self._timers: list[TimerHandle] = []
        self._timer_seq = itertools.count()
        self._connections: set[Transport] = set()
        self._acceptors: list[_Acceptor] = []
        self._thread: threading.Thread | None = None
        self._running = threading.Event()

    # -- wiring (called before start / from the loop) ----------------------

    def add_acceptor(self, sock: socket.socket,
                     protocol_factory: Callable[[], Protocol]) -> None:
        acceptor = _Acceptor(self, sock, protocol_factory)
        self._acceptors.append(acceptor)
        self._selector.register(sock, selectors.EVENT_READ, acceptor)

    def _adopt(self, sock: socket.socket, protocol: Protocol) -> None:
        transport = Transport(self, sock, protocol)
        self._connections.add(transport)
        self._selector.register(sock, selectors.EVENT_READ, transport)
        CONNECTIONS_OPEN.inc(server=self.label)
        try:
            protocol.connection_made(transport)
        except Exception as exc:
            _log.warning(
                "connection_made_error", error=type(exc).__name__,
                message=str(exc)[:200],
            )
            transport.abort(exc)

    def _forget(self, transport: Transport) -> None:
        if transport in self._connections:
            self._connections.discard(transport)
            CONNECTIONS_OPEN.dec(server=self.label)
        try:
            self._selector.unregister(transport.sock)
        except (KeyError, ValueError):
            pass  # already unregistered (selector torn down)

    @property
    def connections_open(self) -> int:
        return len(self._connections)

    # -- cross-thread API --------------------------------------------------

    def call_soon_threadsafe(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop thread as soon as possible."""
        with self._lock:
            self._callbacks.append(callback)
        self._wake()

    def call_later(self, delay: float,
                   callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` on the loop thread after ``delay`` s."""
        handle = TimerHandle(
            time.monotonic() + max(delay, 0.0),
            next(self._timer_seq), callback,
        )
        # hq: allow(CC003) — O(log n) heap push, never blocks or calls out
        with self._lock:
            heapq.heappush(self._timers, handle)
        self._wake()
        return handle

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # a pending wake byte is as good as two

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._running.set()
        self._thread = threading.Thread(
            target=self._run, name=f"reactor-{self.label}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._running.clear()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=STOP_JOIN_TIMEOUT)
            self._thread = None

    def _run(self) -> None:
        self._schedule_heartbeat()
        try:
            while self._running.is_set():
                timeout = self._next_timeout()
                events = self._selector.select(timeout)
                for key, mask in events:
                    handler = key.data
                    if handler is self:
                        self._drain_wake()
                    else:
                        handler._on_events(mask)
                self._run_timers()
                self._run_callbacks()
        finally:
            self._shutdown()

    def _next_timeout(self) -> float | None:
        # hq: allow(CC003) — timer-heap peek, bounded by cancelled entries
        with self._lock:
            while self._timers and self._timers[0].cancelled:
                heapq.heappop(self._timers)
            if not self._timers:
                return None
            return max(self._timers[0].when - time.monotonic(), 0.0)

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass  # drained
        except OSError:
            pass  # wake pipe closed during stop

    def _run_timers(self) -> None:
        now = time.monotonic()
        while True:
            # hq: allow(CC003) — pops one timer per hold; callback runs unlocked
            with self._lock:
                if not self._timers or self._timers[0].when > now:
                    return
                handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            LOOP_LAG_MS.observe(
                (now - handle.when) * 1e3, server=self.label
            )
            try:
                handle.callback()
            except Exception as exc:
                _log.warning(
                    "timer_error", error=type(exc).__name__,
                    message=str(exc)[:200],
                )

    def _run_callbacks(self) -> None:
        while True:
            # hq: allow(CC003) — pops one callback per hold; runs it unlocked
            with self._lock:
                if not self._callbacks:
                    return
                callback = self._callbacks.popleft()
            try:
                callback()
            except Exception as exc:
                _log.warning(
                    "callback_error", error=type(exc).__name__,
                    message=str(exc)[:200],
                )

    def _schedule_heartbeat(self) -> None:
        """A recurring no-op timer so loop lag is sampled continuously."""
        interval = self.config.heartbeat_seconds
        if interval <= 0:
            return

        def tick() -> None:
            if self._running.is_set():
                self.call_later(interval, tick)

        self.call_later(interval, tick)

    def _shutdown(self) -> None:
        for transport in list(self._connections):
            transport.abort(None)
        for acceptor in self._acceptors:
            try:
                self._selector.unregister(acceptor.sock)
            except (KeyError, ValueError):
                pass  # never registered / already gone
            try:
                acceptor.sock.close()
            except OSError:
                pass  # already closed
        try:
            self._selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass  # selector already closed
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()


class WorkerPool:
    """Bounded threads for blocking work (the one legal place for it).

    Jobs are plain callables responsible for posting their results back
    to the loop via ``reactor.call_soon_threadsafe``; a job that raises
    is logged and never kills its worker.
    """

    _STOP = object()

    def __init__(self, size: int, label: str = "server"):
        self.label = label
        self._queue: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(
                target=self._drain, name=f"worker-{label}-{i}", daemon=True
            )
            for i in range(max(size, 1))
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, job: Callable[[], None]) -> None:
        self._queue.put(job)
        WORKER_QUEUE_DEPTH.set(self._queue.qsize(), server=self.label)

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            WORKER_QUEUE_DEPTH.set(self._queue.qsize(), server=self.label)
            if job is self._STOP:
                return
            try:
                job()
            except Exception as exc:
                _log.warning(
                    "worker_job_error", error=type(exc).__name__,
                    message=str(exc)[:200],
                )

    def shutdown(self) -> None:
        for __ in self._threads:
            self._queue.put(self._STOP)
        for thread in self._threads:
            thread.join(timeout=STOP_JOIN_TIMEOUT)


class ReactorServer:
    """Base class for event-loop servers; replaces thread-per-connection.

    Subclasses implement :meth:`build_protocol` returning one
    :class:`Protocol` per accepted connection.  The public surface
    (``start``/``stop``/``port``/``address``/context manager) matches the
    old threaded ``TcpServer`` exactly, so deployments and tests are
    unchanged.
    """

    #: metric label for this server kind (qipc / pgwire)
    label = "server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 server_config: ServerConfig | None = None):
        self.host = host
        self._requested_port = port
        self.server_config = server_config or ServerConfig()
        self._listen_sock: socket.socket | None = None
        self.reactor: Reactor | None = None
        self.workers: WorkerPool | None = None

    @property
    def port(self) -> int:
        if self._listen_sock is None:
            raise RuntimeError("server not started")
        return self._listen_sock.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "ReactorServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(ACCEPT_BACKLOG)
        sock.setblocking(False)
        self._listen_sock = sock
        self.reactor = Reactor(self.label, self.server_config)
        self.workers = WorkerPool(
            self.server_config.worker_threads, self.label
        )
        self.reactor.add_acceptor(sock, self.build_protocol)
        self.reactor.start()
        return self

    def stop(self) -> None:
        if self.reactor is not None:
            self.reactor.stop()
            self.reactor = None
        if self.workers is not None:
            self.workers.shutdown()
            self.workers = None
        self._listen_sock = None  # closed by the reactor's shutdown

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def build_protocol(self) -> Protocol:
        raise NotImplementedError
