"""The load generator: server child, raw QIPC clients, timed windows.

One process, two closed-loop client threads on two connections (and,
for ``tick_ingest``, the open-loop writer on a third), pinned with the
server child to one CPU (see :func:`pin_to_cpu`).  Latency is
stamped from ``sendall`` to the last byte of the response frame;
decompressing and decoding the reply - the repo's pure-Python client
costs more there than the server does on a large frame - happens after
the window, once per distinct reply, and is never billed to the server.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import hqenv
from hqdecks import TICK_RATE, Card, Workload

from repro.errors import ReproError
from repro.qipc.decode import decode_value
from repro.qipc.handshake import Credentials, client_hello
from repro.qipc.messages import unframe

#: seconds a single request may take before it counts as failed; keeps a
#: wedged server from holding the run past the driver's limit
OP_TIMEOUT = 20.0
#: seconds the server child gets to load its data and announce its port
READY_TIMEOUT = 60.0
#: statistics are taken per chunk of whole passes at least this long and
#: the run reports a decile of the chunk values, so a burst of host
#: noise (a stolen time slice, a slow spell of the shared core) spoils
#: the chunks it hits and not the result
CHUNK_SECONDS = 1.0


def candidate_cpus() -> list[int]:
    """The (at most two) CPUs a run may place itself on."""
    return sorted(os.sched_getaffinity(0))[-2:]


def pin_to_cpu(cpu: int) -> None:
    """Run this process - and the server child it spawns next, which
    inherits the mask - on one CPU.

    Two findings on the shared two-vCPU hosts hqbench runs on.  A request
    that crosses CPUs pays a wake-up of a halted vCPU each way, and that
    latency, not the program, set the run-to-run spread: unpinned, the
    same code spread 13-20 % on ``dashboard_repeat`` and ``wide_fetch``;
    server and load generator on a CPU each 6-18 %; both on one CPU 5-9 %
    with *higher* throughput (the load generator mostly waits on sockets).
    And each vCPU independently spends spells of a minute or so about
    1.4x slower (a busy neighbour on the sibling hardware thread), so a
    run splits its window in two halves and puts one on each CPU.
    """
    os.sched_setaffinity(0, {cpu})


class ServerProcess:
    """The server child: spawn, wait for the port, read peak RSS, stop."""

    def __init__(self):
        env = {
            key: value
            for key, value in os.environ.items()
            # REPRO_FAULTS / REPRO_ANALYSIS / REPRO_LOCKCHECK change the
            # shipped defaults the benchmark is defined against
            if not key.startswith("REPRO_")
        }
        self.proc = subprocess.Popen(
            [sys.executable, str(hqenv.BENCH_DIR / "hqserver.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(hqenv.REPO_ROOT),
            bufsize=0,
        )
        self.ready_at = 0.0

    def wait_ready(self) -> int:
        """Block until the child announces its port; returns it."""
        fd = self.proc.stdout.fileno()
        buffered = b""
        deadline = time.monotonic() + READY_TIMEOUT
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(
                    "hqbench: server child exited or timed out before "
                    f"announcing its port (got {buffered!r})"
                )
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode("ascii", "replace")
        prefix, __, port = line.partition(" ")
        if prefix != hqenv.READY_PREFIX:
            self.stop()
            raise RuntimeError(f"hqbench: unexpected child output {line!r}")
        self.ready_at = time.perf_counter()
        return int(port)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child, in MB (read while it is still alive)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("hqbench: VmHWM not found in /proc status")

    def stop(self) -> None:
        """Close the child's stdin (its stop signal) and reap it."""
        proc = self.proc
        if proc.poll() is None:
            try:
                proc.stdin.close()
            except OSError:
                pass  # already closed: the child is on its way out
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


class Client:
    """One synchronous QIPC connection that returns raw response frames."""

    def __init__(self, port: int):
        sock = socket.create_connection(("127.0.0.1", port), timeout=OP_TIMEOUT)
        sock.sendall(client_hello(Credentials("hqbench", "")))
        if not sock.recv(1):
            sock.close()
            raise RuntimeError("hqbench: server rejected the handshake")
        self.sock = sock

    def call(self, request: bytes) -> tuple[float, float, bytes]:
        """Send one framed request; ``(t_send, t_last_byte, raw frame)``."""
        sock = self.sock
        started = time.perf_counter()
        sock.sendall(request)
        header = bytearray(8)
        self._fill(memoryview(header))
        total = struct.unpack_from("<I", header, 4)[0]
        raw = bytearray(total)
        raw[:8] = header
        self._fill(memoryview(raw)[8:])
        return started, time.perf_counter(), bytes(raw)

    def _fill(self, view: memoryview) -> None:
        got = 0
        while got < len(view):
            count = self.sock.recv_into(view[got:])
            if not count:
                raise ConnectionError("server closed the connection")
            got += count

    def query(self, text_request: bytes):
        """Untimed helper: send, then decode the reply (admin queries)."""
        return decode_reply(self.call(text_request)[2])

    def close(self) -> None:
        self.sock.close()


def decode_reply(raw: bytes):
    """Raw response frame -> Q value; error replies raise ``QError``."""
    return decode_value(unframe(raw).payload)


@dataclass
class Op:
    """One timed request: which card, when, and the raw reply."""

    card: Card
    started: float
    finished: float
    #: None when the socket failed or timed out
    raw: bytes | None
    #: open-loop ops only: when the request was due to be sent
    due: float | None = None
    #: closed-loop ops only: position in the shared card sequence
    index: int = -1

    @property
    def latency_ms(self) -> float:
        origin = self.due if self.due is not None else self.started
        return (self.finished - origin) * 1e3


def timed_call(client: Client, card: Card, due: float | None = None) -> Op:
    try:
        started, finished, raw = client.call(card.request)
    except OSError:
        # timeouts and resets: the op failed and the stream is unusable
        now = time.perf_counter()
        return Op(card, now, now, None, due)
    return Op(card, started, finished, raw, due)


class ClosedLoop:
    """N clients draining one shared, pass-structured card sequence.

    Clients take the next card from one shared cursor, so both see the
    same deck and a slow card delays only its own client.  The loop ends
    at the pass boundary nearest to ``seconds``: whole passes keep the
    template mix identical across runs, and stopping at the *nearest*
    boundary keeps the mean window at ``seconds``.
    """

    def __init__(self, workload: Workload, clients: list[Client], seconds: float):
        self.workload = workload
        self.clients = clients
        self.seconds = seconds
        self.ops: list[Op] = []
        self._cards: list[Card] = []
        self._cursor = 0
        self._stopped = False
        self._lock = threading.Lock()
        self._per_client: list[list[Op]] = [[] for __ in clients]
        self.started = 0.0
        self.unsent = 0
        self.first_pass: list[Card] = []

    def _take(self) -> tuple[int, Card] | None:
        with self._lock:
            if self._stopped:
                return None
            if self._cursor == len(self._cards):
                passes = self._cursor // self.workload.deck_size
                elapsed = time.perf_counter() - self.started
                if passes and elapsed + elapsed / passes / 2 >= self.seconds:
                    self._stopped = True
                    return None
                self._cards.extend(self.workload.deck())
            index = self._cursor
            self._cursor += 1
            return index, self._cards[index]

    def _drive(self, client: Client, ops: list[Op]) -> None:
        while True:
            taken = self._take()
            if taken is None:
                return
            op = timed_call(client, taken[1])
            op.index = taken[0]
            ops.append(op)
            if op.raw is None:
                return

    def threads(self) -> list[threading.Thread]:
        return [
            threading.Thread(target=self._drive, args=(client, ops))
            for client, ops in zip(self.clients, self._per_client)
        ]

    def collect(self) -> None:
        self.ops = sorted(
            (op for ops in self._per_client for op in ops),
            key=lambda op: op.started,
        )
        # cards handed out but never answered were cut by a dead client
        self.unsent = len(self._cards) - len(self.ops)
        self.first_pass = self._cards[: self.workload.deck_size]

    def chunks(self, offset: float = 0.0) -> list[tuple[float, list[Op]]]:
        """``(seconds, ops)`` over consecutive chunks of whole passes.

        A pass ends when the last of its cards is answered.  A chunk ends
        with the first pass to end on or after the next point of a fixed
        grid (``started + offset + k * CHUNK_SECONDS``), so chunks of the
        tick workload all hold the same number of due inserts; a short
        tail joins the chunk before it.
        """
        size = self.workload.deck_size
        by_pass: dict[int, list[Op]] = {}
        for op in self.ops:
            by_pass.setdefault(op.index // size, []).append(op)
        chunks: list[tuple[float, list[Op]]] = []
        origin = self.started + offset
        chunk_start = self.started
        grid_point = 1
        pending: list[Op] = []
        for number in sorted(by_pass):
            pending.extend(by_pass[number])
            pass_end = max(op.finished for op in by_pass[number])
            if pass_end >= origin + grid_point * CHUNK_SECONDS:
                chunks.append((pass_end - chunk_start, pending))
                chunk_start, pending = pass_end, []
                grid_point = int((pass_end - origin) // CHUNK_SECONDS) + 1
        if pending:
            tail_end = max(op.finished for op in pending)
            if chunks:
                seconds, ops = chunks.pop()
                chunks.append((seconds + tail_end - chunk_start, ops + pending))
            else:
                chunks.append((tail_end - chunk_start, pending))
        return chunks


@dataclass
class WindowResult:
    reads: list[Op]
    writes: list[Op]
    #: seconds from the first send to the last reply of the read loop
    window_s: float
    #: ``(seconds, read ops)`` of each chunk of whole passes
    chunks: list[tuple[float, list[Op]]]
    #: the cards of pass 0, in deck order (what the traced run replays)
    first_pass: list[Card]
    #: cards of a started pass that no client got to (a client died)
    unsent: int = 0
    #: open-loop lateness of each write (send time minus due time), ms
    sched_lag_ms: list[float] = field(default_factory=list)


#: closed-loop clients of every workload.  A single client leaves the
#: server idle between requests, and its latency then follows the host's
#: wake-up cost rather than the program: with one reader ``tick_ingest``
#: spread 35-42 % over seeds, with two 16 %
READERS = 2


def connections_for(workload: Workload) -> int:
    """The readers' connections, plus one for the tick writer."""
    return READERS + (workload.name == "tick_ingest")


def run_window(workload: Workload, clients: list[Client], seconds: float
               ) -> WindowResult:
    """Drive one measured window of ``workload`` and return its ops."""
    tick = workload.name == "tick_ingest"
    loop = ClosedLoop(workload, clients[:READERS], seconds)
    threads = loop.threads()
    writes: list[Op] = []
    if tick:
        inserts = [
            workload.next_insert() for __ in range(int(seconds * TICK_RATE))
        ]
        threads.append(threading.Thread(
            target=_open_loop_writer,
            args=(clients[READERS], inserts, loop, writes),
        ))
    loop.started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    loop.collect()
    finished = max((op.finished for op in loop.ops), default=loop.started)
    return WindowResult(
        reads=loop.ops,
        writes=writes,
        window_s=finished - loop.started,
        # tick chunks end midway between two due inserts
        chunks=loop.chunks(0.5 / TICK_RATE if tick else 0.0),
        first_pass=loop.first_pass,
        unsent=loop.unsent,
        sched_lag_ms=[(op.started - op.due) * 1e3 for op in writes],
    )


def _open_loop_writer(client: Client, inserts: list[Card], loop: ClosedLoop,
                      out: list[Op]) -> None:
    """Send insert ``k`` at ``start + k/rate`` whatever happened before;
    latency counts from that due time, so a stall is billed to every
    insert it delayed."""
    for k, card in enumerate(inserts):
        due = loop.started + k / TICK_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op = timed_call(client, card, due)
        out.append(op)
        if op.raw is None:
            return


def row_count(value) -> int:
    """Rows of a table / items of a vector; 1 for an atom."""
    try:
        return len(value)
    except TypeError:
        return 1


class ReplyDecoder:
    """Decode each distinct reply once; remember the client-side cost."""

    def __init__(self):
        self._memo: dict[bytes, object] = {}
        self.seconds = 0.0
        self.decoded = 0

    def decode(self, raw: bytes):
        """The Q value, or the ``ReproError`` the reply stands for."""
        if raw not in self._memo:
            started = time.perf_counter()
            try:
                self._memo[raw] = decode_reply(raw)
            except ReproError as exc:
                self._memo[raw] = exc
            self.seconds += time.perf_counter() - started
            self.decoded += 1
        return self._memo[raw]
