"""Socket-level byte identity of memoised replies (docs/CACHING.md).

Two ``HyperQServer``s over the same data, one with the result cache on
and one with it off, each driven over a raw QIPC socket through two
passes of the 25-query Analytical Workload plus the five ``wide_fetch``
shapes (two trade scans, a quote scan and two wide-row fetches whose
random float columns do not compress).  A `` `trades insert `` lands in
the middle of the second pass.

* Every reply frame — header, compressed flag and payload — must be the
  same bytes on both servers.
* On the cache-on server a spy on ``encode_value`` and ``compress`` must
  see no call while a second-pass read is answered from an entry that
  survived, and calls for every read whose entries a write stranded:
  the insert strands the two trade scans.  It is the only write: Q's
  ``update``/``delete`` templates (queries 8, 16, 25) return a modified
  copy and are cached reads like the rest.
"""

import socket
import struct

import pytest

import repro.qipc.compress
import repro.qipc.encode
from repro.config import HyperQConfig, ResultCacheConfig
from repro.qipc.encode import encode_value
from repro.qipc.messages import (
    COMPRESSION_THRESHOLD,
    HEADER_SIZE,
    MessageType,
    QipcMessage,
    frame,
)
from repro.qlang.qtypes import QType
from repro.qlang.values import QVector
from repro.server.common import BufferedSocketReader
from repro.server.hyperq_server import HyperQServer
from repro.sqlengine.engine import Engine
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_table
from repro.workload.taq import generate as generate_taq

#: the wide_fetch shapes: (text, tables it reads)
WIDE_SHAPES = (
    ("select from trades where Size>3000", "trades"),
    ("select from trades where Size>5000", "trades"),
    ("select Symbol, Time, Bid, Ask from quotes where BidSize>4000", "quotes"),
    ("select from instruments where rating within 2.1 2.6", "instruments"),
    ("select from instruments where rating within 3.1 3.6", "instruments"),
)
INSERT = (
    "`trades insert ([] Symbol: enlist `IBM; Date: enlist 2016.06.26; "
    "Time: enlist 12:00:00.000; Price: enlist 51.5; Size: enlist 9900; "
    "Ex: enlist `N)"
)
#: read index in the second pass before which the insert is sent
INSERT_AT = 15


@pytest.fixture(scope="module")
def tables():
    workload = generate(AnalyticalConfig.small())
    taq = generate_taq()
    reads = [(q.text, " ".join(q.tables)) for q in workload.queries]
    return (
        {**workload.tables, "trades": taq.trades, "quotes": taq.quotes},
        reads + list(WIDE_SHAPES),
    )


def request(text: str) -> bytes:
    payload = encode_value(QVector(QType.CHAR, list(text)))
    return frame(QipcMessage(MessageType.SYNC, payload))


class RawClient:
    """A QIPC client that hands back each reply frame undecoded."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.sendall(b"user\x03\x00")
        assert self.sock.recv(1), "handshake refused"
        self.reader = BufferedSocketReader(self.sock)

    def exchange(self, framed: bytes) -> bytes:
        self.sock.sendall(framed)
        while True:
            header = self.reader.peek(HEADER_SIZE)
            if header is not None:
                total = struct.unpack_from("<I", header, 4)[0]
                if self.reader.buffered() >= total:
                    return self.reader.take(total)
            self.reader.fill()

    def close(self) -> None:
        self.sock.close()


class Spy:
    """Counts calls to ``encode_value`` and ``compress`` in this process."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for module, name in (
            (repro.qipc.encode, "encode_value"),
            (repro.qipc.compress, "compress"),
        ):
            monkeypatch.setattr(module, name, self._counted(getattr(module, name)))

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapper


def drive(config, tables, spy_factory=None):
    """Both passes against a fresh server; returns per request
    ``(pass, text, tables, reply frame, spy calls while answering)``."""
    data, reads = tables
    engine = Engine()
    server = HyperQServer(engine=engine, config=config)
    for name, table in data.items():
        load_table(engine, name, table, mdi=server.mdi)
    plan = [(0, text, read) for text, read in reads]
    second = [(1, text, read) for text, read in reads]
    plan += second[:INSERT_AT] + [(1, INSERT, "write")] + second[INSERT_AT:]
    frames = [request(text) for __, text, __ in plan]
    spy = spy_factory() if spy_factory else None
    out = []
    with server:
        client = RawClient(server.address)
        try:
            for (number, text, read), framed in zip(plan, frames):
                before = spy.calls if spy else 0
                reply = client.exchange(framed)
                out.append((
                    number, text, read, reply,
                    (spy.calls if spy else 0) - before,
                ))
        finally:
            client.close()
        stats = server.result_cache.snapshot()
    return out, stats


def test_reply_frames_identical_and_hits_never_reencode(tables, monkeypatch):
    on, on_stats = drive(HyperQConfig(), tables, lambda: Spy(monkeypatch))
    off, off_stats = drive(
        HyperQConfig(result_cache=ResultCacheConfig(enabled=False)), tables
    )

    diverged = [
        (number, text)
        for (number, text, __, a, __), (__, __, __, b, __) in zip(on, off)
        if a != b
    ]
    assert not diverged, f"reply frames diverged: {diverged}"
    frames = [reply for __, __, __, reply, __ in on]
    assert all(f[1] == MessageType.RESPONSE for f in frames)
    assert any(f[2] == 1 for f in frames), "no reply was compressed"
    assert any(
        f[2] == 0 and len(f) > HEADER_SIZE + COMPRESSION_THRESHOLD
        for f in frames
    ), "no large reply was left uncompressed"

    # replay the cache: a read is framed afresh unless its entry was
    # framed before and no write to its tables came since
    framed_at: dict[str, int] = {}
    written_at: dict[str, int] = {}
    hits = stranded_by_insert = 0
    for index, (number, text, read, __, calls) in enumerate(on):
        tables_read = read.split()
        if text == INSERT:
            written_at["trades"] = index
            continue
        fresh = text not in framed_at or any(
            written_at.get(table, -1) > framed_at[text]
            for table in tables_read
        )
        if fresh:
            framed_at[text] = index
            assert calls > 0, f"{text!r} was not framed afresh"
            stranded_by_insert += number == 1 and "trades" in tables_read
        else:
            hits += 1
            assert calls == 0, f"cache hit {text!r} re-encoded ({calls} calls)"
    assert stranded_by_insert == 2
    # every second-pass read but the two scans the insert stranded
    assert hits == 28
    assert on_stats.reply_hits == hits
    assert off_stats.hits == 0 and off_stats.reply_hits == 0
