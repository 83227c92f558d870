"""Macro-benchmark — the result data plane, end to end (this PR's gate).

Measures the full gateway-side result path — read PG frames off a
socket-like source, accumulate cells, pivot to columns, encode the QIPC
response — against a faithful reimplementation of the pre-change path
(per-message ``recv_exact(1)``/``recv_exact(4)`` reads, per-cell
``cast_value`` dispatch, row-tuple buffering with a transpose pivot, and
one ``struct.pack`` per vector element).

Two invariants are asserted, not just reported:

* both pipelines produce byte-identical QIPC output;
* the streaming/vectorized path is at least 2x faster than the legacy
  path at the 100k-row size.
"""

from __future__ import annotations

import struct
import time

from conftest import bench_repeats, save_results

from repro.core.crosscompiler import pivot_result
from repro.pgwire import messages as m
from repro.pgwire.codec import PgFrameStream, encode_backend, encode_data_rows
from repro.qipc.encode import encode_value
from repro.qipc.kernels import reference_encode_vector
from repro.qipc.messages import MessageType, QipcMessage, frame
from repro.qlang.qtypes import QType, from_sql
from repro.qlang.values import QVector
from repro.server.gateway import _OID_TYPES, collect_result
from repro.sqlengine.catalog import Column
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType, cast_value

SIZES = (1_000, 10_000, 100_000)

#: the result schema: the Figure 5 trade example, one column per family
FIELDS = [
    m.FieldDescription("sym", 1043),  # varchar
    m.FieldDescription("price", 701),  # double
    m.FieldDescription("size", 20),  # bigint
]


def _wire_for(rows: int) -> bytes:
    """One statement's backend traffic: T, N x D, C, Z."""
    cells = [
        [
            f"S{i % 50:03d}".encode(),
            f"{100.0 + (i % 997) / 100.0:.2f}".encode(),
            str((i % 89) * 100).encode(),
        ]
        for i in range(rows)
    ]
    return b"".join(
        (
            encode_backend(m.RowDescription(FIELDS)),
            encode_data_rows(cells),
            encode_backend(m.CommandComplete(f"SELECT {rows}")),
            encode_backend(m.ReadyForQuery("I")),
        )
    )


class FakeSock:
    """A socket stand-in serving a canned byte stream via ``recv``."""

    RECV_CAP = 65536  # what a real kernel hands back per recv, roughly

    def __init__(self, wire: bytes):
        self._wire = wire
        self._pos = 0

    def recv(self, n: int) -> bytes:
        chunk = self._wire[self._pos : self._pos + min(n, self.RECV_CAP)]
        self._pos += len(chunk)
        return chunk


# -- the pre-change pipeline, kept verbatim as the baseline --------------------


def _legacy_recv_exact(sock: FakeSock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _legacy_parse_data_row(body: bytes) -> list:
    (count,) = struct.unpack_from(">H", body, 0)
    pos = 2
    cells = []
    for __ in range(count):
        (length,) = struct.unpack_from(">i", body, pos)
        pos += 4
        if length == -1:
            cells.append(None)
        else:
            cells.append(body[pos : pos + length])
            pos += length
    return cells


def _legacy_collect(sock: FakeSock) -> ResultSet:
    """Per-message reads, per-cell cast_value, row-tuple buffering."""
    columns: list[Column] = []
    rows: list[tuple] = []
    command = ""
    while True:
        type_byte = _legacy_recv_exact(sock, 1)
        (length,) = struct.unpack(">I", _legacy_recv_exact(sock, 4))
        body = _legacy_recv_exact(sock, length - 4)
        if type_byte == b"D":
            values = []
            for cell, column in zip(_legacy_parse_data_row(body), columns):
                if cell is None:
                    values.append(None)
                else:
                    values.append(
                        cast_value(cell.decode("utf-8"), column.sql_type)
                    )
            rows.append(tuple(values))
        elif type_byte == b"T":
            (count,) = struct.unpack_from(">H", body, 0)
            pos = 2
            columns = []
            for __ in range(count):
                end = body.index(b"\x00", pos)
                name = body[pos:end].decode("utf-8")
                # field tail: table_oid(4) attr(2) type_oid(4) size(2)
                # mod(4) fmt(2)
                (type_oid,) = struct.unpack_from(">I", body, end + 7)
                pos = end + 19
                columns.append(
                    Column(name, _OID_TYPES.get(type_oid, SqlType.TEXT))
                )
        elif type_byte == b"C":
            command = body[:-1].decode("utf-8")
        elif type_byte == b"Z":
            break
    return ResultSet(columns, rows, command=command or "SELECT")


def _legacy_pivot_vectors(result: ResultSet) -> tuple[list[str], list[QVector]]:
    """The old transpose + per-element if/elif column conversion."""
    names = [column.name for column in result.columns]
    vectors = []
    for i, column in enumerate(result.columns):
        qtype = from_sql(column.sql_type)
        null = qtype.spec.null
        raws = []
        for value in [row[i] for row in result.rows]:
            if value is None:
                raws.append(null)
            elif qtype == QType.BOOLEAN:
                raws.append(bool(value))
            elif qtype in (QType.FLOAT, QType.REAL):
                raws.append(float(value))
            elif qtype in (QType.SYMBOL, QType.CHAR):
                raws.append(str(value))
            else:
                raws.append(int(value))
        vectors.append(QVector(qtype, raws))
    return names, vectors


def _legacy_encode_table(names: list[str], vectors: list[QVector]) -> bytes:
    """Table framing around the scalar per-element vector encoder."""
    out = [
        struct.pack("<bB", 98, 0),
        struct.pack("<b", 99),
        reference_encode_vector(QVector(QType.SYMBOL, names)),
        struct.pack("<bBI", 0, 0, len(vectors)),
    ]
    for vector in vectors:
        out.append(reference_encode_vector(vector))
    return b"".join(out)


def legacy_pipeline(wire: bytes) -> bytes:
    result = _legacy_collect(FakeSock(wire))
    names, vectors = _legacy_pivot_vectors(result)
    payload = _legacy_encode_table(names, vectors)
    # compression is an orthogonal leg this PR leaves untouched; framing
    # uncompressed keeps the bench on the data-plane legs under test
    return frame(QipcMessage(MessageType.RESPONSE, payload), allow_compression=False)


# -- the streaming/vectorized pipeline (the production code) -------------------


def new_pipeline(wire: bytes) -> bytes:
    stream = PgFrameStream.over(FakeSock(wire))
    columns, data, command, error, __ = collect_result(stream)
    assert error is None
    result = ResultSet.from_columns(columns, data, command=command)
    value = pivot_result(result, "table", [])
    return frame(
        QipcMessage(MessageType.RESPONSE, encode_value(value)),
        allow_compression=False,
    )


def _best_of(fn, wire: bytes, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn(wire)
        best = min(best, time.perf_counter() - start)
    return best


def test_data_plane(benchmark):
    repeats = bench_repeats(3)
    report = []
    for size in SIZES:
        wire = _wire_for(size)
        legacy_out = legacy_pipeline(wire)
        new_out = new_pipeline(wire)
        assert new_out == legacy_out, "wire output diverged from baseline"

        legacy_seconds = _best_of(legacy_pipeline, wire, repeats)
        new_seconds = _best_of(new_pipeline, wire, repeats)
        report.append(
            {
                "rows": size,
                "wire_bytes": len(wire),
                "qipc_bytes": len(new_out),
                "legacy_ms": legacy_seconds * 1e3,
                "streaming_ms": new_seconds * 1e3,
                "speedup": legacy_seconds / new_seconds,
            }
        )

    benchmark.pedantic(
        lambda: new_pipeline(_wire_for(1_000)),
        rounds=bench_repeats(3),
        iterations=1,
    )

    lines = ["", "Result data plane: legacy vs streaming/vectorized"]
    lines.append(
        f"{'rows':>8} {'wire KiB':>9} {'legacy':>10} {'streaming':>10} "
        f"{'speedup':>8}"
    )
    for r in report:
        lines.append(
            f"{r['rows']:>8} {r['wire_bytes'] / 1024:>9.0f} "
            f"{r['legacy_ms']:>8.1f}ms {r['streaming_ms']:>8.1f}ms "
            f"{r['speedup']:>7.1f}x"
        )
    print("\n".join(lines))

    save_results("data_plane", report)

    # the PR's perf gate: >= 2x end-to-end at the 100k-row size
    big = report[-1]
    assert big["rows"] == 100_000
    assert big["speedup"] >= 2.0, (
        f"streaming data plane is only {big['speedup']:.2f}x the legacy "
        f"path at {big['rows']} rows (gate: 2x)"
    )
