"""Shard worker entrypoint: one partition engine in one child process.

Spawned by :mod:`repro.core.procshard` as
``python -m repro.server.shardworker --shard N``.  The worker hosts a
single partition :class:`~repro.sqlengine.engine.Engine` behind a
minimal :class:`~repro.server.endpoint.QipcEndpoint` bound to an
ephemeral port, prints ``HQ-SHARD-READY <port>`` on stdout once the
endpoint accepts connections (the coordinator's handshake barrier), and
then serves until a ``shutdown`` op arrives.

Requests are JSON op envelopes carried as QIPC char-vector queries:

``{"op": "sql", "sql": ..., "deadline_ms": ...}``
    execute a statement; the optional remaining-budget field re-arms
    the coordinator's request deadline inside this process, so a
    worker-side overrun raises the same ``DeadlineExceededError`` a
    thread-mode shard would;
``{"op": "load", "table": ..., "blob": ..., "seq": ...}``
    (re)create a partition table from a pickled column/row payload;
    ``seq`` > 0 appends a continuation chunk (wide partitions are split
    coordinator-side so no frame nears the endpoint's message limit);
``{"op": "ping"}`` / ``{"op": "version"}``
    liveness and catalog-version probes;
``{"op": "shutdown"}``
    graceful drain (sent async by the coordinator's ``close()``).

Replies use the tagged envelopes from :mod:`repro.core.procshard`, and
every exception is caught *here* and encoded with its class name and
SQLSTATE — the endpoint's generic error path collapses errors to a
signal string, which would defeat the coordinator's transient/permanent
classification.

This file and ``procshard.py`` are the only modules allowed to touch
process-spawning APIs (lint rule HQ010).
"""

from __future__ import annotations

import argparse
import json
import os
import threading

from repro.core.procshard import (
    READY_PREFIX,
    encode_exception,
    encode_result,
    encode_scalar,
    unpack_load,
)
from repro.qlang.values import QValue
from repro.server.endpoint import ConnectionHandler, QipcEndpoint
from repro.sqlengine.engine import Engine
from repro.wlm.deadline import Deadline, request_scope

#: how often the serve loop re-checks that the coordinator still exists
ORPHAN_POLL_SECONDS = 1.0


class ShardWorkerHandler(ConnectionHandler):
    """Per-connection handler; the engine is shared (its reentrant lock
    serializes statements) and ``shutdown`` trips the process event."""

    def __init__(self, engine: Engine, shutdown: threading.Event):
        self.engine = engine
        self.shutdown = shutdown

    def execute(self, query: str) -> QValue | None:
        try:
            return self._dispatch(json.loads(query))
        except Exception as exc:  # crosses the wire as data
            return encode_exception(exc)

    def _dispatch(self, envelope: dict) -> QValue | None:
        op = envelope.get("op")
        if op == "sql":
            return self._run_sql(envelope)
        if op == "load":
            columns, rows = unpack_load(envelope["blob"])
            table = envelope["table"]
            if envelope.get("seq", 0) == 0:
                self.engine.catalog.drop(table, if_exists=True)
                self.engine.create_table_from_columns(table, columns, rows)
            else:
                # continuation chunk: wide partitions are split so no
                # single load frame nears the endpoint's message limit
                self.engine.catalog.table(table).rows.extend(
                    list(r) for r in rows
                )
            return encode_scalar("loaded")
        if op == "ping":
            return encode_scalar("pong")
        if op == "version":
            return encode_scalar(self.engine.catalog.version)
        if op == "shutdown":
            self.shutdown.set()
            return encode_scalar("bye")
        raise ValueError(f"unknown shard worker op {op!r}")

    def _run_sql(self, envelope: dict) -> QValue:
        deadline_ms = envelope.get("deadline_ms")
        if deadline_ms is not None:
            deadline = Deadline.after(max(deadline_ms, 0.0) / 1000.0)
            with request_scope(deadline):
                deadline.check("shardworker.execute")
                result = self.engine.execute(envelope["sql"])
        else:
            result = self.engine.execute(envelope["sql"])
        return encode_result(result)


def serve(shard_index: int, parent_pid: int | None = None) -> None:
    """Run the worker until the coordinator sends ``shutdown`` — or
    disappears: a coordinator that dies without draining (SIGKILL, OOM)
    re-parents this process, and an orphaned shard must exit rather
    than hold its port and any inherited pipes open forever.

    ``parent_pid`` is the coordinator's declared pid (passed on the
    command line); comparing it against the live ``getppid`` also
    covers the boot race where the coordinator dies before this
    process gets as far as sampling its parent."""
    engine = Engine()
    shutdown = threading.Event()
    parent = parent_pid if parent_pid is not None else os.getppid()
    server = QipcEndpoint(
        lambda: ShardWorkerHandler(engine, shutdown), port=0
    )
    server.start()
    try:
        # the handshake line the coordinator's barrier waits for
        print(f"{READY_PREFIX} {server.port}", flush=True)
        while not shutdown.wait(ORPHAN_POLL_SECONDS):
            if os.getppid() != parent:
                break
    finally:
        server.stop()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shard", type=int, required=True, help="shard index (for logs)"
    )
    parser.add_argument(
        "--parent", type=int, default=None,
        help="coordinator pid; the worker exits if reparented away",
    )
    args = parser.parse_args(argv)
    serve(args.shard, parent_pid=args.parent)


if __name__ == "__main__":
    main()
