"""The system under test: a default-config ``HyperQServer`` in its own process.

Run as a child of the load generator.  It loads the fixed benchmark data
into an in-process engine, starts the QIPC server on an ephemeral port
with every default of ``HyperQConfig`` (WLM, translation cache, result
cache, temp tier), announces ``HQBENCH-READY <port>`` on stdout and
serves until its stdin closes - so it cannot outlive the load generator.
From then on it receives nothing but Q text over QIPC.
"""

from __future__ import annotations

import sys

import hqenv

hqenv.bootstrap()

import hqdata  # noqa: E402

from repro.server.hyperq_server import HyperQServer  # noqa: E402
from repro.sqlengine.engine import Engine  # noqa: E402


def main() -> int:
    engine = Engine()
    server = HyperQServer(engine=engine)
    hqdata.load_engine(engine, server.mdi, hqdata.generate_tables())
    with server:
        print(f"{hqenv.READY_PREFIX} {server.address[1]}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
