"""Concurrency tests: the paper's "configurable concurrency" enhancement.

kdb+ executes one request at a time (its main loop serializes); Hyper-Q
with an MPP backend can serve many clients concurrently, and the paper
lists configurable concurrency among the areas where Hyper-Q improves on
kdb+ without breaking application code.
"""

import threading
import time

from repro.config import HyperQConfig, ResultCacheConfig, ServerConfig
from repro.core.platform import DirectGateway
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom
from repro.server.client import QConnection
from repro.server.hyperq_server import HyperQServer, KdbServer
from repro.sqlengine.engine import Engine
from repro.workload.loader import load_q_source

SOURCE = "trades: ([] Symbol:`GOOG`IBM; Price:100.0 50.0; Size:10 20)"


def hammer(address, queries_per_client=5, clients=6):
    """N clients issuing queries concurrently; returns (results, errors)."""
    results, errors = [], []
    lock = threading.Lock()

    def worker():
        try:
            with QConnection(*address) as q:
                for __ in range(queries_per_client):
                    value = q.query("exec sum Size from trades")
                    with lock:
                        results.append(value)
        except Exception as exc:  # pragma: no cover - diagnostic path
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for __ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    return results, errors


def make_server():
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    return HyperQServer(engine=engine)


class _PeakSpy(DirectGateway):
    """Records the most ``run_sql`` calls ever in flight at once; each
    call lingers briefly so unbounded workers would overlap."""

    def __init__(self, engine):
        super().__init__(engine)
        self._lock = threading.Lock()
        self.active = self.peak = self.calls = 0

    def run_sql(self, sql):
        with self._lock:
            self.active += 1
            self.calls += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.002)
            return super().run_sql(sql)
        finally:
            with self._lock:
                self.active -= 1


class TestHyperQConcurrency:
    def test_many_clients_consistent_results(self):
        with make_server() as server:
            results, errors = hammer(server.address)
            assert not errors
            assert len(results) == 30
            assert all(r == QAtom(QType.LONG, 30) for r in results)

    def test_configurable_limit_serializes(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        backend = _PeakSpy(engine)
        config = HyperQConfig(
            server=ServerConfig(worker_threads=1),
            result_cache=ResultCacheConfig(enabled=False),
        )
        with HyperQServer(backend=backend, config=config) as server:
            results, errors = hammer(server.address, clients=4)
            assert not errors
            assert len(results) == 20
        assert backend.calls >= 20  # every query reached the backend
        assert backend.peak == 1

    def test_session_variables_stay_isolated_under_load(self):
        with make_server() as server:
            outcome = {}

            def client(tag):
                with QConnection(*server.address) as q:
                    q.query(f"mine: {tag}")
                    outcome[tag] = q.query("mine")

            threads = [
                threading.Thread(target=client, args=(i,)) for i in (1, 2, 3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            for tag, value in outcome.items():
                assert value == QAtom(QType.LONG, tag)


class TestKdbServerSerial:
    def test_kdb_server_is_serial_but_correct(self):
        server = KdbServer()
        server.interpreter.eval_text(SOURCE)
        with server:
            results, errors = hammer(server.address, clients=4)
            assert not errors
            assert all(r == QAtom(QType.LONG, 30) for r in results)
