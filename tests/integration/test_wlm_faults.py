"""The WLM fault-injection matrix (ISSUE acceptance scenario).

A 50-query concurrent workload runs against a server whose backend is
sabotaged by the deterministic fault injector — ~30% transient failures
(connection drops + retryable SQLSTATE 53300 errors) plus 200ms latency
spikes.  The claims under test:

* every query completes (no hung client, no lost response);
* the answers are identical to a fault-free run of the same workload;
* the recovery machinery is *visible*: retries and injected faults show
  up in ``metrics[]`` and ``wlm[]``.

A second scenario drives a circuit breaker through its full
open -> half-open -> closed lifecycle against a backend that dies and
recovers.
"""

import threading
import time

import pytest

from repro.config import (
    CircuitBreakerConfig,
    FaultConfig,
    HyperQConfig,
    ResultCacheConfig,
    RetryConfig,
    WlmConfig,
)
from repro.core.platform import DirectGateway
from repro.errors import CircuitOpenError
from repro.qlang.interp import Interpreter
from repro.server.client import QConnection
from repro.server.hyperq_server import HyperQServer
from repro.sqlengine.engine import Engine
from repro.wlm.retry import BreakerState
from repro.workload.loader import load_q_source

SOURCE = """
trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT;
            Price:100.0 50.0 101.0 30.0;
            Size:10 20 30 40)
"""

#: five read-only statements; 10 clients x 5 queries = 50 total
WORKLOAD = [
    "exec sum Size from trades",
    "count select from trades",
    "select from trades where Symbol = `GOOG",
    "exec max Price from trades",
    "select sum Size by Symbol from trades",
]

#: ~30% transient failures (drops + retryable errors), 200ms latency
#: spikes, fixed seed — the lockcheck-integration CI job uses the same spec
MATRIX_FAULTS = FaultConfig(
    enabled=True,
    seed=42,
    drop_rate=0.15,
    error_rate=0.15,
    latency_rate=0.1,
    latency_seconds=0.2,
)


def make_server(faults: FaultConfig | None = None) -> HyperQServer:
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    wlm = WlmConfig(
        # generous recovery so the matrix converges: the point here is
        # masking faults, not exhausting budgets (unit tests cover those)
        retry=RetryConfig(
            max_attempts=10, base_delay=0.01, max_delay=0.05,
            budget_min_tokens=1000.0, jitter_seed=7,
        ),
        breaker=CircuitBreakerConfig(failure_threshold=1000),
        faults=faults or FaultConfig(),
    )
    return HyperQServer(engine=engine, config=HyperQConfig(wlm=wlm))


def run_workload(address, clients=10):
    """Each client runs the full WORKLOAD once; returns results/errors."""
    results: dict[tuple[int, int], object] = {}
    errors: list[Exception] = []
    lock = threading.Lock()

    def client(tag):
        try:
            with QConnection(*address) as q:
                for i, text in enumerate(WORKLOAD):
                    value = q.query(text)
                    with lock:
                        results[(tag, i)] = value
        except Exception as exc:  # pragma: no cover - diagnostic
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(tag,))
        for tag in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    hung = [t for t in threads if t.is_alive()]
    return results, errors, hung


class TestFaultMatrix:
    def test_workload_survives_the_fault_matrix(self):
        # fault-free reference run first: the ground truth answers
        with make_server() as clean:
            expected, errors, hung = run_workload(clean.address)
            assert not errors and not hung
            assert len(expected) == 50

        with make_server(faults=MATRIX_FAULTS) as server:
            results, errors, hung = run_workload(server.address)
            # zero hangs and zero client-visible failures...
            assert not hung, f"{len(hung)} clients never finished"
            assert not errors, f"client errors under faults: {errors[:3]}"
            assert len(results) == 50
            # ...with answers identical to the fault-free run
            for key, value in sorted(results.items()):
                assert value == expected[key], f"divergence at {key}"

            # the machinery was actually exercised and is observable
            injector = server.wlm.faults
            assert injector is not None
            fired = sum(injector.injected.values())
            assert fired > 0, "fault matrix injected nothing"

            with QConnection(*server.address) as q:
                table = q.query("wlm[]")
                kinds = list(table.column("kind").items)
                assert "fault" in kinds  # injections visible in wlm[]

                snapshot = q.query("metrics[]")
                samples = dict(
                    zip(snapshot.keys.items, snapshot.values.items)
                )
                retries = sum(
                    v for k, v in samples.items()
                    if k.startswith("wlm_retries_total")
                )
                injected = sum(
                    v for k, v in samples.items()
                    if k.startswith("wlm_faults_injected_total")
                )
                assert retries > 0  # drops/errors were retried
                assert injected > 0  # and the injections were counted

    def test_faults_off_is_a_no_op(self):
        """With no REPRO_FAULTS, the injector is absent entirely."""
        with make_server() as server:
            assert server.wlm is not None
            assert server.wlm.faults is None


class FlakyGateway(DirectGateway):
    """A DirectGateway with a kill switch, for breaker lifecycle tests."""

    def __init__(self, engine):
        super().__init__(engine)
        self.failing = False
        self.calls = 0

    def run_sql(self, sql):
        self.calls += 1
        if self.failing:
            raise ConnectionError("backend down (scripted)")
        return super().run_sql(sql)


class TestBreakerLifecycle:
    def test_breaker_opens_half_opens_and_recloses(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        gateway = FlakyGateway(engine)
        wlm = WlmConfig(
            retry=RetryConfig(enabled=False),
            breaker=CircuitBreakerConfig(
                failure_threshold=2, reset_timeout=0.2, close_threshold=1
            ),
        )
        server = HyperQServer(
            backend=gateway,
            # the result cache would serve the repeated statement during
            # the outage; this test needs every repeat to hit the backend
            config=HyperQConfig(
                wlm=wlm, result_cache=ResultCacheConfig(enabled=False)
            ),
        )
        session = server.create_session()
        breaker = server.wlm.breaker_for("in-process")
        try:
            # healthy: statements flow, breaker stays closed
            session.execute("exec sum Size from trades")
            assert breaker.state == BreakerState.CLOSED

            # the backend dies: consecutive failures trip the breaker
            gateway.failing = True
            for __ in range(2):
                with pytest.raises(ConnectionError):
                    session.execute("exec sum Size from trades")
            assert breaker.state == BreakerState.OPEN

            # while open, requests fail fast without touching the backend
            calls_before = gateway.calls
            with pytest.raises(CircuitOpenError):
                session.execute("exec sum Size from trades")
            assert gateway.calls == calls_before

            # after reset_timeout the breaker half-opens; the backend has
            # recovered, so the probe succeeds and the breaker recloses
            gateway.failing = False
            time.sleep(0.25)
            assert breaker.state == BreakerState.HALF_OPEN
            session.execute("exec sum Size from trades")
            assert breaker.state == BreakerState.CLOSED

            expected = [
                (BreakerState.CLOSED, BreakerState.OPEN),
                (BreakerState.OPEN, BreakerState.HALF_OPEN),
                (BreakerState.HALF_OPEN, BreakerState.CLOSED),
            ]
            assert breaker.transitions == expected
        finally:
            session.close()
