"""One request, one context object: the endpoint creates it, the worker,
the session, the pipeline, the backend and every scatter thread see that
same object, so what one layer records on it (a shard retry) reaches the
request's trace."""

from repro.config import HyperQConfig, RetryConfig, WlmConfig
from repro.core.platform import DirectGateway
from repro.errors import ReproError
from repro.obs import get_registry, get_tracer
from repro.qlang.interp import Interpreter
from repro.server import endpoint
from repro.server.client import QConnection
from repro.server.hyperq_server import HyperQServer
from repro.sqlengine.engine import Engine
from repro.wlm import current_context
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_q_source
from repro.workload.sharding import build_sharded_platform

SOURCE = "trades: ([] Symbol:`GOOG`IBM`GOOG; Price:100.0 50.0 101.0)"


class _SpyGateway(DirectGateway):
    """Records the active request context on every statement."""

    def __init__(self, engine: Engine):
        super().__init__(engine)
        self.seen = []
        self.statements = []

    def run_sql(self, sql: str):
        self.seen.append(current_context())
        self.statements.append(sql)
        return super().run_sql(sql)


def test_every_statement_of_a_served_query_sees_the_dispatched_context(
    monkeypatch,
):
    created = []

    class RecordingJob(endpoint._Job):
        __slots__ = ()

        def __init__(self, message, context):
            super().__init__(message, context)
            created.append(context)

    monkeypatch.setattr(endpoint, "_Job", RecordingJob)
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    spy = _SpyGateway(engine)
    config = HyperQConfig(wlm=WlmConfig(default_deadline=30))
    with HyperQServer(backend=spy, config=config) as server:
        with QConnection(*server.address) as q:
            spy.seen.clear()
            q.query("select from trades; select from trades where Price > 60")
            seen = list(spy.seen)
    assert len(seen) >= 2 and len(created) == 1
    [context] = created
    assert context.deadline is not None
    assert all(c is context for c in seen)
    assert context.query_class == "analytical"


def test_wlm_off_served_update_is_a_cached_read():
    """With the WLM disabled nobody sets the context's class and the
    pipeline classifies nothing: a served ``update`` template is a read
    like any other, so its repeat is a result-cache hit and no table
    version moves."""
    engine = Engine()
    load_q_source(engine, Interpreter(), SOURCE, ["trades"])
    spy = _SpyGateway(engine)
    config = HyperQConfig(wlm=WlmConfig(enabled=False))
    update = "update Price: Price + 1.0 from trades"
    with HyperQServer(backend=spy, config=config) as server:
        with QConnection(*server.address) as q:
            q.query("select from trades")  # warm the metadata cache
            before = server.mdi.table_version("trades")
            spy.statements.clear()
            q.query(update)
            q.query(update)
            runs = len(spy.statements)
            bumps = server.mdi.table_version("trades") - before
            spy.statements.clear()
            q.query("select from trades")
            reads = len(spy.statements)
    assert runs == 1
    assert bumps == 0
    assert reads == 0  # the read's entry survived the update


def test_shard_retries_reach_the_request_span(monkeypatch):
    """Retries taken in scatter threads count on the request: the
    ``hyperq.run`` spans' ``wlm.retries`` add up to ``wlm_retries_total``."""
    monkeypatch.setenv("REPRO_FAULTS", "seed=7,error_rate=0.2")
    # generous recovery, so no shard gives up while its siblings retry
    config = HyperQConfig(wlm=WlmConfig(retry=RetryConfig(
        max_attempts=20, base_delay=0.001, max_delay=0.002,
        budget_min_tokens=1000.0, jitter_seed=7,
    )))
    assert config.wlm.faults.enabled
    workload = generate(AnalyticalConfig.small())
    platform, backend, __ = build_sharded_platform(
        4, config=config, workload=workload
    )
    try:
        retries = get_registry().get("wlm_retries_total")
        before = sum(retries.flat_samples().values())
        get_tracer().reset()
        session = platform.create_session()
        try:
            for query in workload.queries[:10]:
                try:
                    session.execute(query.text)
                except ReproError:
                    pass
        finally:
            session.close()
        counted = sum(retries.flat_samples().values()) - before
        attributed = sum(
            trace.attrs.get("wlm.retries", 0)
            for trace in get_tracer().traces()
            if trace.name == "hyperq.run"
        )
    finally:
        backend.close()
    assert counted > 0
    assert attributed == counted
