"""Integration tests for the observability wiring: StageTimings/span
parity, the ``metrics[]`` admin command over a real socket, and the
config opt-out restoring baseline behaviour."""

import pytest

from repro.config import HyperQConfig, ObservabilityConfig
from repro.core.platform import HyperQ
from repro.obs import configure, get_registry, get_tracer
from repro.qlang.interp import Interpreter
from repro.qlang.values import QDict
from repro.server.client import QConnection
from repro.server.hyperq_server import HyperQServer
from repro.sqlengine.engine import Engine
from repro.workload.loader import load_q_source

SOURCE = (
    "trades: ([] Symbol:`GOOG`IBM`GOOG; Price:100.0 50.0 101.0; "
    "Size:10 20 30)"
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from the process-global registry/tracer."""
    registry, tracer = get_registry(), get_tracer()
    registry.reset()
    tracer.reset()
    yield
    registry.enable()
    tracer.enable()
    registry.reset()
    tracer.reset()


def make_hyperq(config: HyperQConfig | None = None) -> HyperQ:
    hq = HyperQ(config=config)
    load_q_source(hq.engine, Interpreter(), SOURCE, ["trades"], mdi=hq.mdi)
    return hq


def spans_of_stage(span, stage: str) -> list:
    """Every span in the tree billed to ``stage`` (its ``stage`` attr)."""
    found = [span] if span.attrs.get("stage") == stage else []
    for child in span.children:
        found.extend(spans_of_stage(child, stage))
    return found


class TestStageTimingSpanParity:
    def test_timings_match_span_durations(self):
        session = make_hyperq().create_session()
        try:
            outcome = session.run("select from trades where Price > 60")
        finally:
            session.close()
        trace = get_tracer().last_trace()
        assert trace is not None and trace.name == "hyperq.run"
        # the session's parse stage is its own span; every pipeline pass
        # is one pass.<name> span carrying the stage it bills
        assert [s.name for s in spans_of_stage(trace, "parse")] == [
            "stage.parse"
        ]
        assert not trace.find("stage.algebrize")
        for stage, recorded in (
            ("parse", outcome.timings.parse),
            ("algebrize", outcome.timings.algebrize),
            ("optimize", outcome.timings.optimize),
            ("serialize", outcome.timings.serialize),
        ):
            spans = spans_of_stage(trace, stage)
            assert spans, f"no span billed to {stage}"
            span_total = sum(span.duration for span in spans)
            # timings are *derived from* the spans, so they agree exactly
            assert recorded == pytest.approx(span_total, rel=1e-9)

    def test_stage_histogram_observes_each_stage(self):
        session = make_hyperq().create_session()
        try:
            session.execute("select from trades")
        finally:
            session.close()
        histogram = get_registry().get("hyperq_stage_seconds")
        for stage in ("parse", "algebrize", "optimize", "serialize"):
            assert histogram.value(stage=stage) >= 1.0


class TestMetricsAdminCommand:
    def test_metrics_over_the_wire(self):
        engine = Engine()
        load_q_source(engine, Interpreter(), SOURCE, ["trades"])
        with HyperQServer(engine=engine) as server:
            with QConnection(*server.address) as q:
                q.query("select from trades where Price > 60")
                result = q.query("metrics[]")
        assert isinstance(result, QDict)
        exported = dict(zip(result.keys.items, result.values.items))
        assert exported["hyperq_runs_total{mode=execute}"] >= 2.0
        assert exported["hyperq_stage_seconds_count{stage=parse}"] >= 2.0
        # the query that *asked* for metrics is itself already counted
        assert (
            exported["server_queries_total{kind=sync,server=qipc}"] >= 1.0
        )

    def test_metrics_admin_in_session(self):
        session = make_hyperq().create_session()
        try:
            session.execute("select from trades")
            result = session.execute("metrics[]")
        finally:
            session.close()
        assert isinstance(result, QDict)
        names = set(result.keys.items)
        assert "hyperq_runs_total{mode=execute}" in names
        assert "mdi_cache_lookups_total" in names


class TestOptOut:
    DISABLED = HyperQConfig(observability=ObservabilityConfig(enabled=False))

    def test_disabled_records_nothing(self):
        session = make_hyperq(self.DISABLED).create_session()
        try:
            outcome = session.run("select from trades")
        finally:
            session.close()
        # StageTimings are baseline behaviour and must survive the opt-out
        assert outcome.timings.parse > 0
        assert outcome.timings.algebrize > 0
        assert get_tracer().last_trace() is None
        runs = get_registry().get("hyperq_runs_total")
        assert runs.value(mode="execute") == 0.0

    def test_a_session_keeps_the_configured_opt_out(self):
        """Only a platform applies an observability config; a session it
        creates inherits whatever is in force (the overhead bench turns
        tracing off around an existing platform's sessions)."""
        hq = make_hyperq()
        configure(ObservabilityConfig(enabled=False))
        session = hq.create_session()
        try:
            assert not get_tracer().enabled
            assert not get_registry().enabled
            session.execute("select from trades")
        finally:
            session.close()
        assert get_tracer().last_trace() is None
        assert not get_tracer().enabled
        assert not get_registry().enabled

    def test_reenabling_restores_recording(self):
        session = make_hyperq(self.DISABLED).create_session()
        session.close()
        session = make_hyperq(HyperQConfig()).create_session()
        try:
            session.execute("select from trades")
        finally:
            session.close()
        assert get_tracer().last_trace() is not None
        runs = get_registry().get("hyperq_runs_total")
        assert runs.value(mode="execute") == 1.0
