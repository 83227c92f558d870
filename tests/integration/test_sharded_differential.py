"""Differential suite: the full 25-query Analytical Workload on the
sharded backend must be *byte-identical* (QIPC encoding of every result)
to a single-backend run — at every shard count, and with transient
faults injected on the shard primaries.  Q assignments over the
partitioned fact tables (session-scoped and function-local, with the
temp-data tier on and off) must match too.

Identity, not tolerance: partial aggregation uses exact integer-mantissa
sums (``sum_exact``) merged on the coordinator, so even float aggregates
reproduce the single-node bits.
"""

import pytest

from repro.config import (
    CircuitBreakerConfig,
    FaultConfig,
    HyperQConfig,
    RetryConfig,
    TempTierConfig,
    WlmConfig,
)
from repro.core.platform import DirectGateway, HyperQ
from repro.core.sharded import ShardedBackend, is_catalog_probe, is_write
from repro.qipc.encode import encode_value
from repro.sqlengine.engine import Engine
from repro.wlm import WorkloadManager
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_table
from repro.workload.sharding import (
    analytical_partition_map,
    build_sharded_platform,
    load_sharded_workload,
)

#: the fault spec for the fault-injected leg (REPRO_FAULTS syntax); a
#: fixed seed makes the injected sequence reproducible
FAULT_SPEC = "seed=42,error_rate=0.1,drop_rate=0.05"

#: Q messages sent in order through one session: session-scoped and
#: function-local assignments over both partitioned fact tables, each
#: read back by lookups, scans and aggregates
ASSIGNMENT_MESSAGES = (
    "big: select inst, desk, qty, price, notional from positions "
    "where qty > 500",
    "select sum notional by desk from big",
    "select from big where price > 100.0",
    "select n: count inst, q: sum qty from big",
    "hot: select inst, ts, mark from marks where mark > 100.0",
    "select mx: max mark, mn: min mark by inst from hot",
    "select from hot where mark < 150.0",
    "f: {[x] dt: select inst, desk, notional from positions "
    "where qty > x; select sum notional by desk from dt}",
    "f[500]",
    "g: {[x] m: select inst, mark from marks where mark > x; "
    "select mx: max mark by inst from m}",
    "g[100.0]",
)


def run_messages(platform, messages) -> list[bytes | None]:
    """QIPC bytes of each message's reply (None for an assignment), all
    sent through one session."""
    session = platform.create_session()
    try:
        values = [session.execute(text) for text in messages]
    finally:
        session.close()
    return [None if v is None else encode_value(v) for v in values]


@pytest.fixture()
def unplanned_reads(monkeypatch):
    """Unannotated reads of partitioned tables reaching any sharded
    backend while the test runs (the planner must annotate them all)."""
    seen = []
    original = ShardedBackend._run_unplanned

    def spy(self, body):
        if self._referenced_partitioned(body) and not (
            is_write(body) or is_catalog_probe(body)
        ):
            seen.append(body)
        return original(self, body)

    monkeypatch.setattr(ShardedBackend, "_run_unplanned", spy)
    return seen


@pytest.fixture(scope="module")
def workload():
    return generate(AnalyticalConfig.small())


@pytest.fixture(scope="module")
def reference(workload):
    """Single-backend ground truth: QIPC-encoded bytes per query."""
    platform = HyperQ()
    for name, table in workload.tables.items():
        load_table(platform.engine, name, table, mdi=platform.mdi)
    return {
        q.number: encode_value(platform.q(q.text))
        for q in workload.queries
    }


@pytest.fixture(scope="module")
def assignment_reference(workload):
    platform = HyperQ()
    for name, table in workload.tables.items():
        load_table(platform.engine, name, table, mdi=platform.mdi)
    return run_messages(platform, ASSIGNMENT_MESSAGES)


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_full_workload_is_byte_identical(
    workload, reference, shard_count, unplanned_reads
):
    platform, backend, __ = build_sharded_platform(
        shard_count, workload=workload
    )
    try:
        mismatched = []
        for query in workload.queries:
            actual = encode_value(platform.q(query.text))
            if actual != reference[query.number]:
                mismatched.append(query.number)
        assert not mismatched, (
            f"queries {mismatched} diverged at N={shard_count}"
        )
    finally:
        backend.close()
    assert not unplanned_reads


@pytest.mark.parametrize("tier", [True, False], ids=["tier", "no-tier"])
@pytest.mark.parametrize("shard_count", [2, 4])
def test_assignments_are_byte_identical(
    workload, assignment_reference, shard_count, tier, unplanned_reads
):
    config = HyperQConfig(temp_tier=TempTierConfig(enabled=tier))
    platform, backend, __ = build_sharded_platform(
        shard_count, config=config, workload=workload
    )
    try:
        actual = run_messages(platform, ASSIGNMENT_MESSAGES)
    finally:
        backend.close()
    mismatched = [
        text
        for text, got, want in zip(
            ASSIGNMENT_MESSAGES, actual, assignment_reference
        )
        if got != want
    ]
    assert not mismatched, f"diverged at N={shard_count}: {mismatched}"
    assert not unplanned_reads


def test_full_workload_survives_injected_shard_faults(workload, reference):
    """Transient faults on the shard primaries (injected through the
    REPRO_FAULTS mechanism with a fixed seed) are masked by the
    per-shard retry/breaker machinery: every query still returns the
    byte-identical answer."""
    wlm = WorkloadManager(WlmConfig(
        # generous recovery, as in the wlm fault matrix: the point is
        # masking shard faults, not exhausting retry budgets
        retry=RetryConfig(
            max_attempts=10, base_delay=0.005, max_delay=0.02,
            budget_min_tokens=1000.0, jitter_seed=7,
        ),
        breaker=CircuitBreakerConfig(failure_threshold=1000),
        faults=FaultConfig.from_env(FAULT_SPEC),
    ))
    children = [DirectGateway(Engine()) for __ in range(2)]
    backend = ShardedBackend(
        children, analytical_partition_map(2), wlm=wlm
    )
    platform = HyperQ(backend=backend)
    load_sharded_workload(backend, mdi=platform.mdi, workload=workload)
    try:
        mismatched = []
        for query in workload.queries:
            actual = encode_value(platform.q(query.text))
            if actual != reference[query.number]:
                mismatched.append(query.number)
        assert not mismatched, f"queries {mismatched} diverged under faults"
        # the faults actually fired — and were fully absorbed by the
        # per-shard retry layer (shard-level error counters track only
        # failures that escape the retries, so they stay at zero)
        fired = sum(wlm.faults.injected.values())
        assert fired > 0, "fault injector never fired"
        assert sum(s["errors"] for s in backend.shard_snapshot()) == 0
    finally:
        backend.close()


def test_shard_fault_visible_in_health_snapshot(workload):
    """A single injected shard fault surfaces in ``shards[]`` telemetry
    while the answer stays correct."""
    wlm = WorkloadManager(WlmConfig(
        retry=RetryConfig(
            max_attempts=10, base_delay=0.005, max_delay=0.02,
            budget_min_tokens=1000.0, jitter_seed=7,
        ),
        breaker=CircuitBreakerConfig(failure_threshold=1000),
        faults=FaultConfig.from_env("seed=7,error_rate=0.2"),
    ))
    children = [DirectGateway(Engine()) for __ in range(2)]
    backend = ShardedBackend(
        children, analytical_partition_map(2), wlm=wlm
    )
    platform = HyperQ(backend=backend)
    load_sharded_workload(backend, mdi=platform.mdi, workload=workload)
    try:
        for __ in range(10):
            platform.q("select sum notional by desk from positions")
            if sum(wlm.faults.injected.values()) > 0:
                break
        table = platform.q("shards[]")
        assert list(table.column("shard").items) == [0, 1]
        assert sum(wlm.faults.injected.values()) > 0
    finally:
        backend.close()
