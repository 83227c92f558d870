"""Differential suite: the full 25-query Analytical Workload on the
sharded backend must be *byte-identical* (QIPC encoding of every result)
to a single-backend run — at every shard count, and with transient
faults injected on the shards by the deployment's one workload manager.
Q assignments over the partitioned fact tables (session-scoped and
function-local, with the temp-data tier on and off) must match too.

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
    WlmConfig,
)
from repro.core.platform import HyperQ
from repro.core.sharded import ShardedBackend, is_catalog_probe, is_write
from repro.qipc.encode import encode_value
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_table
from repro.workload.sharding import build_sharded_platform

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


def fault_config(spec: str) -> HyperQConfig:
    """A deployment injecting ``spec`` faults (REPRO_FAULTS syntax) with
    generous recovery, as in the wlm fault matrix: the point is masking
    shard faults, not exhausting retry budgets."""
    return HyperQConfig(wlm=WlmConfig(
        retry=RetryConfig(
            max_attempts=10, base_delay=0.005, max_delay=0.02,
            budget_min_tokens=1000.0, jitter_seed=7,
        ),
        breaker=CircuitBreakerConfig(failure_threshold=1000),
        faults=FaultConfig.from_env(spec),
    ))


def mismatched_queries(platform, workload, reference) -> list[int]:
    """Numbers of the workload queries whose QIPC bytes differ from the
    single-backend reference."""
    return [
        query.number
        for query in workload.queries
        if encode_value(platform.q(query.text)) != reference[query.number]
    ]


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
        mismatched = mismatched_queries(platform, workload, reference)
        assert not mismatched, (
            f"queries {mismatched} diverged at N={shard_count}"
        )
    finally:
        backend.close()
    assert not unplanned_reads


@pytest.mark.parametrize("shard_count", [2, 4])
def test_assignments_are_byte_identical(
    workload, assignment_reference, shard_count, unplanned_reads
):
    platform, backend, __ = build_sharded_platform(
        shard_count, workload=workload
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
    """Transient faults on the shards (injected through the REPRO_FAULTS
    mechanism with a fixed seed) are masked by the per-shard
    retry/breaker machinery: every query still returns the
    byte-identical answer."""
    platform, backend, __ = build_sharded_platform(
        2, config=fault_config(FAULT_SPEC), workload=workload
    )
    try:
        mismatched = mismatched_queries(platform, workload, reference)
        assert not mismatched, f"queries {mismatched} diverged under faults"
        # the faults actually fired — and were fully absorbed by the
        # per-shard retry layer (shard-level error counters track only
        # failures that escape the retries, so they stay at zero)
        fired = sum(platform.wlm.faults.injected.values())
        assert fired > 0, "fault injector never fired"
        assert sum(s["errors"] for s in backend.shard_snapshot()) == 0
    finally:
        backend.close()


def test_shard_fault_visible_in_health_snapshot(workload):
    """A single injected shard fault surfaces in ``shards[]`` telemetry
    while the answer stays correct."""
    platform, backend, __ = build_sharded_platform(
        2, config=fault_config("seed=7,error_rate=0.2"), workload=workload
    )
    faults = platform.wlm.faults
    try:
        for __ in range(10):
            platform.q("select sum notional by desk from positions")
            if sum(faults.injected.values()) > 0:
                break
        table = platform.q("shards[]")
        assert list(table.column("shard").items) == [0, 1]
        assert sum(faults.injected.values()) > 0
    finally:
        backend.close()


def test_one_manager_wraps_every_shard(workload, reference):
    """The deployment's ``HyperQConfig.wlm`` reaches the shards: its
    fault injector fires on shard statements, its retries mask them
    (25/25 byte-identical), and its ``wlm[]`` table lists the shard
    breakers next to the admission classes."""
    platform, backend, __ = build_sharded_platform(
        2, config=fault_config("seed=7,error_rate=0.2"), workload=workload
    )
    try:
        assert platform.backend is backend  # never wrapped as a whole
        mismatched = mismatched_queries(platform, workload, reference)
        assert not mismatched, f"queries {mismatched} diverged under faults"
        assert sum(platform.wlm.faults.injected.values()) > 0
        table = platform.q("wlm[]")
        breakers = {
            name
            for name, kind in zip(
                table.column("name").items, table.column("kind").items
            )
            if kind == "breaker"
        }
        assert breakers == {"shard0", "shard1"}
    finally:
        backend.close()
