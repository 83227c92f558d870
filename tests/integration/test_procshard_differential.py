"""Differential suite for process-mode shards: the full 25-query
Analytical Workload through ``ShardingConfig.mode="process"`` — every
result byte-identical (QIPC encoding) to the thread-mode sharded run and
to the single-backend ground truth, including when a shard worker
process is killed mid-scatter.

Process shards cross a real OS boundary (spawn, the socketpair
transport, crash respawn), so this is the test that proves the transport
is invisible: same bytes, whatever hosts the partition.

Spawned workers are the expensive part; everything shares one
module-scoped 2-shard process platform except the kill test, which
needs its own (it mutates restart state).
"""

import pytest

from repro.config import (
    CircuitBreakerConfig,
    HyperQConfig,
    RetryConfig,
    ShardingConfig,
    WlmConfig,
)
from repro.core.platform import HyperQ
from repro.core.procshard import ProcessShardBackend
from repro.core.sharded import ShardedBackend
from repro.qipc.encode import encode_value
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_table
from repro.workload.sharding import build_sharded_platform
from tests.integration.test_sharded_differential import (
    ASSIGNMENT_MESSAGES,
    run_messages,
)


def _process_config(wlm=None, **sharding_kwargs) -> HyperQConfig:
    return HyperQConfig(
        sharding=ShardingConfig(mode="process", **sharding_kwargs),
        wlm=wlm or WlmConfig(),
    )


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
def process_platform(workload):
    platform, backend, __ = build_sharded_platform(
        2, config=_process_config(), workload=workload
    )
    yield platform, backend
    backend.close()


def _procshards(backend: ShardedBackend) -> list[ProcessShardBackend]:
    shards = [handle.backend.inner for handle in backend._shards]
    assert all(isinstance(s, ProcessShardBackend) for s in shards)
    return shards


def test_full_workload_byte_identical_in_process_mode(
    workload, reference, process_platform
):
    platform, __ = process_platform
    mismatched = []
    for query in workload.queries:
        actual = encode_value(platform.q(query.text))
        if actual != reference[query.number]:
            mismatched.append(query.number)
    assert not mismatched, (
        f"queries {mismatched} diverged in process mode"
    )


def test_shards_admin_reports_process_transport(process_platform):
    platform, __ = process_platform
    table = platform.q("shards[]")
    assert list(table.column("mode").items) == ["process", "process"]
    pids = list(table.column("pid").items)
    assert all(pid > 0 for pid in pids) and pids[0] != pids[1]
    assert list(table.column("restarts").items) == [0, 0]


def test_assignments_byte_identical_in_process_mode(
    workload, process_platform
):
    single = HyperQ()
    for name, table in workload.tables.items():
        load_table(single.engine, name, table, mdi=single.mdi)
    platform, __ = process_platform
    assert run_messages(platform, ASSIGNMENT_MESSAGES) == run_messages(
        single, ASSIGNMENT_MESSAGES
    )


def test_mid_scatter_kill_respawns_and_stays_byte_identical(
    workload, reference
):
    """SIGKILL one shard worker exactly as a scattered subquery reaches
    it: the broken socket surfaces as a transient, the per-shard retry
    absorbs it against the respawned worker (partition reloaded from the
    coordinator journal), and the whole suite still reproduces the
    single-backend bytes."""
    wlm = WlmConfig(
        retry=RetryConfig(
            max_attempts=10, base_delay=0.005, max_delay=0.02,
            budget_min_tokens=1000.0, jitter_seed=7,
        ),
        breaker=CircuitBreakerConfig(failure_threshold=1000),
    )
    platform, backend, __ = build_sharded_platform(
        2, config=_process_config(wlm, max_respawns=3), workload=workload
    )
    killed = _procshards(backend)[1]
    armed = False
    try:
        mismatched = []
        for query in workload.queries:
            if not armed and "by" in query.text:
                # arm on the first scatter/partial-aggregate query: the
                # worker dies as its subquery arrives mid-fanout
                killed.kill_next_request = True
                armed = True
            actual = encode_value(platform.q(query.text))
            if actual != reference[query.number]:
                mismatched.append(query.number)
        assert armed, "no scatter query found to arm the kill on"
        assert not mismatched, (
            f"queries {mismatched} diverged after mid-scatter kill"
        )
        assert killed.restarts == 1, "worker was not respawned"
        # the crash never escaped the retry layer
        assert sum(s["errors"] for s in backend.shard_snapshot()) == 0
        rows = backend.shard_snapshot()
        assert rows[1]["restarts"] == 1
        assert rows[1]["mode"] == "process"
    finally:
        backend.close()
        assert all(
            not s.process_info()["alive"] for s in _procshards(backend)
        )
