"""Sharded scatter-gather: partition pruning on the analytical slice.

The ``ShardedBackend`` hash-partitions the workload's fact tables
(``positions``, ``marks``) on the instrument symbol.  The distribute
pass then routes any query whose predicate pins the partition key to the
single shard that can hold matching rows — so at *N* shards the backend
scans ~1/N of the fact rows the single-backend run must scan.  This
bench measures that effect on the per-instrument analytical slice of the
25-query workload (the scalar/grouped aggregates and filter scans of
Q1/Q4/Q5/Q9, specialized to one instrument the way the production
drill-down traffic pins them) and gates on ``SPEEDUP_GATE``.

Three honesty guards keep the figures meaningful:

* every slice query must carry a distribute-pass plan (the backend
  refuses an unplanned read of a partitioned table), and at 4 shards
  must prune to at most one target shard;
* every platform is built with the result cache *disabled*: the timing
  loop re-issues identical statements, which is exactly the traffic the
  cache absorbs — with it on, every pass after the warm-up measures a
  cache probe, not sharded execution;
* the thread-mode pruning figure is measured with single-threaded
  arithmetic — its scatter slice is reported but never gated, because a
  thread-mode fanout cannot beat the GIL.

``test_process_scatter_speedup`` is the multi-core claim: the same
scatter group-bys at 4 *process* shards (``ShardingConfig.mode =
"process"``, one engine per worker process) vs 1, gated at
``PROC_SPEEDUP_GATE`` on runners with >= ``PROC_GATE_MIN_CORES`` cores.
On smaller machines the measured ratio is recorded for telemetry but
the banded ``process_scatter_speedup`` key is withheld (parallel
speedup on a one-core box is noise, and committing it would band
future multi-core runs against noise).

Results land in ``benchmarks/results/sharded_scatter.json`` with the
banded ``speedup``/``process_scatter_speedup`` keys; the bench-smoke CI
job runs this in smoke mode and fails on a gate breach or a band
violation vs the committed baseline.
"""

from __future__ import annotations

import gc
import os
import time

from conftest import SMOKE, save_results

from repro.config import HyperQConfig, ResultCacheConfig, ShardingConfig
from repro.core.xformer.distributed import extract_plan
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.sharding import build_sharded_platform

#: shard counts compared by the headline figure
BASELINE_SHARDS = 1
SCALE_SHARDS = 4

#: the CI gate: pruned-slice speedup at 4 shards vs 1
SPEEDUP_GATE = 3.0

#: the multi-core gate: scatter group-by speedup at 4 process shards
#: vs 1, enforced only on runners with enough cores to parallelize
PROC_SPEEDUP_GATE = 2.0
PROC_GATE_MIN_CORES = 4

#: best-of-N timing repeats per platform
REPEATS = 2 if SMOKE else 4


def _bench_config(mode: str = "thread") -> HyperQConfig:
    """Result cache off (the loop re-issues identical statements; a hit
    would measure the cache, not sharded execution)."""
    return HyperQConfig(
        result_cache=ResultCacheConfig(enabled=False),
        sharding=ShardingConfig(mode=mode),
    )

#: the per-instrument analytical slice.  Instruments are chosen so the
#: routed shards cover all four (crc32 hash: I0005->0, I0001->1,
#: I0004->2, I0002->3, ...) — the figure measures pruning, not one
#: lucky/unlucky shard.
PRUNED_SLICE = (
    "select from positions where inst=`I0005",
    "select from marks where inst=`I0002",
    "select sum notional, avg price, mx: max qty from positions "
    "where inst=`I0001",
    "select avg mark, mx: max mark, mn: min mark from marks "
    "where inst=`I0004",
    "select sum qty by desk from positions where inst=`I0003",
    "select vw: qty wavg price by trader from positions where inst=`I0009",
)

#: group-bys with no partition predicate: fan out to every shard and
#: merge partial aggregates on the coordinator (reported, not gated)
SCATTER_SLICE = (
    "select sum notional by desk from positions",
    "select mx: max mark, mn: min mark by inst from marks",
)


def _audit_plans(platform, shard_count: int, queries) -> list[dict]:
    """Translate each query and record its distribute-pass plan."""
    audits = []
    session = platform.create_session()
    try:
        for text in queries:
            outcome = session.translate(text)
            plan, __ = extract_plan(outcome.sql_statements[-1])
            audits.append(
                {
                    "query": text,
                    "shards": shard_count,
                    "mode": plan["mode"] if plan else None,
                    "targets": (
                        [plan["shard"]]
                        if plan and plan["mode"] == "single"
                        else plan.get("targets") if plan else None
                    ),
                }
            )
    finally:
        session.close()
    return audits


def _time_slice(platform, queries) -> float:
    """Best-of-``REPEATS`` wall time for one pass over ``queries``.

    The cyclic collector is paused during each timed pass: the loaded
    workload keeps multi-GB object graphs alive, and a gen-2 collection
    landing inside one pass but not another would swamp the figure.
    """
    for text in queries:  # warm: prime translation cache + backend paths
        platform.q(text)
    best = float("inf")
    for __ in range(REPEATS):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for text in queries:
                platform.q(text)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def test_sharded_scatter_speedup():
    workload_config = (
        AnalyticalConfig(n_instruments=800, n_positions=2500, n_marks=2000)
        if SMOKE
        else AnalyticalConfig()
    )
    workload = generate(workload_config)

    # platforms are built, measured and torn down one at a time: two
    # copies of the wide workload alive at once is pure memory pressure
    audits, pruned, scatter = [], {}, {}
    for shard_count in (BASELINE_SHARDS, SCALE_SHARDS):
        platform, backend, __ = build_sharded_platform(
            shard_count, config=_bench_config(), workload=workload
        )
        try:
            # -- honesty guard: everything planned, pruned queries pruned --
            plans = _audit_plans(
                platform, shard_count, PRUNED_SLICE + SCATTER_SLICE
            )
            audits.extend(plans)
            unplanned = [a for a in plans if a["mode"] is None]
            assert not unplanned, (
                f"slice queries left without a plan: {unplanned}"
            )
            unpruned = [
                a
                for a in plans
                if shard_count == SCALE_SHARDS
                and a["query"] in PRUNED_SLICE
                and len(a["targets"] or [0]) > 1
            ]
            assert not unpruned, f"partition predicate not pruned: {unpruned}"

            # -- measure ---------------------------------------------------
            pruned[shard_count] = _time_slice(platform, PRUNED_SLICE)
            scatter[shard_count] = _time_slice(platform, SCATTER_SLICE)
            # honesty guard: nothing was served from the result cache
            assert platform.result_cache.snapshot().hits == 0, (
                "result cache served timed passes; figures are bogus"
            )
        finally:
            backend.close()
        del platform, backend
        gc.collect()

    speedup = pruned[BASELINE_SHARDS] / pruned[SCALE_SHARDS]
    scatter_speedup = scatter[BASELINE_SHARDS] / scatter[SCALE_SHARDS]
    payload = {
        "smoke": SMOKE,
        "rows": {
            "positions": workload_config.n_positions,
            "marks": workload_config.n_marks,
        },
        "shards": SCALE_SHARDS,
        "pruned_slice_queries": len(PRUNED_SLICE),
        "pruned_ms": {n: t * 1e3 for n, t in pruned.items()},
        "scatter_ms": {n: t * 1e3 for n, t in scatter.items()},
        "speedup": speedup,
        "speedup_gate": SPEEDUP_GATE,
        "scatter_groupby_speedup": scatter_speedup,
        "plans": audits,
    }
    save_results("sharded_scatter", payload)

    print(
        f"\nsharded scatter-gather ({SCALE_SHARDS} shards vs "
        f"{BASELINE_SHARDS}, positions={workload_config.n_positions} rows)"
        f"\n  pruned slice : {pruned[BASELINE_SHARDS] * 1e3:8.1f} ms -> "
        f"{pruned[SCALE_SHARDS] * 1e3:8.1f} ms "
        f"({speedup:.2f}x, gate {SPEEDUP_GATE:.1f}x)"
        f"\n  scatter slice: {scatter[BASELINE_SHARDS] * 1e3:8.1f} ms -> "
        f"{scatter[SCALE_SHARDS] * 1e3:8.1f} ms "
        f"({scatter_speedup:.2f}x, informational)"
    )

    assert speedup >= SPEEDUP_GATE, (
        f"partition pruning gave only {speedup:.2f}x at {SCALE_SHARDS} "
        f"shards (gate {SPEEDUP_GATE:.1f}x)"
    )


def test_process_scatter_speedup():
    """The multi-core claim: scatter group-bys at 4 process shards vs 1.

    Each scattered subquery runs in its own worker process, so the
    group-by arithmetic — the dominant cost on this slice — runs on 4
    cores at once while the coordinator only merges partials.  The
    workload is sized up vs the pruning bench so engine time dominates
    the QIPC hop; the gate fires only on runners with enough cores.
    """
    cores = os.cpu_count() or 1
    workload_config = (
        AnalyticalConfig(n_instruments=800, n_positions=12000, n_marks=8000)
        if SMOKE
        else AnalyticalConfig(
            n_instruments=800, n_positions=30000, n_marks=20000
        )
    )
    workload = generate(workload_config)

    timings, audits = {}, []
    for shard_count in (BASELINE_SHARDS, SCALE_SHARDS):
        platform, backend, __ = build_sharded_platform(
            shard_count, config=_bench_config("process"), workload=workload
        )
        try:
            plans = _audit_plans(platform, shard_count, SCATTER_SLICE)
            audits.extend(plans)
            # honesty guards: full fanout through the distribute pass, on
            # process-backed shards, with the result cache out of the loop
            assert all(a["mode"] is not None for a in plans), (
                f"slice queries left without a plan: {plans}"
            )
            if shard_count == SCALE_SHARDS:
                assert all(
                    len(a["targets"] or []) == SCALE_SHARDS for a in plans
                ), f"scatter did not fan out to every shard: {plans}"
            snapshot = backend.shard_snapshot()
            assert all(r["mode"] == "process" for r in snapshot), snapshot
            timings[shard_count] = _time_slice(platform, SCATTER_SLICE)
            assert platform.result_cache.snapshot().hits == 0, (
                "result cache served timed passes; figures are bogus"
            )
            assert all(r["restarts"] == 0 for r in backend.shard_snapshot()), (
                "a worker crashed mid-bench; timings include respawns"
            )
        finally:
            backend.close()
        del platform, backend
        gc.collect()

    measured = timings[BASELINE_SHARDS] / timings[SCALE_SHARDS]
    gate_enforced = cores >= PROC_GATE_MIN_CORES
    payload = {
        "smoke": SMOKE,
        "rows": {
            "positions": workload_config.n_positions,
            "marks": workload_config.n_marks,
        },
        "shards": SCALE_SHARDS,
        "cores": cores,
        "mode": "process",
        "scatter_ms": {n: t * 1e3 for n, t in timings.items()},
        "process_scatter_speedup_measured": measured,
        "process_speedup_gate": PROC_SPEEDUP_GATE,
        "gate_enforced": gate_enforced,
        "plans": audits,
    }
    if gate_enforced:
        # the banded key is only committed from multi-core runs: banding
        # a one-core ratio would compare future parallel runs to noise
        payload["process_scatter_speedup"] = measured
    save_results("process_scatter", payload)

    print(
        f"\nprocess-shard scatter ({SCALE_SHARDS} process shards vs "
        f"{BASELINE_SHARDS}, positions={workload_config.n_positions} rows, "
        f"{cores} core(s))"
        f"\n  scatter slice: {timings[BASELINE_SHARDS] * 1e3:8.1f} ms -> "
        f"{timings[SCALE_SHARDS] * 1e3:8.1f} ms ({measured:.2f}x, "
        f"gate {PROC_SPEEDUP_GATE:.1f}x "
        f"{'enforced' if gate_enforced else 'waived: needs >= 4 cores'})"
    )

    if gate_enforced:
        assert measured >= PROC_SPEEDUP_GATE, (
            f"process scatter gave only {measured:.2f}x at "
            f"{SCALE_SHARDS} process shards (gate {PROC_SPEEDUP_GATE:.1f}x "
            f"on {cores} cores)"
        )
