"""Semantic result cache (docs/CACHING.md): repeat-analytical speedup.

A dashboard-style repeated analytical query is answered from the result
cache (key: translated SQL + catalog version + per-table version
vector), skipping the backend entirely.  The bench times the same query
on a cache-disabled and a cache-enabled platform and gates the ratio at
>= 50x.  The speedup is dimensionless, so ``check_bench_regression.py``
compares it against the committed baseline band.
"""

from __future__ import annotations

import time

from conftest import bench_repeats, save_results

from repro.config import HyperQConfig, ResultCacheConfig
from repro.core.platform import HyperQ
from repro.workload.analytical import load_workload

#: acceptance floor
MIN_REPEAT_SPEEDUP = 50.0

#: the repeated dashboard query: full group-by over the fact table
REPEAT_QUERY = "select sum notional by desk from positions"
REPEAT_SWEEPS = 20


def _cache_platform(enabled: bool) -> HyperQ:
    hq = HyperQ(config=HyperQConfig(
        result_cache=ResultCacheConfig(enabled=enabled),
    ))
    load_workload(hq.engine, mdi=hq.mdi)
    return hq


def _repeat_sweep(hq: HyperQ) -> float:
    session = hq.create_session()
    try:
        start = time.perf_counter()
        for __ in range(REPEAT_SWEEPS):
            session.execute(REPEAT_QUERY)
        return time.perf_counter() - start
    finally:
        session.close()


def test_result_cache_speedup(benchmark):
    repeats = bench_repeats(3)

    # -- repeat-analytical: cache off vs cache on -------------------------
    cold_hq = _cache_platform(enabled=False)
    cold_seconds = min(_repeat_sweep(cold_hq) for __ in range(repeats))

    warm_hq = _cache_platform(enabled=True)
    _repeat_sweep(warm_hq)  # populate the cache
    warm_seconds = min(_repeat_sweep(warm_hq) for __ in range(repeats))
    repeat_speedup = (
        cold_seconds / warm_seconds if warm_seconds else float("inf")
    )
    # snapshot() returns the live stats object: pin the hit count now,
    # before the pytest-benchmark loop below inflates it
    cache_hits = warm_hq.result_cache.snapshot().hits

    benchmark(lambda: _repeat_sweep(warm_hq))

    print(
        f"\nresult cache: cold {cold_seconds * 1e3:.2f}ms, "
        f"warm {warm_seconds * 1e3:.2f}ms, {repeat_speedup:.0f}x "
        f"({REPEAT_SWEEPS} repeats; hits {cache_hits})"
    )

    save_results(
        "result_cache",
        {
            "repeat_analytical": {
                "sweeps": REPEAT_SWEEPS,
                "cold_ms": cold_seconds * 1e3,
                "warm_ms": warm_seconds * 1e3,
                "speedup": repeat_speedup,
                "cache_hits": cache_hits,
            },
        },
    )

    assert cache_hits >= REPEAT_SWEEPS
    assert repeat_speedup >= MIN_REPEAT_SPEEDUP, (
        f"repeated analytical queries should be >= {MIN_REPEAT_SPEEDUP}x "
        f"faster from the result cache (measured {repeat_speedup:.1f}x)"
    )
