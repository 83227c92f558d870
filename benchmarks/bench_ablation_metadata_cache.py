"""Ablation A — metadata caching on vs off.

Paper (Section 6): "Hyper-Q needs to lookup metadata (e.g., table
definitions) in the PG database catalog ... Hyper-Q provides a
configurable metadata caching mechanism ... Our experiments are conducted
with metadata caching enabled."

This ablation quantifies why: the same 25-query translation sweep with the
cache disabled re-runs catalog queries on every lookup, inflating the
algebrization stage.  Each arm is its own platform over the loaded engine
with the translation cache off, so the timed repeats run the pipeline
(and its metadata lookups) rather than replaying cached SQL.
"""

from __future__ import annotations

import gc
import time

from conftest import bench_repeats, save_results

from repro.config import (
    HyperQConfig,
    MetadataCacheConfig,
    TranslationCacheConfig,
)
from repro.core.platform import HyperQ


def _sweep(hq, workload, cache_enabled: bool) -> list[float]:
    config = HyperQConfig(
        metadata_cache=MetadataCacheConfig(enabled=cache_enabled),
        translation_cache=TranslationCacheConfig(enabled=False),
    )
    arm = HyperQ(engine=hq.engine, config=config)
    for table, keys in hq.mdi.key_annotations.items():
        arm.mdi.annotate_keys(table, keys)
    # both arms start from a full collection: with the workload's tables
    # on the heap one gen-2 pass costs about as much as a sweep
    gc.collect()
    times = []
    for query in workload.queries:
        session = arm.create_session()
        try:
            session.translate(query.text)  # warm (no-op when cache off)
            best = float("inf")
            for __ in range(bench_repeats(3)):
                start = time.perf_counter()
                session.translate(query.text)
                best = min(best, time.perf_counter() - start)
            times.append(best)
        finally:
            session.close()
    return times


def test_ablation_metadata_cache(benchmark, workload_env):
    hq, workload = workload_env

    benchmark.pedantic(
        lambda: _sweep(hq, workload, cache_enabled=True), rounds=1, iterations=1
    )

    cached_times = _sweep(hq, workload, cache_enabled=True)
    uncached_times = _sweep(hq, workload, cache_enabled=False)

    cached_total = sum(cached_times) * 1e3
    uncached_total = sum(uncached_times) * 1e3
    slowdown = uncached_total / cached_total

    print(
        f"\nAblation A: metadata cache"
        f"\n  cache ON : total translation {cached_total:8.1f} ms"
        f"\n  cache OFF: total translation {uncached_total:8.1f} ms"
        f"\n  disabling the cache slows translation {slowdown:.2f}x"
    )
    save_results(
        "ablation_metadata_cache",
        {
            "cached_ms": [t * 1e3 for t in cached_times],
            "uncached_ms": [t * 1e3 for t in uncached_times],
            "slowdown": slowdown,
        },
    )

    # shape: every query's translation is at least as fast with the cache,
    # and the sweep as a whole is measurably faster
    assert slowdown > 1.2, "the metadata cache must pay for itself"
    faster = sum(1 for c, u in zip(cached_times, uncached_times) if c <= u)
    assert faster >= len(cached_times) * 0.8
