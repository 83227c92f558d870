"""Observability overhead — instrumentation must stay under 5%.

The whole point of threading :mod:`repro.obs` through the Figure-1
pipeline is that it is cheap enough to leave on: the acceptance bar for
this repo is <5% added translation latency on the Figure-6 Analytical
Workload.  This bench sweeps the 25-query translation workload twice —
observability enabled (metrics + tracing) and disabled (the seed
behaviour: bare ``perf_counter`` stage timing, no registry updates, no
span retention) — and records the delta as a machine-readable artifact.
"""

from __future__ import annotations

import statistics
import time

from conftest import bench_repeats, bench_rounds, save_results

from repro.config import HyperQConfig, ObservabilityConfig
from repro.obs import configure

OVERHEAD_BUDGET_PCT = 5.0


def _sweep_seconds(hq, workload) -> float:
    """One full translation sweep over the workload (cache pre-warmed)."""
    start = time.perf_counter()
    for query in workload.queries:
        session = hq.create_session()
        try:
            session.translate(query.text)
        finally:
            session.close()
    return time.perf_counter() - start


def _best_sweep(hq, workload, obs_on: bool, repeats: int) -> float:
    configure(ObservabilityConfig(enabled=obs_on))
    try:
        _sweep_seconds(hq, workload)  # warm caches/allocator for this mode
        return min(_sweep_seconds(hq, workload) for __ in range(repeats))
    finally:
        configure(HyperQConfig().observability)  # restore defaults


def test_obs_overhead(benchmark, workload_env):
    hq, workload = workload_env
    repeats = max(3, bench_repeats(5))

    benchmark.pedantic(
        lambda: _sweep_seconds(hq, workload),
        rounds=bench_rounds(3),
        iterations=1,
    )

    # interleave pairs so drift (thermal, GC pressure) hits both modes
    enabled, disabled = [], []
    for __ in range(repeats):
        enabled.append(_best_sweep(hq, workload, obs_on=True, repeats=1))
        disabled.append(_best_sweep(hq, workload, obs_on=False, repeats=1))
    enabled_s = min(enabled)
    disabled_s = min(disabled)
    overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s

    print(
        f"\nObservability overhead on the Figure-6 translation sweep"
        f"\n  obs enabled : {enabled_s * 1e3:8.1f} ms"
        f"\n  obs disabled: {disabled_s * 1e3:8.1f} ms"
        f"\n  overhead    : {overhead_pct:+.2f}%  (budget {OVERHEAD_BUDGET_PCT}%)"
    )
    save_results(
        "obs_overhead",
        {
            "enabled_ms": [t * 1e3 for t in enabled],
            "disabled_ms": [t * 1e3 for t in disabled],
            "best_enabled_ms": enabled_s * 1e3,
            "best_disabled_ms": disabled_s * 1e3,
            "median_enabled_ms": statistics.median(enabled) * 1e3,
            "median_disabled_ms": statistics.median(disabled) * 1e3,
            "overhead_pct": overhead_pct,
            "budget_pct": OVERHEAD_BUDGET_PCT,
        },
    )

    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"instrumentation costs {overhead_pct:.2f}% on the translation "
        f"sweep — over the {OVERHEAD_BUDGET_PCT}% budget"
    )
