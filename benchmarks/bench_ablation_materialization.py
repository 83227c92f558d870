"""Ablation C — logical vs physical materialization (paper Section 4.3).

"In some cases, only logical materialization (e.g., using PG views ...) is
sufficient.  In other cases, physical materialization (e.g., using
temporary PG tables) is necessary for correctness."

The bench runs an Example-3-style function workload — assign a filtered
table to a variable, then aggregate it repeatedly — under both strategies.
Views win when the variable is consumed once (no copy); temp tables win
when it is consumed many times (no recomputation).
"""

from __future__ import annotations

import gc
import time

from conftest import bench_repeats, bench_rounds, save_results

from repro.config import HyperQConfig, MaterializationMode
from repro.core.platform import HyperQ

ASSIGN = "dt: select inst, price, notional from positions where price > 50.0"
CONSUME = "exec max notional from dt"


def _run(hq, mode: MaterializationMode, consumers: int) -> float:
    arm = HyperQ(engine=hq.engine, config=HyperQConfig(materialization=mode))
    session = arm.create_session()
    try:
        start = time.perf_counter()
        session.execute(ASSIGN)
        for __ in range(consumers):
            session.execute(CONSUME)
        return time.perf_counter() - start
    finally:
        session.close()


def _sample(hq, mode: MaterializationMode, consumers: int) -> float:
    """One timed run with the garbage collector kept out of it: with the
    workload loaded a full collection costs 130-190 ms, and it would
    otherwise land in whichever arm allocates when it falls due."""
    gc.collect()
    gc.disable()
    try:
        return _run(hq, mode, consumers)
    finally:
        gc.enable()


def test_ablation_materialization(benchmark, workload_env):
    hq, __ = workload_env

    results = {}
    for consumers in (1, 10):
        physical = min(
            _sample(hq, MaterializationMode.PHYSICAL, consumers)
            for __ in range(bench_repeats(3))
        )
        logical = min(
            _sample(hq, MaterializationMode.LOGICAL, consumers)
            for __ in range(bench_repeats(3))
        )
        results[consumers] = {
            "physical_ms": physical * 1e3,
            "logical_ms": logical * 1e3,
        }

    benchmark.pedantic(
        lambda: _sample(hq, MaterializationMode.PHYSICAL, 1),
        rounds=bench_rounds(3),
        iterations=1,
    )

    lines = ["", "Ablation C: materialization of Q variable assignments"]
    for consumers, r in results.items():
        winner = (
            "physical" if r["physical_ms"] < r["logical_ms"] else "logical"
        )
        lines.append(
            f"  {consumers:>2} consumer(s): temp table {r['physical_ms']:8.1f} ms"
            f"  vs  view {r['logical_ms']:8.1f} ms   -> {winner} wins"
        )
    lines.append(
        "shape: views avoid the up-front copy; temp tables amortize it "
        "across repeated consumers"
    )
    print("\n".join(lines))

    save_results("ablation_materialization", results)

    many = results[10]
    # with many consumers the snapshot must beat re-running the view query
    assert many["physical_ms"] < many["logical_ms"]
