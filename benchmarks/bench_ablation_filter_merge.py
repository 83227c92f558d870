"""Ablation D — the filter-merge rule.

Q's sequential where-conjuncts bind as a chain of filters; merging the
chain into one AND-ed predicate reduces subquery nesting in the emitted
SQL and the per-level interpretation overhead in the backend.
"""

from __future__ import annotations

import time

from conftest import save_results

from repro.config import HyperQConfig, XformerConfig
from repro.core.platform import HyperQ

#: many-conjunct filters over the wide fact table
QUERIES = [
    "select inst, price from positions where p0001 > 0.1, p0002 > 0.1, "
    "p0003 > 0.1, p0004 > 0.1, p0005 > 0.1",
    "select from positions where qty > 10, price > 20.0, notional > 500.0, "
    "p0010 < 0.9",
    "select sum notional by desk from positions where p0001 > 0.2, "
    "p0002 > 0.2, p0003 > 0.2",
]


def _measure(hq, merge: bool):
    arm = HyperQ(
        engine=hq.engine,
        config=HyperQConfig(xformer=XformerConfig(filter_merge=merge)),
    )
    out = []
    for text in QUERIES:
        session = arm.create_session()
        try:
            outcome = session.translate(text)
            sql = outcome.sql_statements[-1]
            start = time.perf_counter()
            hq.engine.execute(sql)
            execute_seconds = time.perf_counter() - start
            out.append(
                {
                    "sql_bytes": len(sql),
                    "nesting": sql.count("SELECT"),
                    "execute_ms": execute_seconds * 1e3,
                }
            )
        finally:
            session.close()
    return out


def test_ablation_filter_merge(benchmark, workload_env):
    hq, __ = workload_env

    benchmark.pedantic(lambda: _measure(hq, True), rounds=1, iterations=1)
    merged = _measure(hq, True)
    chained = _measure(hq, False)

    merged_nesting = sum(m["nesting"] for m in merged)
    chained_nesting = sum(c["nesting"] for c in chained)
    merged_ms = sum(m["execute_ms"] for m in merged)
    chained_ms = sum(c["execute_ms"] for c in chained)

    print(
        f"\nAblation D: filter merge"
        f"\n  merge ON : {merged_nesting} SELECT levels, "
        f"{merged_ms:.0f} ms execution"
        f"\n  merge OFF: {chained_nesting} SELECT levels, "
        f"{chained_ms:.0f} ms execution"
    )
    save_results(
        "ablation_filter_merge", {"merged": merged, "chained": chained}
    )

    assert merged_nesting < chained_nesting, (
        "merging must reduce subquery nesting"
    )
    for m, c in zip(merged, chained):
        assert m["sql_bytes"] < c["sql_bytes"]
