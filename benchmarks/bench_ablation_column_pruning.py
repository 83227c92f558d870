"""Ablation B — the Xformer's column pruning rule on vs off.

Paper (Section 3.3, Performance): "A transformation that prunes the
columns of each XTRA node, to keep only the needed columns, is used to
avoid bloating the serialized SQL with unnecessary columns, which may
negatively impact query performance."

On 500+-column tables the effect is dramatic: without pruning, a 3-column
aggregate drags the full 600-column scan through the backend.
"""

from __future__ import annotations

import time

from conftest import save_results

from repro.config import HyperQConfig, XformerConfig
from repro.core.platform import HyperQ

#: narrow-output queries over wide tables — where pruning matters most
QUERY_IDS = (1, 2, 9, 21, 22)


def _measure(hq, workload, pruning: bool):
    arm = HyperQ(
        engine=hq.engine,
        config=HyperQConfig(xformer=XformerConfig(column_pruning=pruning)),
    )
    out = []
    for query_id in QUERY_IDS:
        query = workload.queries[query_id - 1]
        session = arm.create_session()
        try:
            outcome = session.translate(query.text)
            sql = outcome.sql_statements[-1]
            start = time.perf_counter()
            hq.engine.execute(sql)
            execute_seconds = time.perf_counter() - start
            out.append(
                {
                    "query": query_id,
                    "sql_bytes": len(sql),
                    "execute_ms": execute_seconds * 1e3,
                }
            )
        finally:
            session.close()
    return out


def test_ablation_column_pruning(benchmark, workload_env):
    hq, workload = workload_env

    pruned = _measure(hq, workload, pruning=True)
    unpruned = _measure(hq, workload, pruning=False)

    def run_pruned():
        _measure(hq, workload, pruning=True)

    benchmark.pedantic(run_pruned, rounds=1, iterations=1)

    lines = ["", "Ablation B: column pruning (Xformer performance rule)"]
    lines.append(
        f"{'query':>6} {'SQL bytes on':>13} {'SQL bytes off':>14} "
        f"{'exec on':>10} {'exec off':>10}"
    )
    for p, u in zip(pruned, unpruned):
        lines.append(
            f"Q{p['query']:>5} {p['sql_bytes']:>13} {u['sql_bytes']:>14} "
            f"{p['execute_ms']:>8.1f}ms {u['execute_ms']:>8.1f}ms"
        )
    total_on = sum(p["execute_ms"] for p in pruned)
    total_off = sum(u["execute_ms"] for u in unpruned)
    sql_on = sum(p["sql_bytes"] for p in pruned)
    sql_off = sum(u["sql_bytes"] for u in unpruned)
    lines.append(
        f"totals: SQL {sql_on} vs {sql_off} bytes "
        f"({sql_off / sql_on:.1f}x bloat without pruning); "
        f"execution {total_on:.0f} vs {total_off:.0f} ms "
        f"({total_off / total_on:.1f}x slower without pruning)"
    )
    print("\n".join(lines))

    save_results(
        "ablation_column_pruning",
        {"pruned": pruned, "unpruned": unpruned},
    )

    assert sql_off > 5 * sql_on, "pruning must shrink the serialized SQL"
    assert total_off > 1.5 * total_on, (
        "pruning must speed up execution on wide tables"
    )
