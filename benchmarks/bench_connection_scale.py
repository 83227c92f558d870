"""Connection scale (C10k): 1k idle + 100 active clients, one process.

The event-loop connection core exists so one gateway process holds
thousands of concurrent client connections the way the paper's Erlang
actor FSMs do.  This bench proves the two properties that make that
true, and gates on them:

* **near-flat per-connection memory** — an idle connection is one
  selector registration plus one reusable read buffer, not a thread; the
  bench opens ``N_IDLE`` authenticated QIPC sessions and measures the
  per-connection Python heap growth with ``tracemalloc``;
* **no p99 collapse under connection load** — active-query p99 latency
  with ``N_ACTIVE`` concurrent clients (while all the idle connections
  stay open) must stay within ``P99_RATIO_BUDGET``x of the 10-client
  baseline at the *same total offered rate*.

Load is open-loop: every client sends on a fixed schedule and latency is
measured from the scheduled send time, so a stalled server shows up as
growing latency instead of a silently reduced request rate (the
coordinated-omission trap of closed-loop benching).  The total offered
rate is identical in both phases — only the connection count changes —
so the comparison isolates what the bench is gating: the cost of *open
connections*, not queueing at different throughputs.

Results land in ``benchmarks/results/connection_scale.json``; the
``bench-smoke`` CI job runs this in smoke mode (``REPRO_BENCH_SMOKE=1``,
~200 idle clients) and fails on a gate breach.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

from conftest import SMOKE, save_results

from repro.obs import get_registry
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom
from repro.server.client import QConnection
from repro.server.hyperq_server import KdbServer

#: idle authenticated QIPC connections held open through the scale phase
N_IDLE = 200 if SMOKE else 1000
#: concurrent active clients in the scale phase
N_ACTIVE = 25 if SMOKE else 100
#: active clients in the low-concurrency baseline phase
N_BASELINE = 10
#: total offered queries/second, identical in both phases
TOTAL_QPS = 200.0
#: how long each active phase offers load
PHASE_SECONDS = 1.5 if SMOKE else 3.0

#: gates: p99 at scale within this factor of baseline (with an absolute
#: floor — 3x of a sub-millisecond baseline is still noise), and idle
#: connections near-flat in memory
P99_RATIO_BUDGET = 3.0
P99_FLOOR_SECONDS = 0.050
PER_CONNECTION_KIB_BUDGET = 64.0


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return ordered[index]


def _run_active_phase(address, n_clients: int) -> dict:
    """Open-loop phase: ``n_clients`` paced to ``TOTAL_QPS`` combined.

    Each latency sample is measured from the query's *scheduled* send
    time; each response is checked for correctness.
    """
    interval = n_clients / TOTAL_QPS
    per_client = max(3, int(PHASE_SECONDS / interval))
    latencies: list = []
    errors: list = []
    barrier = threading.Barrier(n_clients + 1)

    def client(idx: int) -> None:
        try:
            with QConnection(*address) as q:
                barrier.wait(timeout=60)
                start = time.perf_counter() + 0.1
                for k in range(per_client):
                    scheduled = start + k * interval
                    delay = scheduled - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    got = q.query(f"{idx}+{k}")
                    elapsed = time.perf_counter() - scheduled
                    if got != QAtom(QType.LONG, idx + k):
                        raise AssertionError(f"wrong result: {got!r}")
                    latencies.append(elapsed)
        except Exception as exc:  # collected, asserted on by the gate
            errors.append(f"client {idx}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    for thread in threads:
        thread.join(timeout=120)
    return {
        "clients": n_clients,
        "queries_per_client": per_client,
        "offered_qps": TOTAL_QPS,
        "samples": len(latencies),
        "errors": errors,
        "p50_ms": _percentile(latencies, 0.50) * 1e3 if latencies else None,
        "p99_ms": _percentile(latencies, 0.99) * 1e3 if latencies else None,
        "max_ms": max(latencies) * 1e3 if latencies else None,
    }


def _open_idle_connections(address, count: int) -> tuple:
    """Open ``count`` authenticated QIPC sessions, measuring the Python
    heap growth per connection (client + server side share the process;
    the server share alone is smaller still)."""
    gc.collect()
    tracemalloc.start()
    before, __ = tracemalloc.get_traced_memory()
    idle = []
    for __ in range(count):
        idle.append(QConnection(*address).connect())
    gc.collect()
    after, __ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_connection_kib = (after - before) / count / 1024.0
    return idle, per_connection_kib


def test_connection_scale():
    server = KdbServer()
    with server:
        address = server.address

        # -- phase 1: low-concurrency latency baseline ---------------------
        _run_active_phase(address, n_clients=N_BASELINE)  # warm-up
        baseline = _run_active_phase(address, n_clients=N_BASELINE)

        # -- phase 2: open the idle fleet ----------------------------------
        idle, per_connection_kib = _open_idle_connections(address, N_IDLE)
        try:
            connections_open = server.reactor.connections_open

            # -- phase 3: same offered rate, 10x the active clients,
            # idle fleet still open ----------------------------------------
            scale = _run_active_phase(address, n_clients=N_ACTIVE)
        finally:
            for conn in idle:
                conn.close()

    p99_ratio = scale["p99_ms"] / baseline["p99_ms"]
    loop_lag = {
        name: value
        for name, value in get_registry().flat().items()
        if name.startswith("server_loop_lag_ms")
    }
    payload = {
        "smoke": SMOKE,
        "idle_connections": N_IDLE,
        "connections_open_at_scale": connections_open,
        "per_connection_kib": per_connection_kib,
        "per_connection_kib_budget": PER_CONNECTION_KIB_BUDGET,
        "baseline": baseline,
        "scale": scale,
        "p99_ratio": p99_ratio,
        "p99_ratio_budget": P99_RATIO_BUDGET,
        "p99_floor_ms": P99_FLOOR_SECONDS * 1e3,
        "server_loop_lag_ms": loop_lag,
    }
    save_results("connection_scale", payload)

    print(
        f"\nconnection scale ({N_IDLE} idle + {N_ACTIVE} active, "
        f"{TOTAL_QPS:.0f} qps offered)"
        f"\n  baseline p99 : {baseline['p99_ms']:8.2f} ms "
        f"({N_BASELINE} clients)"
        f"\n  scale p99    : {scale['p99_ms']:8.2f} ms "
        f"({N_ACTIVE} clients, ratio {p99_ratio:.2f}x, "
        f"budget {P99_RATIO_BUDGET:.1f}x)"
        f"\n  idle memory  : {per_connection_kib:8.2f} KiB/connection "
        f"(budget {PER_CONNECTION_KIB_BUDGET:.0f})"
    )

    assert not baseline["errors"], baseline["errors"][:3]
    assert not scale["errors"], scale["errors"][:3]
    assert connections_open >= N_IDLE, (
        f"only {connections_open} connections registered with the loop"
    )
    # the C10k gate: p99 must not collapse under 100x the connections
    assert scale["p99_ms"] / 1e3 <= max(
        P99_RATIO_BUDGET * baseline["p99_ms"] / 1e3, P99_FLOOR_SECONDS
    ), f"p99 collapsed: {baseline['p99_ms']:.2f}ms -> {scale['p99_ms']:.2f}ms"
    # the memory gate: idle connections are near-flat (no thread stacks)
    assert per_connection_kib <= PER_CONNECTION_KIB_BUDGET, (
        f"{per_connection_kib:.1f} KiB per idle connection"
    )
