"""hqbench: the served-traffic benchmark behind ``BENCHMARK.json``.

    python3 benchmarks/hqbench/run.py                      # all four workloads
    python3 benchmarks/hqbench/run.py --workload adhoc_cold --seed 3 \\
        --seconds 12 --trace 0                             # the driver's form
    python3 benchmarks/hqbench/run.py --workload wide_fetch --trace 1
    python3 benchmarks/hqbench/run.py --selftest           # seeded-load checks
    python3 benchmarks/hqbench/run.py --agree              # two sets, compared

Each run starts a default-config ``HyperQServer`` in a child process,
checks its answers against the reference interpreter, drives it over
real QIPC sockets from this one process (2 closed-loop client threads
on 2 connections, plus the open-loop tick writer on a third) and prints
every metric by name and unit; the last stdout
line is the JSON result the driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import hqenv

hqenv.bootstrap()

import hqdata  # noqa: E402
import hqdecks  # noqa: E402
import hqlayers  # noqa: E402
import hqload  # noqa: E402

from repro.errors import ReproError  # noqa: E402
from repro.qlang.interp import Interpreter  # noqa: E402
from repro.testing.comparators import compare_values  # noqa: E402

#: ops of the socket window the traced tick_ingest replay re-runs
TICK_REPLAY_OPS = 6000
#: every timing is taken per chunk of the window and the run reports the
#: chunk decile on the fast side (90th percentile of rates, 10th of
#: latencies): host noise only ever slows a chunk down, so the fast
#: chunks say what the program costs and the slow ones what the
#: neighbours did
FAST_DECILE = 10
#: consecutive writes per chunk of the write-latency statistic
WRITE_GROUP = 10

ADMIN_REQUESTS = {
    name: hqdecks.request_frame(f"{name}[]")
    for name in ("metrics", "rcache", "wlm")
}


def load_spec() -> dict:
    with open(hqenv.REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- set-up, answer check, window ------------------------------------------


def set_up(workload: hqdecks.Workload):
    """Launch a server child, wait for its data, run the warm-up pass.

    Returns ``(server, clients, warm-up ops, phase seconds)``; the three
    phases sum to what ``setup_s`` reports.
    """
    started = time.perf_counter()
    server = hqload.ServerProcess()
    clients: list[hqload.Client] = []
    try:
        port = server.wait_ready()
        clients = [
            hqload.Client(port)
            for __ in range(hqload.connections_for(workload))
        ]
        ops = [hqload.timed_call(clients[0], c) for c in workload.warmup]
    except BaseException:
        tear_down(server, clients)
        raise
    done = time.perf_counter()
    phases = {
        "total": done - started,
        "load": server.ready_at - started,
        "warmup": done - server.ready_at,
    }
    return server, clients, ops, phases


def tear_down(server: hqload.ServerProcess, clients) -> None:
    for client in clients:
        client.close()
    server.stop()


def check_answers(workload, warm_ops, tables, decoder) -> dict[str, int]:
    """Every template's warm-up answer against the reference interpreter.

    Exits non-zero on the first mismatch: a benchmark that times wrong
    answers measures nothing.  Returns ``request text -> row count`` of
    the verified answers (the expected counts of the fixed panels).
    """
    interpreter = Interpreter()
    hqdata.load_interpreter(interpreter, tables)
    verified: dict[str, int] = {}
    for op in warm_ops:
        text = op.card.text
        if op.raw is None:
            raise SystemExit(f"hqbench: no reply to warm-up request {text!r}")
        got = decoder.decode(op.raw)
        if isinstance(got, ReproError):
            raise SystemExit(f"hqbench: server rejected {text!r}: {got}")
        want = interpreter.eval_text(text)
        comparison = compare_values(want, got)
        if not comparison:
            raise SystemExit(
                f"hqbench: wrong answer for {text!r} "
                f"({workload.name}/{op.card.template}): {comparison.reason}"
            )
        verified[text] = hqload.row_count(got)
    return verified


def count_failures(workload, verified, ops, decoder) -> int:
    """Ops that got no reply, an error reply or the wrong row count."""
    failed = 0
    seen_texts: set[str] = set()
    for op in ops:
        card = op.card
        value = decoder.decode(op.raw) if op.raw is not None else None
        if value is None or isinstance(value, ReproError):
            failed += 1
            continue
        expected = card.rows
        if expected is None:
            expected = verified.get(card.text)
        if expected is None:
            expected = workload.oracle_rows(card)
        if expected is not None and hqload.row_count(value) != expected:
            failed += 1
        elif workload.fresh and card.text in seen_texts:
            # a repeated literal would be served from the caches: the
            # op no longer measures what adhoc_cold exists to measure
            failed += 1
        seen_texts.add(card.text)
    return failed


def tick_invariants(reads, writes, final_count, initial_count, decoder) -> bool:
    """The reader never sees ``count trades`` shrink, and the final count
    is the initial one plus every acknowledged insert."""
    last = initial_count
    for op in reads:
        if op.card.template != "trades_count" or op.raw is None:
            continue
        value = decoder.decode(op.raw)
        current = getattr(value, "value", None)
        if not isinstance(current, int) or current < last:
            return False
        last = current
    acknowledged = sum(
        1 for op in writes
        if op.raw is not None
        and not isinstance(decoder.decode(op.raw), ReproError)
    )
    return final_count == initial_count + acknowledged


def admin_snapshot(client: hqload.Client) -> dict[str, float]:
    """``metrics[]`` + ``rcache[]`` + ``wlm[]`` flattened to one dict."""
    flat: dict[str, float] = {}
    metrics = client.query(ADMIN_REQUESTS["metrics"])
    for key, value in zip(metrics.keys.items, metrics.values.items):
        flat[key] = value
    rcache = client.query(ADMIN_REQUESTS["rcache"])
    for layer, stat, value in zip(*(c.items for c in rcache.data)):
        flat[f"{layer}.{stat}"] = float(value)
    wlm = client.query(ADMIN_REQUESTS["wlm"])
    columns = dict(zip(wlm.columns, (c.items for c in wlm.data)))
    flat["wlm.shed"] = float(sum(
        shed for kind, shed in zip(columns["kind"], columns["shed"])
        if kind == "class"
    ))
    return flat


def family(flat: dict[str, float], name: str) -> float:
    """Sum of one metric family's samples over all its label sets."""
    return sum(
        value for key, value in flat.items()
        if key == name or key.startswith(name + "{")
    )


# -- one run ---------------------------------------------------------------


@dataclass
class Round:
    """One server set-up and, unless it is set-up only, one timed window."""

    phases: dict
    window: hqload.WindowResult | None = None
    failed_reads: int = 0
    failed_writes: int = 0
    invariants_hold: bool = True
    peak_rss_mb: float = 0.0
    #: ``metrics[]``/``rcache[]``/``wlm[]`` around the window (traced runs)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)


def run_round(workload, cpu, window_seconds, tables, decoder, verified,
              trace) -> Round:
    """Set a server up on ``cpu``; drive a window of ``window_seconds``
    against it when that is not None; shut it down.

    The first round with a window also checks the warm-up answers and
    fills ``verified`` (request text -> row count) for the later ones.
    """
    hqload.pin_to_cpu(cpu)
    server, clients, warm_ops, phases = set_up(workload)
    phases["cpu"] = cpu
    result = Round(phases)
    try:
        if window_seconds is None:
            return result
        if not verified:
            verified.update(check_answers(workload, warm_ops, tables, decoder))
        tick = workload.name == "tick_ingest"
        # every server starts from the generated table plus the warm-up's insert
        initial_trades = len(tables["trades"]) + int(tick)
        if trace:
            result.before = admin_snapshot(clients[0])
        window = result.window = hqload.run_window(
            workload, clients, window_seconds
        )
        if trace:
            result.after = admin_snapshot(clients[0])
        if tick:
            final_trades = clients[0].query(
                hqdecks.request_frame("count select from trades")
            ).value
            result.invariants_hold = tick_invariants(
                window.reads, window.writes, final_trades, initial_trades,
                decoder,
            )
        result.peak_rss_mb = server.peak_rss_mb()
    finally:
        tear_down(server, clients)
    result.failed_reads = count_failures(
        workload, verified, window.reads, decoder
    )
    result.failed_writes = count_failures(
        workload, verified, window.writes, decoder
    )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One full run of one workload; returns the result document.

    An untraced run makes three set-ups.  The first two each carry half
    of the window, one on each of two CPUs: the two vCPUs of a shared
    host have their slow spells independently, so the fast chunks of the
    pooled halves come from whichever CPU was quiet.  The third is
    set-up only, for the median.  A traced run makes one set-up with a
    half window and spends the rest of its time in the replays.
    """
    spec = load_spec()
    tables = hqdata.generate_tables()
    workload = hqdecks.Workload(name, seed, hqdata.Facts(tables))
    decoder = hqload.ReplyDecoder()
    verified: dict[str, int] = {}
    cpus = hqload.candidate_cpus()
    plan = [(cpus[0], seconds / 2)]
    if not trace:
        plan += [(cpus[-1], seconds / 2), (cpus[0], None)]
    rounds = [
        run_round(workload, cpu, span, tables, decoder, verified, trace)
        for cpu, span in plan
    ]
    timed = [r for r in rounds if r.window is not None]

    reads = [op for r in timed for op in r.window.reads]
    writes = [op for r in timed for op in r.window.writes]
    chunks = [chunk for r in timed for chunk in r.window.chunks]
    unsent = sum(r.window.unsent for r in timed)
    failed_reads = sum(r.failed_reads for r in timed)
    failed = failed_reads + unsent + sum(r.failed_writes for r in timed)
    attempted = len(reads) + len(writes) + unsent
    correct = failed == 0 and all(r.invariants_hold for r in timed)
    good_share = (len(reads) - failed_reads) / len(reads) if reads else 0.0
    window_s = sum(r.window.window_s for r in timed)

    read_ms = [op.latency_ms for op in reads if op.raw is not None]
    write_ms = [op.latency_ms for op in writes if op.raw is not None]
    if not read_ms:
        raise SystemExit(f"hqbench: {name}: no request completed")
    chunk_rates = [len(ops) / span for span, ops in chunks]
    chunk_p50s = [
        statistics.median(op.latency_ms for op in ops) for __, ops in chunks
    ]
    write_p50s = [
        statistics.median(write_ms[start:start + WRITE_GROUP])
        for start in range(0, len(write_ms), WRITE_GROUP)
    ]
    values = {
        "setup_s": statistics.median(r.phases["total"] for r in rounds),
        "throughput_ops_s": (
            percentile(chunk_rates, 100 - FAST_DECILE) * good_share
        ),
        "latency_p50_ms": percentile(chunk_p50s, FAST_DECILE),
        "server_peak_rss_mb": max(r.peak_rss_mb for r in timed),
    }
    tail = hqdecks.TAIL_PERCENTILE[name]
    write_tail = hqdecks.WRITE_TAIL_PERCENTILE
    diagnostics = {
        "loadgen.window_ops_s": len(reads) * good_share / window_s,
        "loadgen.latency_p50_all_ms": percentile(read_ms, 50),
        "loadgen.latency_tail_ms": percentile(read_ms, tail),
        # only tick_ingest writes; the read-only workloads report 0
        "loadgen.write_latency_p50_ms": (
            percentile(write_p50s, FAST_DECILE) if write_ms else 0.0
        ),
        "loadgen.write_latency_tail_ms": (
            percentile(write_ms, write_tail) if write_ms else 0.0
        ),
    }
    notes = [
        f"{len(timed)} window(s) of {window_s:.2f} s in all, {len(reads)} "
        f"read ops in {len(reads) // workload.deck_size} whole passes "
        f"({len(chunks)} chunks), {len(writes)} write ops",
        f"plain ops/window {diagnostics['loadgen.window_ops_s']:.4f} ops/s; "
        f"p50 of all {len(read_ms)} reads "
        f"{diagnostics['loadgen.latency_p50_all_ms']:.4f} ms; "
        f"latency_tail_ms p{tail} of reads "
        f"{diagnostics['loadgen.latency_tail_ms']:.4f} ms",
        f"write_latency_p50_ms "
        f"{diagnostics['loadgen.write_latency_p50_ms']:.4f} ms and "
        f"write_latency_tail_ms p{write_tail} "
        f"{diagnostics['loadgen.write_latency_tail_ms']:.4f} ms "
        f"of {len(write_ms)} writes",
        "setup_s is the median of " + ", ".join(
            f"{r.phases['total']:.2f} s (cpu {r.phases['cpu']})"
            for r in rounds
        ),
    ]

    if trace:
        values = layer_values(
            workload, tables, rounds[0], decoder, failed / attempted, notes
        )
        values.update(diagnostics)
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    return {
        "workload": name,
        "notes": notes,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in listed
            },
        },
    }


def layer_values(workload, tables, traced: Round, decoder, failed_ratio,
                 notes) -> dict:
    """The per-layer metrics: socket-run counters + the traced replay."""
    name = workload.name
    window, before, after = traced.window, traced.before, traced.after
    reads, writes, setup = window.reads, window.writes, traced.phases
    if name == "tick_ingest":
        # replay what the server actually saw, in the order it saw it:
        # how many reads fall between two writes decides the hit ratio
        merged = sorted(reads + writes, key=lambda op: op.started)
        replay_cards = [op.card for op in merged[:TICK_REPLAY_OPS]]
    else:
        replay_cards = window.first_pass
    summary = hqlayers.run_replay(
        tables, workload.warmup, replay_cards, workload.fresh
    )
    notes.append("trace written to " + hqlayers.write_trace(name, summary))
    values = dict(summary["metrics"])

    def delta(metric: str) -> float:
        return family(after, metric) - family(before, metric)

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    socket_ops = len(reads) + (len(writes) if name == "tick_ingest" else 0)
    by_template: dict[str, list[float]] = {}
    for op in reads + (writes if name == "tick_ingest" else []):
        if op.raw is not None:
            by_template.setdefault(op.card.template, []).append(op.latency_ms)
    staged = summary["staged_ms_by_template"]
    residual = weight = 0.0
    for template, latencies in by_template.items():
        if template in staged:
            residual += len(latencies) * (
                percentile(latencies, 50) - staged[template]
            )
            weight += len(latencies)
    lag = window.sched_lag_ms
    handled = delta("server_query_seconds_count")
    queued = delta("wlm_queued_seconds_count")
    tcache_hits = delta("hyperq_translation_cache_hits_total")
    tcache_misses = delta("hyperq_translation_cache_misses_total")
    values.update({
        "server.residual_ms_per_op": ratio(residual, weight),
        "server.handler_ms_per_op": ratio(
            delta("server_query_seconds_sum") * 1e3, handled
        ),
        "server.errors_total": delta("server_errors_total"),
        "qipc.response_bytes_per_op": ratio(
            sum(len(op.raw) for op in reads if op.raw is not None),
            len(reads),
        ),
        "wlm.queued_ms_mean": ratio(
            delta("wlm_queued_seconds_sum") * 1e3, queued
        ),
        "wlm.shed_total": after["wlm.shed"] - before["wlm.shed"],
        "wlm.deadline_exceeded_total": delta("wlm_deadline_exceeded_total"),
        "wlm.retries_total": delta("wlm_retries_total"),
        "core.pipeline.tcache_hit_ratio": ratio(
            tcache_hits, tcache_hits + tcache_misses
        ),
        "core.metadata.mdi_hit_ratio": ratio(
            delta("mdi_cache_hits_total"), delta("mdi_cache_lookups_total")
        ),
        "core.metadata.mdi_misses_total": delta("mdi_cache_misses_total"),
        "cache.rcache_hit_ratio": ratio(
            delta("rcache.hits"), delta("rcache.lookups")
        ),
        "cache.rcache_bytes": after["rcache.bytes"],
        "cache.rcache_evictions_total": delta("rcache.evictions"),
        "cache.rcache_coalesced_total": delta("rcache.coalesced"),
        "cache.rcache_invalidations_total": delta("rcache.invalidations"),
        "loadgen.sched_lag_p50_ms": percentile(lag, 50) if lag else 0.0,
        "loadgen.sched_lag_max_ms": max(lag, default=0.0),
        "loadgen.client_decode_ms_per_op": ratio(
            decoder.seconds * 1e3, decoder.decoded
        ),
        "loadgen.setup_load_s": setup["load"],
        "loadgen.setup_warmup_s": setup["warmup"],
        "loadgen.failed_ops_ratio": failed_ratio,
        "loadgen.socket_ops": float(socket_ops),
    })
    return values


# -- reporting -------------------------------------------------------------


def print_report(document: dict) -> None:
    result = document["result"]
    print(f"== hqbench {document['workload']}")
    for note in document["notes"]:
        print(f"   {note}")
    print(
        f"   correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} failed_ops_ratio="
        f"{result['failed'] / result['attempted']:.4f}"
    )
    for name, metric in result["metrics"].items():
        print(f"   {name:42s} {metric['value']:14.4f} {metric['unit']}")


def selftest() -> int:
    """The seeded-load contract, checked without a server."""

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise SystemExit(f"hqbench selftest: {message}")

    facts = hqdata.Facts(hqdata.generate_tables())
    for name in hqdecks.WORKLOADS:
        first = hqdecks.request_sequence(name, 11, facts)
        again = hqdecks.request_sequence(name, 11, facts)
        other = hqdecks.request_sequence(name, 12, facts)
        require(first == again, f"{name}: same seed, different requests")
        require(
            sorted(t for t, __, __ in first)
            == sorted(t for t, __, __ in other),
            f"{name}: the template mix depends on the seed",
        )
        require(
            [x for __, x, __ in first] != [x for __, x, __ in other],
            f"{name}: another seed gave the same literals",
        )
        print(f"selftest {name}: {len(first)} requests replay byte-identically")
    texts = [
        text for __, text, __ in
        hqdecks.request_sequence("adhoc_cold", 11, facts, passes=50)
    ]
    require(len(texts) == len(set(texts)), "adhoc_cold repeated a literal")
    print(f"selftest adhoc_cold: {len(texts)} requests, no literal repeats")
    return 0


def agree(seed: int, seconds: float) -> int:
    """Two full sets of the same commit, compared metric by metric."""
    spec = load_spec()
    sets = [
        {
            name: run_workload(name, seed + number, seconds, False)
            for name in hqdecks.WORKLOADS
        }
        for number in (0, 1)
    ]
    demote = []
    for metric in spec["end_to_end"]:
        for name in hqdecks.WORKLOADS:
            first, second = (
                s[name]["result"]["metrics"][metric["name"]]["value"]
                for s in sets
            )
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if abs(worse) > metric["bound"]:
                flag = "  <-- exceeds the bound"
                demote.append(f"{metric['name']} on {name}")
            print(
                f"{metric['name']:24s} {name:17s} {first:12.4f} "
                f"{second:12.4f} {metric['unit']:6s} "
                f"diff {worse:+7.2%} bound {metric['bound']:.0%}{flag}"
            )
    failed = sum(s[n]["result"]["failed"] for s in sets for n in s)
    if demote:
        print("candidates to demote: " + "; ".join(demote))
    if failed:
        print(f"{failed} failed ops across the two sets")
    return 1 if demote or failed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=hqdecks.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--agree", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    seconds = args.seconds or float(load_spec()["run_seconds"])
    if args.agree:
        return agree(args.seed, seconds)
    names = [args.workload] if args.workload else list(hqdecks.WORKLOADS)
    for name in names:
        document = run_workload(name, args.seed, seconds, bool(args.trace))
        print_report(document)
        print(json.dumps(document["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
