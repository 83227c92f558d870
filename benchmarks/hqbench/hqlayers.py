"""The traced run: one request sequence replayed in-process, per layer.

End-to-end numbers come from untraced socket runs.  This module gives
the per-layer numbers: it rebuilds the server's request path in this
process out of each layer's *public* entry points - ``unframe`` /
``decode_value`` / translation-cache lookup / ``parse`` /
``classify_program`` / ``pipeline.translate`` / ``ProtocolTranslator``
over ``QueryExecutor.execute`` over a span-recording backend decorator /
``encode_value`` / ``frame`` - and records a span around every call.
Spans live in memory and are written once, at the end.  Nothing under
``src/`` is edited or monkey-patched.

Before the traced pass a *validity pass* runs every op three ways, back
to back so that the host's mood is the same for all three:

* *direct* - plain ``session.execute`` between decode and encode;
* *staged* - the rebuilt path with spans off;
* *traced* - the rebuilt path with spans on (spans thrown away).

``loadgen.staged_vs_direct_ratio`` (median of staged / direct per op)
shows the rebuilt path costs what the real one does,
``loadgen.trace_overhead_ratio`` (traced / staged - 1) what recording
costs.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import hqdata
import hqenv
from hqdecks import Card

from repro.core.backends import ExecutionBackend
from repro.core.crosscompiler import ProtocolTranslator
from repro.core.pipeline import StageTimings
from repro.core.platform import DirectGateway, HyperQ
from repro.qipc.decode import decode_value
from repro.qipc.encode import encode_value
from repro.qipc.messages import MessageType, QipcMessage, frame, unframe
from repro.qlang.parser import parse
from repro.qlang.values import QKeyedTable, QTable
from repro.sqlengine.engine import Engine
from repro.wlm import classify_program, request_scope

class Trace:
    """What one replay pass records, all in memory: spans as ``[name,
    start, end, parent index, request id]`` plus the counters taken at
    the same boundaries."""

    def __init__(self):
        #: on only while a traced request runs (not for warm-up passes)
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = -1
        #: per request: (card, translation or None, reply bytes,
        #: uncompressed payload bytes, cells)
        self.requests: list[tuple] = []
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.sql_bytes = 0
        self.statements = 0
        self.rows_out = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.request_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        own = [end - start for __, start, end, __, __ in self.spans]
        for __, start, end, parent, __ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class TracedBackend(ExecutionBackend):
    """Benchmark-owned decorator: a span and counters per backend call."""

    name = DirectGateway.name

    def __init__(self, inner: ExecutionBackend, trace: Trace):
        self.inner = inner
        self.trace = trace

    def run_sql(self, sql: str):
        trace = self.trace
        with trace.span("sqlengine.execute"):
            result = self.inner.run_sql(sql)
        if trace.enabled:
            trace.statements += 1
            trace.rows_out += len(result.rows)
        return result

    def catalog_version(self) -> int:
        return self.inner.catalog_version()


def _cell_count(value) -> int:
    """Cells of a pivoted Q value (rows x columns; 1 for an atom)."""
    if isinstance(value, QKeyedTable):
        value = value.unkey()
    if isinstance(value, QTable):
        return len(value) * len(value.columns)
    try:
        return len(value)
    except TypeError:
        return 1


class Replay:
    """An in-process Hyper-Q stack plus the three ways to run a card."""

    def __init__(self, tables: dict):
        self.trace = Trace()
        engine = Engine()
        self.backend = TracedBackend(DirectGateway(engine), self.trace)
        # the platform facade wires WLM, MDI and both caches exactly as
        # HyperQServer does; the traced backend goes in through the
        # public ``backend=`` argument
        self.platform = HyperQ(engine=engine, backend=self.backend)
        hqdata.load_engine(engine, self.platform.mdi, tables)
        self.session = self.platform.create_session()
        self.translator = ProtocolTranslator(self._execute)

    def close(self) -> None:
        self.session.close()

    def new_trace(self) -> None:
        """Start recording from nothing (drops the validity pass's spans)."""
        self.trace = self.backend.trace = Trace()

    def drop_caches(self) -> None:
        self.platform.result_cache.clear()
        self.platform.translation_cache.clear()

    def reset_caches(self, warmup: list[Card]) -> None:
        """Back to the state the timed window starts from: both caches
        dropped, then the warm-up pass re-run (untraced)."""
        self.drop_caches()
        for card in warmup:
            self.direct(card)

    # -- the three replays -------------------------------------------------

    def direct(self, card: Card) -> bytes:
        """What the server's worker does, through the real session."""
        text = "".join(decode_value(unframe(card.request).payload).items)
        value = self.session.execute(text)
        return frame(QipcMessage(MessageType.RESPONSE, encode_value(value)))

    def staged(self, card: Card, traced: bool) -> bytes:
        """The same request through the rebuilt, span-wrapped path."""
        recorder = self.trace
        recorder.enabled = traced
        recorder.request_id += traced
        translation = None
        with recorder.span("request"):
            with recorder.span("qipc.unframe"):
                message = unframe(card.request)
            with recorder.span("qipc.decode_value"):
                text = "".join(decode_value(message.payload).items)
            if card.kind == "write":
                with recorder.span("core.session"):
                    value = self.session.execute(text)
            else:
                translation, value = self._staged_read(text)
            with recorder.span("qipc.encode_value"):
                payload = encode_value(value)
            with recorder.span("qipc.frame"):
                reply = frame(QipcMessage(MessageType.RESPONSE, payload))
        recorder.enabled = False
        if traced:
            recorder.requests.append(
                (card, translation, len(reply), len(payload) + 8,
                 _cell_count(value))
            )
        return reply

    def _staged_read(self, text: str):
        """``HyperQSession._run`` for one read statement, layer by layer."""
        recorder = self.trace
        session = self.session
        scope = session.session_scope
        cache = session.translation_cache
        with recorder.span("core.pipeline.tcache"):
            key = cache.key_for(text, scope, session.mdi, session.xformer)
            translation = cache.get(key)
        if translation is None:
            with recorder.span("qlang.parse"):
                program = parse(text)
            with recorder.span("wlm.classify"):
                query_class = classify_program(program.statements).value
        else:
            program = None
            query_class = translation.query_class
        wlm = session.wlm
        with request_scope(wlm.deadline_for_request(), query_class):
            with wlm.admit(query_class):
                if translation is None:
                    with recorder.span("core.pipeline.translate"):
                        unit = session.pipeline.translate(
                            program.statements[0], scope, StageTimings()
                        )
                        translation = unit.to_result()
                    cache.put(key, translation)
                    if recorder.enabled:
                        for stage in unit.stages:
                            recorder.stage_seconds[stage.name] += stage.seconds
                        recorder.sql_bytes += len(translation.sql)
                with recorder.span("core.crosscompiler"):
                    value = self.translator.respond(translation)
        return translation, value

    def _execute(self, translation):
        with self.trace.span("cache.executor"):
            return self.session.executor.execute(translation)


#: run order of the three ways, rotated per op so none is always first
_MODES = ("direct", "staged", "traced")


def _validity_pass(replay: Replay, ops: list[Card], fresh: bool) -> dict:
    """Per-op seconds of each way to run a read, the three back to back.

    Cache-resident workloads hit every time, so the three executions do
    the same work as they stand; ``adhoc_cold`` drops both caches before
    each so that all three miss.  Inserts are left out: running one three
    times would not leave the three readers the same table.
    """
    seconds: dict[str, list[float]] = {mode: [] for mode in _MODES}
    for number, card in enumerate(c for c in ops if c.kind == "read"):
        for shift in range(len(_MODES)):
            mode = _MODES[(number + shift) % len(_MODES)]
            if fresh:
                replay.drop_caches()
            started = time.perf_counter()
            if mode == "direct":
                replay.direct(card)
            else:
                replay.staged(card, traced=mode == "traced")
            seconds[mode].append(time.perf_counter() - started)
    return seconds


def run_replay(tables: dict, warmup: list[Card], ops: list[Card],
               fresh: bool) -> dict:
    """Validity pass, then the traced pass over ``ops``; returns the
    per-layer metric values (without units) and writes nothing - see
    :func:`write_trace`.  ``fresh`` says every op must miss both caches."""
    replay = Replay(tables)
    try:
        replay.reset_caches(warmup)
        seconds = _validity_pass(replay, ops, fresh)
        replay.new_trace()
        replay.reset_caches(warmup)
        for card in ops:
            replay.staged(card, traced=True)
    finally:
        replay.close()
    return _summarise(replay.trace, seconds, len(ops))


def _median_ratio(numerators: list[float], denominators: list[float]) -> float:
    return statistics.median(
        n / d for n, d in zip(numerators, denominators) if d > 0
    )


def _summarise(recorder: Trace, seconds: dict, op_count: int) -> dict:
    own = recorder.self_times()
    self_by_name: dict[str, float] = defaultdict(float)
    span_by_name: dict[str, float] = defaultdict(float)
    self_by_request: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, __, request_id), self_time in zip(
        recorder.spans, own
    ):
        self_by_name[name] += self_time
        span_by_name[name] += end - start
        self_by_request[request_id][name] += self_time

    per_template: dict[str, list[float]] = defaultdict(list)
    reads_by_table = {"quotes": [0, 0], "trades": [0, 0]}
    reply_bytes = payload_bytes = cells = 0
    write_self = 0.0
    writes = 0
    for request_id, (card, translation, n_reply, n_payload, n_cells) in (
        enumerate(recorder.requests)
    ):
        layers = self_by_request[request_id]
        per_template[card.template].append(sum(layers.values()))
        reply_bytes += n_reply
        payload_bytes += n_payload
        cells += n_cells
        if card.kind == "write":
            writes += 1
            write_self += layers["core.session"]
        elif translation is not None and len(translation.tables) == 1:
            counts = reads_by_table.get(translation.tables[0])
            if counts is not None:
                counts[0] += 1
                counts[1] += "sqlengine.execute" not in layers

    def per_op(name: str, scale: float) -> float:
        return self_by_name[name] * scale / op_count

    def hit_ratio(table: str) -> float:
        reads, hits = reads_by_table[table]
        return hits / reads if reads else 0.0

    stage = recorder.stage_seconds
    request_total = span_by_name["request"]
    metrics = {
        "qipc.request_decode_us_per_op": (
            per_op("qipc.unframe", 1e6) + per_op("qipc.decode_value", 1e6)
        ),
        "qipc.response_encode_ms_per_op": per_op("qipc.encode_value", 1e3),
        "qipc.frame_ms_per_op": per_op("qipc.frame", 1e3),
        "qipc.compression_ratio": (
            reply_bytes / payload_bytes if payload_bytes else 0.0
        ),
        "wlm.classify_us_per_op": per_op("wlm.classify", 1e6),
        "qlang.parse_us_per_op": per_op("qlang.parse", 1e6),
        "core.pipeline.translate_ms_per_op": (
            span_by_name["core.pipeline.translate"] * 1e3 / op_count
        ),
        "core.pipeline.bind_ms_per_op": stage["bind"] * 1e3 / op_count,
        "core.pipeline.xform_ms_per_op": stage["xform"] * 1e3 / op_count,
        "core.pipeline.serialize_ms_per_op": (
            stage["serialize"] * 1e3 / op_count
        ),
        "core.pipeline.sql_bytes_per_op": recorder.sql_bytes / op_count,
        "cache.rcache_self_us_per_op": per_op("cache.executor", 1e6),
        "cache.rcache_hit_ratio_quotes": hit_ratio("quotes"),
        "cache.rcache_hit_ratio_trades": hit_ratio("trades"),
        "sqlengine.execute_ms_per_op": per_op("sqlengine.execute", 1e3),
        "sqlengine.statements_per_op": recorder.statements / op_count,
        "sqlengine.rows_out_per_op": recorder.rows_out / op_count,
        "sqlengine.busy_share": (
            span_by_name["sqlengine.execute"] / request_total
            if request_total else 0.0
        ),
        "core.session.write_self_ms_per_op": (
            write_self * 1e3 / writes if writes else 0.0
        ),
        "core.crosscompiler.pivot_ms_per_op": per_op(
            "core.crosscompiler", 1e3
        ),
        "core.crosscompiler.cells_per_op": cells / op_count,
        "loadgen.staged_vs_direct_ratio": _median_ratio(
            seconds["staged"], seconds["direct"]
        ),
        "loadgen.trace_overhead_ratio": _median_ratio(
            seconds["traced"], seconds["staged"]
        ) - 1.0,
    }
    return {
        "metrics": metrics,
        # medians, to set against the socket run's per-template p50
        "staged_ms_by_template": {
            name: statistics.median(values) * 1e3
            for name, values in per_template.items()
        },
        "self_ms_by_layer": {
            name: value * 1e3 for name, value in sorted(self_by_name.items())
        },
        "spans": recorder.spans,
    }


def write_trace(workload: str, summary: dict) -> str:
    """Write the spans and the self-time report; returns the path."""
    hqenv.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = hqenv.RESULTS_DIR / f"trace-{workload}.json"
    origin = summary["spans"][0][1] if summary["spans"] else 0.0
    document = {
        "workload": workload,
        "span_fields": ["name", "start_us", "end_us", "parent", "request"],
        "spans": [
            [name, round((start - origin) * 1e6, 1),
             round((end - origin) * 1e6, 1), parent, request]
            for name, start, end, parent, request in summary["spans"]
        ],
        "self_ms_by_layer": summary["self_ms_by_layer"],
        "staged_ms_by_template": summary["staged_ms_by_template"],
    }
    path.write_text(json.dumps(document))
    return str(path)
