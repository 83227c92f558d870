"""Sharded scatter-gather execution backend.

:class:`ShardedBackend` implements :class:`~repro.core.backends.ExecutionBackend`
over N child backends, each holding one partition of every partitioned
table (and a full copy of every replicated table).  The distributed plan
is decided upstream by the pipeline's
:class:`~repro.core.xformer.distributed.DistributePass` and arrives as an
annotation on the SQL text; this module executes it:

* ``single``  — route the statement to one shard;
* ``scatter`` — fan the statement out on a bounded worker pool (the PR-6
  ``WorkerPool`` discipline), then merge the per-shard *columnar* results
  by the plan's sort keys without ever pivoting to rows;
* ``partial``/``gather`` — fan subplans out, load the gathered rows into
  a private coordinator engine, execute the merge SQL there.

This module owns no recovery policy.  The deployment's one
:class:`~repro.wlm.WorkloadManager` wraps each shard's backend (breaker
``shard<i>``, the deployment's retry policy and fault injector) through
:meth:`ShardedBackend.wrap_shards`; with workload management disabled the
shards run unwrapped.  Every worker runs under the caller's request
context, so one slow shard surfaces as a named ``DeadlineExceededError``
instead of a silently blown budget and shard retries count on the
request.

Statements without a plan annotation take conservative routes: catalog
reads and reads of replicated tables go to shard 0, writes on replicated
state broadcast, and ``CREATE TABLE ... AS <planned SELECT>`` runs its
SELECT through the plan and replicates the result.  Any other statement
touching a partitioned table is refused with SQLSTATE 0A000: every such
read the pipeline issues carries a plan.

Layering (lint rule HQ007): partition-key routing lives here and in the
distributed-rewrite pass only.
"""

from __future__ import annotations

import functools
import re
import threading
import time

from repro.analysis.concurrency.locks import make_lock
from repro.core.backends import ExecutionBackend
from repro.core.metadata import PartitionMap
from repro.core.xformer.distributed import extract_plan
from repro.errors import BackendSqlError
from repro.obs import get_logger, metrics, tracing
from repro.server.reactor import WorkerPool
from repro.sqlengine.catalog import Column
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType
from repro.wlm.deadline import current_deadline

_log = get_logger("core.sharded")

SHARD_FANOUT = metrics.counter(
    "shard_fanout_total", "Subplans fanned out to shards"
)
SHARD_QUERIES = metrics.counter(
    "shard_queries_total", "Statements executed per shard"
)
SHARD_ERRORS = metrics.counter(
    "shard_errors_total", "Statement failures per shard"
)
SHARD_LATENCY = metrics.histogram(
    "shard_latency_seconds", "Per-shard statement latency"
)
SHARD_MERGE_ROWS = metrics.counter(
    "shard_merge_rows_total", "Rows flowing through coordinator merges"
)

_WRITE_VERBS = ("create", "drop", "alter", "insert", "update", "delete",
                "truncate")


def is_write(sql: str) -> bool:
    """Whether ``sql`` is DDL/DML: broadcast by the coordinator, and
    journaled for replay by a process shard."""
    return sql.lstrip().lower().startswith(_WRITE_VERBS)


def is_catalog_probe(sql: str) -> bool:
    """Whether ``sql`` reads the system catalog (the MDI's probes)."""
    lowered = sql.lower()
    return any(
        name in lowered
        for name in ("information_schema", "pg_tables", "pg_catalog")
    )


_CTAS_RE = re.compile(
    r'^\s*create\s+(?:temp(?:orary)?\s+)?table\s+'
    r'(?:"(?P<quoted>(?:[^"]|"")+)"|(?P<plain>\w+))\s+as\s+(?P<select>.+)$',
    re.IGNORECASE | re.DOTALL,
)


# ---------------------------------------------------------------------------
# Futures for the scatter boundary
# ---------------------------------------------------------------------------


class _Future:
    """Result slot filled by a scatter worker."""

    __slots__ = ("_done", "value", "error")

    def __init__(self):
        self._done = threading.Event()
        self.value = None
        self.error: Exception | None = None

    def set(self, value) -> None:
        self.value = value
        self._done.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout: float | None) -> bool:
        return self._done.wait(timeout)


class ShardHandle:
    """One shard: its backend and health counters."""

    def __init__(self, index: int, backend: ExecutionBackend):
        self.index = index
        self.backend = backend
        self._stats_lock = make_lock("shard.stats")
        self.queries = 0
        self.errors = 0
        self.latency_total = 0.0

    def record(self, seconds: float, failed: bool) -> None:
        with self._stats_lock:
            self.queries += 1
            self.latency_total += seconds
            if failed:
                self.errors += 1

    def snapshot(self) -> dict:
        with self._stats_lock:
            queries, errors = self.queries, self.errors
            latency = self.latency_total
        info = self.backend.process_info()
        # an unwrapped shard (workload management disabled) has no breaker
        breaker = getattr(self.backend, "breaker", None)
        return {
            "shard": self.index,
            "state": "closed" if breaker is None else breaker.snapshot()["state"],
            "queries": queries,
            "errors": errors,
            "mean_ms": (latency / queries * 1000.0) if queries else 0.0,
            "mode": info["mode"],
            "pid": info["pid"],
            "restarts": info["restarts"],
            "rss_kb": info["rss_kb"],
        }

    def close(self) -> None:
        try:
            self.backend.close()
        except Exception as exc:
            _log.warning("shard_close_failed", shard=self.index, error=str(exc))


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ShardedBackend(ExecutionBackend):
    """Scatter-gather execution across N partitioned child backends."""

    #: duck-typed marker: WorkloadManager.wrap_backend wraps each shard
    #: (via :meth:`wrap_shards`), never the sharded backend as a whole
    is_sharded = True

    def __init__(
        self,
        children: list[ExecutionBackend],
        partition_map: PartitionMap,
        name: str = "sharded",
    ):
        if len(children) != partition_map.shard_count:
            raise ValueError(
                f"partition map expects {partition_map.shard_count} shards, "
                f"got {len(children)} children"
            )
        self.name = name
        self.partition_map = partition_map
        self._shards = [ShardHandle(i, child) for i, child in enumerate(children)]
        self._pool = WorkerPool(len(children), label=name)
        self._closed = False

    # -- ExecutionBackend ------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def run_sql(self, sql: str):
        plan, body = extract_plan(sql)
        if plan is not None:
            return self._run_plan(plan, body)
        return self._run_unplanned(body)

    def catalog_version(self) -> int:
        """Sum of child versions: monotone, and DDL on *any* shard moves
        it, so cached translations invalidate correctly."""
        total = 0
        for shard in self._shards:
            version = shard.backend.catalog_version()
            if version > 0:
                total += version
        return total

    def ping(self) -> bool:
        return any(shard.backend.ping() for shard in self._shards)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown()
        for shard in self._shards:
            shard.close()

    def wrap_shards(self, wrap) -> None:
        """Replace each shard's backend with ``wrap(backend, "shard<i>")``
        (the deployment's WorkloadManager installs its recovery policies
        here; ``wrap`` returns an already-wrapped backend unchanged)."""
        for shard in self._shards:
            shard.backend = wrap(shard.backend, f"shard{shard.index}")

    # -- health / admin --------------------------------------------------------

    def shard_snapshot(self) -> list[dict]:
        """Per-shard health rows (the ``shards[]`` admin command)."""
        return [shard.snapshot() for shard in self._shards]

    # -- data plane (loaders) --------------------------------------------------

    def route_rows(
        self, table: str, columns: list[Column], column_data: list[list]
    ) -> list[list[list]]:
        """Split a table's rows into per-shard column data per the
        partition map.

        Replicated tables return the full column data for every shard.
        The one place outside the planner that consults partition keys —
        and it lives here so loaders never inspect them (lint rule HQ007).
        """
        spec = self.partition_map.lookup(table)
        if spec is None:
            return [column_data for __ in self._shards]
        key_index = next(
            i for i, c in enumerate(columns) if c.name == spec.key
        )
        positions: list[list[int]] = [[] for __ in self._shards]
        count = self.shard_count
        for i, key in enumerate(column_data[key_index]):
            positions[spec.shard_for(key, count)].append(i)
        return [
            [list(map(values.__getitem__, bucket)) for values in column_data]
            for bucket in positions
        ]

    def load_columns(
        self, name: str, columns: list[Column], column_data: list[list],
        temporary: bool = False,
    ) -> None:
        """Load one table across the topology (partitioned or replicated)."""
        buckets = self.route_rows(name, columns, column_data)
        for shard, bucket in zip(self._shards, buckets):
            shard.backend.load_columns(name, columns, bucket, temporary)

    # -- plan execution --------------------------------------------------------

    def _run_plan(self, plan: dict, body: str):
        mode = plan["mode"]
        if mode == "single":
            return self._execute_on_shard(self._shards[plan["shard"]], body)
        targets = plan["targets"]
        with tracing.span("shard.scatter") as span:
            span.attrs["shard.fanout"] = len(targets)
            span.attrs["shard.mode"] = mode
            if mode == "scatter":
                results = self._fanout(targets, plan["sql"])
                return self._merge_scatter(results, plan)
            if mode in ("partial", "gather"):
                return self._run_merge_plan(plan, targets)
        raise BackendSqlError(f"unknown shard plan mode {mode!r}")

    def _execute_on_shard(self, shard: ShardHandle, sql: str):
        """One statement on one shard."""
        return self._collect({shard.index: self._submit(shard, sql)})[shard.index]

    def _fanout(self, targets: list[int], sql: str) -> list:
        """Run ``sql`` on every target shard; results in target order."""
        SHARD_FANOUT.inc(len(targets))
        futures = {i: self._submit(self._shards[i], sql) for i in targets}
        outcome = self._collect(futures)
        return [outcome[i] for i in targets]

    def _submit(self, shard: ShardHandle, sql: str) -> _Future:
        future = _Future()
        # the caller's request object itself: its deadline bounds the
        # shard's work and the shard's retries count on the request
        context = tracing.current_context()
        label = str(shard.index)

        def job() -> None:
            start = time.monotonic()
            try:
                with tracing.activate(context):
                    result = shard.backend.run_sql(sql)
            except Exception as exc:
                shard.record(time.monotonic() - start, failed=True)
                SHARD_ERRORS.inc(shard=label)
                future.fail(exc)
                return
            elapsed = time.monotonic() - start
            shard.record(elapsed, failed=False)
            SHARD_QUERIES.inc(shard=label)
            SHARD_LATENCY.observe(elapsed, shard=label)
            future.set(result)

        self._pool.submit(job)
        return future

    @staticmethod
    def _collect(futures: dict) -> dict:
        """Wait for every shard's result, capped by the request deadline;
        expiry names the shard still outstanding."""
        deadline = current_deadline()
        results: dict[int, object] = {}
        for index, future in futures.items():
            while not future.wait(
                None if deadline is None else max(deadline.remaining(), 0.0)
            ):
                deadline.check(f"shard{index}.gather")
            if future.error is not None:
                raise future.error
            results[index] = future.value
        return results

    # -- merging ---------------------------------------------------------------

    @staticmethod
    def _plan_columns(spec: list) -> list[Column]:
        return [Column(name, SqlType(type_text)) for name, type_text, *__ in spec]

    def _merge_scatter(self, results: list, plan: dict) -> ResultSet:
        """Ordered columnar concat of per-shard results (no row pivot)."""
        columns = self._plan_columns(plan["columns"])
        names = [c.name for c in columns]
        shard_data = [r.column_data for r in results]
        counts = [len(d[0]) if d else 0 for d in shard_data]
        total = sum(counts)
        SHARD_MERGE_ROWS.inc(total)
        if not columns:
            return ResultSet.from_columns(columns, [], command="SELECT")
        merge_keys = plan.get("merge_keys") or []
        key_refs = [(names.index(k), desc) for k, desc in merge_keys]
        refs = [
            (s, r) for s, count in enumerate(counts) for r in range(count)
        ]

        def compare(a, b):
            for column_index, descending in key_refs:
                va = shard_data[a[0]][column_index][a[1]]
                vb = shard_data[b[0]][column_index][b[1]]
                if va is None or vb is None:
                    if va is not None:  # NULLs sort first (Q: null smallest)
                        order = 1
                    elif vb is not None:
                        order = -1
                    else:
                        continue
                elif va < vb:
                    order = -1
                elif vb < va:
                    order = 1
                else:
                    continue
                return -order if descending else order
            return 0

        refs.sort(key=functools.cmp_to_key(compare))
        merged = [
            [shard_data[s][ci][r] for s, r in refs]
            for ci in range(len(columns))
        ]
        return ResultSet.from_columns(columns, merged, command="SELECT")

    def _run_merge_plan(self, plan: dict, targets: list[int]) -> ResultSet:
        """Gather subplan results into a per-query coordinator engine and
        execute the merge SQL over them."""
        coordinator = Engine()
        gathered_rows = 0
        for task in plan["tasks"]:
            task_targets = task.get("targets", targets)
            results = self._fanout(task_targets, task["sql"])
            columns = self._plan_columns(task["columns"])
            names = [c.name for c in columns]
            data: list[list] = [[] for __ in columns]
            for result in results:
                for ci, values in enumerate(result.column_data):
                    data[ci].extend(values)
            order_col = task.get("order_col")
            if order_col is not None and order_col in names and data:
                # restore global base order (ordcol is globally unique)
                order_values = data[names.index(order_col)]
                permutation = sorted(
                    range(len(order_values)), key=order_values.__getitem__
                )
                data = [
                    [values[i] for i in permutation] for values in data
                ]
            gathered_rows += len(data[0]) if data else 0
            coordinator.create_table_from_columns(task["table"], columns, data)
        SHARD_MERGE_ROWS.inc(gathered_rows)
        return coordinator.execute(plan["merge_sql"])

    # -- unplanned statements --------------------------------------------------

    def _run_unplanned(self, body: str):
        if is_catalog_probe(body):
            # schemas are identical on every shard
            return self._execute_on_shard(self._shards[0], body)
        referenced = self._referenced_partitioned(body)
        if not referenced:
            if is_write(body):
                return self._broadcast(body)
            return self._execute_on_shard(self._shards[0], body)
        ctas = _CTAS_RE.match(body)
        if ctas is not None:
            return self._broadcast_ctas(ctas)
        raise BackendSqlError(
            "statements touching partitioned tables "
            f"({', '.join(sorted(referenced))}) need a distribution plan; "
            "writes go through the sharded load path",
            code="0A000",
        )

    def _referenced_partitioned(self, body: str) -> set[str]:
        found = set()
        for table in self.partition_map.tables:
            if re.search(rf'\b{re.escape(table)}\b', body):
                found.add(table)
        return found

    def _broadcast(self, body: str):
        """A write on replicated state runs identically on every shard."""
        result = None
        for shard in self._shards:
            result = self._execute_on_shard(shard, body)
        return result

    def _broadcast_ctas(self, match: re.Match):
        """CREATE TABLE ... AS over partitioned inputs: run the (planned)
        SELECT once across the topology, then replicate the result
        everywhere (the materialized table behaves as a broadcast
        dimension)."""
        name = match.group("quoted") or match.group("plain")
        name = name.replace('""', '"')
        selected = self.run_sql(match.group("select"))
        self.load_columns(name, list(selected.columns), selected.column_data)
        return ResultSet([], [], command="CREATE TABLE")
