"""The interactive temp-data tier (DiNoDB-style, docs/CACHING.md).

Q variable assignments used to eagerly run ``CREATE TEMPORARY TABLE
hq_temp_N AS <select>`` — a full backend write — before the variable was
ever read.  Following DiNoDB's positional-map idea for ad-hoc queries on
temporary data, the tier instead:

1. runs the *defining SELECT* at assignment time (so the snapshot has
   exactly the eager CTAS's semantics: later DML on the source tables
   cannot leak into the variable) and keeps the columnar snapshot in
   Hyper-Q memory — the backend table write is deferred;
2. builds a **positional map** on first touch: per-column min/max zone
   metadata over fixed-size row blocks;
3. serves the interactive access patterns — full scans, point lookups,
   filtered range scans, projections, ``count`` — straight from the
   snapshot, pruning blocks whose zones cannot match;
4. falls back to full materialization (loading the snapshot into the
   backend, never re-running the SELECT) the first time an access
   pattern needs real SQL — joins, grouping, anything that is not a
   :class:`~repro.core.pipeline.ScanShape` — after which the handle is
   a passthrough.

The tier never reads SQL: the pipeline states what a read asks for as
a ``ScanShape`` taken from the transformed XTRA tree, and a read with
no shape triggers materialization.  Unrecognized never means wrong —
only slower.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.analysis.concurrency.locks import make_lock
from repro.config import TempTierConfig
from repro.core.pipeline import ScanShape
from repro.obs import metrics
from repro.sqlengine.catalog import Column
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType

TEMPTIER_HANDLES = metrics.gauge(
    "temptier_handles", "Lazy temp-data handles currently registered"
)
TEMPTIER_SERVED = metrics.counter(
    "temptier_served_total",
    "Queries answered from positional maps, labelled kind=scan|lookup|count",
)
TEMPTIER_FALLBACKS = metrics.counter(
    "temptier_fallbacks_total",
    "Handles materialized to the backend for an unmatched access pattern",
)
TEMPTIER_MAP_BUILDS = metrics.counter(
    "temptier_map_builds_total", "Positional maps built (first touch)"
)
TEMPTIER_BLOCKS_PRUNED = metrics.counter(
    "temptier_blocks_pruned_total",
    "Zone-metadata blocks skipped during tier scans",
)


# ---------------------------------------------------------------------------
# Positional map
# ---------------------------------------------------------------------------


@dataclass
class _Zone:
    """Min/max over one block of one column (None values excluded)."""

    low: object = None
    high: object = None
    has_null: bool = False


class PositionalMap:
    """Per-column block offsets + min/max zone metadata.

    Built once, on a handle's first touch, in a single pass over the
    snapshot.  ``candidate_blocks`` answers which blocks may contain
    rows satisfying ``column <op> literal``; everything outside is
    pruned without looking at a row.
    """

    def __init__(self, column_data: list[list], block_rows: int):
        self.block_rows = max(1, int(block_rows))
        rows = len(column_data[0]) if column_data else 0
        self.block_count = (rows + self.block_rows - 1) // self.block_rows
        self.zones: list[list[_Zone]] = []
        for data in column_data:
            zones = []
            for start in range(0, rows, self.block_rows):
                zone = _Zone()
                for value in data[start:start + self.block_rows]:
                    if value is None:
                        zone.has_null = True
                        continue
                    if zone.low is None or value < zone.low:
                        zone.low = value
                    if zone.high is None or value > zone.high:
                        zone.high = value
                zones.append(zone)
            self.zones.append(zones)

    def candidate_blocks(self, column: int, op: str, literal) -> set[int]:
        """Blocks whose zone could hold a matching row."""
        if op in ("<>", "IS DISTINCT FROM"):  # zones cannot prune
            return set(range(self.block_count))
        candidates = set()
        for index, zone in enumerate(self.zones[column]):
            if zone.low is None:  # all-NULL block
                continue
            try:
                if op in ("=", "IS NOT DISTINCT FROM"):
                    keep = zone.low <= literal <= zone.high
                elif op in (">", ">="):
                    keep = _COMPARISONS[op](zone.high, literal)
                else:  # < and <=
                    keep = _COMPARISONS[op](zone.low, literal)
            except TypeError:
                keep = True  # cross-type comparison: never prune
            if keep:
                candidates.add(index)
        return candidates


# ---------------------------------------------------------------------------
# Handles and the tier
# ---------------------------------------------------------------------------

LAZY = "lazy"
MATERIALIZED = "materialized"


class TempHandle:
    """One lazily-materialized temp relation: snapshot + positional map."""

    def __init__(self, relation: str, ddl_sql: str, snapshot: ResultSet):
        self.relation = relation
        self.ddl_sql = ddl_sql
        # the snapshot is immutable from here on; a result shares no list
        # with stored data, so it is kept as is
        self.columns = list(snapshot.columns)
        self.column_data = snapshot.column_data
        self.column_index = {c.name: i for i, c in enumerate(self.columns)}
        self.state = LAZY
        self.map: PositionalMap | None = None

    @property
    def row_count(self) -> int:
        return len(self.column_data[0]) if self.column_data else 0


class TempDataTier:
    """Per-session registry of lazy temp-data handles.

    Session-scoped on purpose: temp relations are session-private in PG
    (and ``hq_temp_N`` names repeat across sessions), so tier data must
    never be shared the way the result cache is.
    """

    def __init__(self, config: TempTierConfig | None = None):
        self.config = config or TempTierConfig()
        self._lock = make_lock("cache.temp_tier")
        self._handles: dict[str, TempHandle] = {}
        self.served = 0
        self.fallbacks = 0
        self.map_builds = 0
        self.blocks_pruned = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    # -- registration ----------------------------------------------------------

    def register(
        self, relation: str, ddl_sql: str, snapshot: ResultSet
    ) -> TempHandle:
        """Adopt the defining SELECT's result as a lazy handle."""
        handle = TempHandle(relation, ddl_sql, snapshot)
        with self._lock:
            self._handles[relation] = handle
            TEMPTIER_HANDLES.set(len(self._handles))
        return handle

    def handle(self, relation: str) -> TempHandle | None:
        with self._lock:
            return self._handles.get(relation)

    def lazy_relations(self, tables) -> list[str]:
        """The subset of ``tables`` currently held as lazy handles."""
        with self._lock:
            handles = [self._handles.get(t) for t in tables]
        return [
            h.relation for h in handles if h is not None and h.state == LAZY
        ]

    def discard(self, relation: str) -> bool:
        """Forget a handle (session close); True if it was still lazy —
        the caller may then skip the backend DROP entirely."""
        with self._lock:
            handle = self._handles.pop(relation, None)
            TEMPTIER_HANDLES.set(len(self._handles))
        return handle is not None and handle.state == LAZY

    # -- the read path ---------------------------------------------------------

    def try_serve(self, shape: ScanShape | None) -> ResultSet | None:
        """Answer the read ``shape`` describes from a lazy handle's
        snapshot, or None: the caller must then materialize and run the
        real SQL, whose answer this one equals value for value."""
        if shape is None or not self.config.enabled:
            return None
        handle = self.handle(shape.relation)
        if handle is None or handle.state != LAZY:
            return None
        # resolve every referenced column before touching data
        index = handle.column_index
        out_names = () if shape.count_only else shape.projection
        if out_names is None:
            out_names = tuple(index)
        referenced = out_names + tuple(p[0] for p in shape.predicates)
        if not all(name in index for name in referenced):
            return None
        out_indexes = [index[name] for name in out_names]
        pred_plan = [
            (index[name], op, literal)
            for name, op, literal in shape.predicates
        ]
        rows = self._matching_rows(handle, pred_plan)
        self.served += 1
        if shape.count_only:
            TEMPTIER_SERVED.inc(kind="count")
            return ResultSet(
                [Column(shape.projection[0], SqlType.BIGINT)], [(len(rows),)]
            )
        TEMPTIER_SERVED.inc(kind="lookup" if pred_plan else "scan")
        data = handle.column_data
        return ResultSet.from_columns(
            [handle.columns[i] for i in out_indexes],
            [[data[i][row] for row in rows] for i in out_indexes],
        )

    def _matching_rows(self, handle: TempHandle, pred_plan):
        """Row positions satisfying every predicate, in snapshot order,
        looking only inside blocks whose zones can match."""
        if not pred_plan:
            return range(handle.row_count)
        pmap = self._map_for(handle)
        blocks = set.intersection(*(
            pmap.candidate_blocks(index, op, literal)
            for index, op, literal in pred_plan
        ))
        pruned = pmap.block_count - len(blocks)
        if pruned:
            self.blocks_pruned += pruned
            TEMPTIER_BLOCKS_PRUNED.inc(pruned)
        data = handle.column_data
        rows = []
        for block in sorted(blocks):
            start = block * pmap.block_rows
            stop = min(start + pmap.block_rows, handle.row_count)
            rows.extend(
                row for row in range(start, stop)
                if all(
                    _matches(data[index][row], op, literal)
                    for index, op, literal in pred_plan
                )
            )
        return rows

    def _map_for(self, handle: TempHandle) -> PositionalMap:
        if handle.map is None:
            handle.map = PositionalMap(
                handle.column_data, self.config.block_rows
            )
            self.map_builds += 1
            TEMPTIER_MAP_BUILDS.inc()
        return handle.map

    # -- the fallback path -----------------------------------------------------

    def ensure_materialized(self, relation: str, backend) -> None:
        """Write a lazy handle's snapshot into the backend.

        The *snapshot* is loaded — never the defining SELECT re-run —
        so DML that landed on the source tables after the assignment
        cannot change the variable's contents (the eager-CTAS
        semantics the differential suite pins down).
        """
        handle = self.handle(relation)
        if handle is None or handle.state != LAZY:
            return
        try:
            backend.load_columns(
                relation, list(handle.columns), handle.column_data,
                temporary=True,
            )
        except NotImplementedError:
            # remote backend without a data plane: replay the DDL
            # (only divergent if DML raced the assignment window)
            backend.run_sql(handle.ddl_sql)
        handle.state = MATERIALIZED
        handle.column_data = []
        handle.map = None
        self.fallbacks += 1
        TEMPTIER_FALLBACKS.inc()

    # -- admin snapshot --------------------------------------------------------

    def snapshot(self) -> list[tuple[str, int]]:
        with self._lock:
            handles = list(self._handles.values())
        return [
            ("handles", len(handles)),
            ("lazy", sum(h.state == LAZY for h in handles)),
            ("served", self.served),
            ("fallbacks", self.fallbacks),
            ("map_builds", self.map_builds),
            ("blocks_pruned", self.blocks_pruned),
        ]


def _matches(value, op: str, literal) -> bool:
    """SQL comparison semantics for the supported predicate atoms."""
    if op == "IS NOT DISTINCT FROM":
        return value == literal
    if op == "IS DISTINCT FROM":
        return value != literal
    if value is None:
        return False
    try:
        return _COMPARISONS[op](value, literal)
    except TypeError:
        return False


_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, ">": operator.gt,
    ">=": operator.ge, "<": operator.lt, "<=": operator.le,
}

