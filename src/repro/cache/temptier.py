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
   pattern needs real SQL — joins, grouping, anything the matcher does
   not recognize — after which the handle is a passthrough.

The SQL matcher is deliberately conservative: it recognizes only the
exact shapes Hyper-Q's own serializer emits over a temp relation, and
anything else triggers materialization.  Unrecognized never means
wrong — only slower.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analysis.concurrency.locks import make_lock
from repro.config import TempTierConfig
from repro.core.metadata import TableMeta
from repro.core.xformer.distributed import extract_plan
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
        candidates = set()
        for index, zone in enumerate(self.zones[column]):
            if zone.low is None:  # all-NULL block
                continue
            try:
                if op in ("=", "IS NOT DISTINCT FROM"):
                    keep = zone.low <= literal <= zone.high
                elif op == ">":
                    keep = zone.high > literal
                elif op == ">=":
                    keep = zone.high >= literal
                elif op == "<":
                    keep = zone.low < literal
                elif op == "<=":
                    keep = zone.low <= literal
                else:  # <> and anything exotic: zones cannot prune
                    keep = True
            except TypeError:
                keep = True  # cross-type comparison: never prune
            if keep:
                candidates.add(index)
        return candidates


# ---------------------------------------------------------------------------
# The serializer-shape matcher
# ---------------------------------------------------------------------------

_OUTER_RE = re.compile(
    r'^SELECT \* FROM \((?P<inner>.*)\) AS hq_t\d+ '
    r'ORDER BY "ordcol" NULLS FIRST$',
    re.DOTALL,
)
_BASE_RE = re.compile(
    r'^SELECT (?P<cols>"[^"]+"(?:, "[^"]+")*) FROM "(?P<rel>[^"]+)"$'
)
_FILTER_RE = re.compile(
    r'^SELECT \* FROM \((?P<inner>.*)\) AS hq_t\d+ WHERE \((?P<pred>.*)\)$',
    re.DOTALL,
)
_PROJECT_RE = re.compile(
    r'^SELECT (?P<aliases>"[^"]+" AS "[^"]+"(?:, "[^"]+" AS "[^"]+")*) '
    r'FROM \((?P<inner>.*)\) AS hq_t\d+$',
    re.DOTALL,
)
_COUNT_RE = re.compile(
    r'^SELECT count\(\*\) AS "count" FROM '
    r'\(SELECT 1 FROM "(?P<rel>[^"]+)"\) AS hq_t\d+$'
)
_ATOM_RE = re.compile(
    r'^"(?P<col>[^"]+)" '
    r'(?P<op>IS NOT DISTINCT FROM|>=|<=|<>|=|>|<) (?P<lit>.+)$',
    re.DOTALL,
)
_STRING_LIT_RE = re.compile(r"^'(?P<body>(?:[^']|'')*)'::varchar$")
_INT_LIT_RE = re.compile(r'^-?\d+$')
_FLOAT_LIT_RE = re.compile(r'^-?\d+\.\d+(?:[eE][+-]?\d+)?$')


@dataclass
class MatchedQuery:
    """A recognized serializer shape over one tier relation."""

    relation: str
    #: predicate conjuncts as (column, op, literal) triples
    predicates: list[tuple[str, str, object]] = field(default_factory=list)
    #: output column names in order; None means the base column order
    projection: list[str] | None = None
    #: ``count select from t`` — answer is the row count
    count_only: bool = False


def _split_conjuncts(pred: str) -> list[str] | None:
    """Split ``(a) AND (b) AND (c)`` at paren depth zero; None if the
    text is not a pure AND-conjunction."""
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(pred):
        ch = pred[i]
        if ch == "'":
            end = pred.find("'", i + 1)
            while end != -1 and pred[end:end + 2] == "''":
                end = pred.find("'", end + 2)
            if end == -1:
                return None
            i = end + 1
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and pred.startswith(" AND ", i):
            parts.append(pred[start:i])
            start = i + 5
            i += 5
            continue
        i += 1
    parts.append(pred[start:])
    return parts


def _strip_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        balanced = True
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    balanced = False
                    break
        if not balanced:
            return text
        text = text[1:-1].strip()
    return text


def _parse_literal(text: str):
    """Supported literal forms; raises ValueError on anything else."""
    text = text.strip()
    if _INT_LIT_RE.match(text):
        return int(text)
    if _FLOAT_LIT_RE.match(text):
        return float(text)
    if text == "TRUE":
        return True
    if text == "FALSE":
        return False
    string = _STRING_LIT_RE.match(text)
    if string:
        return string.group("body").replace("''", "'")
    raise ValueError(f"unsupported literal {text!r}")


def _parse_predicates(pred: str) -> list[tuple[str, str, object]] | None:
    conjuncts = _split_conjuncts(pred.strip())
    if conjuncts is None:
        return None
    flat: list[tuple[str, str, object]] = []
    queue = [c for c in conjuncts]
    while queue:
        part = _strip_parens(queue.pop(0))
        inner = _split_conjuncts(part)
        if inner is not None and len(inner) > 1:
            queue.extend(inner)
            continue
        atom = _ATOM_RE.match(part)
        if atom is None:
            return None
        try:
            literal = _parse_literal(atom.group("lit"))
        except ValueError:
            return None
        flat.append((atom.group("col"), atom.group("op"), literal))
    return flat


def match_tier_sql(sql: str) -> MatchedQuery | None:
    """Recognize one of the serializer's shapes over a single relation.

    Returns None for anything but the exact scan / filter / projection /
    count patterns Hyper-Q emits for interactive reads — the caller then
    falls back to materialization.
    """
    count = _COUNT_RE.match(sql)
    if count is not None:
        return MatchedQuery(relation=count.group("rel"), count_only=True)
    outer = _OUTER_RE.match(sql)
    if outer is None:
        return None
    node = outer.group("inner")
    projection: list[str] | None = None
    predicates: list[tuple[str, str, object]] = []
    for __ in range(4):  # project -> filter -> base is the deepest stack
        base = _BASE_RE.match(node)
        if base is not None:
            matched = MatchedQuery(
                relation=base.group("rel"),
                predicates=predicates,
                projection=projection,
            )
            return matched
        project = _PROJECT_RE.match(node)
        if project is not None:
            if projection is not None:
                return None  # two projection layers: not our shape
            names = []
            for alias in project.group("aliases").split(", "):
                m = re.match(r'^"([^"]+)" AS "([^"]+)"$', alias)
                if m is None or m.group(1) != m.group(2):
                    return None  # renames/expressions: real SQL needed
                names.append(m.group(1))
            projection = names
            node = project.group("inner")
            continue
        filt = _FILTER_RE.match(node)
        if filt is not None:
            if predicates:
                return None
            parsed = _parse_predicates(filt.group("pred"))
            if parsed is None:
                return None
            predicates = parsed
            node = filt.group("inner")
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# Handles and the tier
# ---------------------------------------------------------------------------

LAZY = "lazy"
MATERIALIZED = "materialized"


class TempHandle:
    """One lazily-materialized temp relation: snapshot + positional map."""

    def __init__(
        self,
        relation: str,
        ddl_sql: str,
        meta: TableMeta,
        columns: list[Column],
        column_data: list[list],
    ):
        self.relation = relation
        self.ddl_sql = ddl_sql
        self.meta = meta
        self.columns = columns
        self.column_data = column_data
        self.state = LAZY
        self.map: PositionalMap | None = None
        self.touches = 0

    @property
    def row_count(self) -> int:
        return len(self.column_data[0]) if self.column_data else 0

    def column_index(self, name: str) -> int | None:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        return None


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
        self,
        relation: str,
        ddl_sql: str,
        meta: TableMeta,
        snapshot: ResultSet,
    ) -> TempHandle:
        """Adopt the defining SELECT's result as a lazy handle.

        The payload is deep-copied at column granularity — engine
        results can alias live table rows, and the snapshot must be
        immutable from here on.
        """
        handle = TempHandle(
            relation,
            ddl_sql,
            meta,
            list(snapshot.columns),
            [list(col) for col in snapshot.column_data],
        )
        with self._lock:
            self._handles[relation] = handle
            TEMPTIER_HANDLES.set(len(self._handles))
        return handle

    def handle(self, relation: str) -> TempHandle | None:
        with self._lock:
            return self._handles.get(relation)

    def is_lazy(self, relation: str) -> bool:
        handle = self.handle(relation)
        return handle is not None and handle.state == LAZY

    def lazy_relations(self, tables) -> list[str]:
        """The subset of ``tables`` currently held as lazy handles."""
        return [t for t in tables if self.is_lazy(t)]

    def lazy_names(self) -> list[str]:
        """Every relation currently held as a lazy handle."""
        with self._lock:
            return [
                r for r, h in self._handles.items() if h.state == LAZY
            ]

    def discard(self, relation: str) -> bool:
        """Forget a handle (session close); True if it was still lazy —
        the caller may then skip the backend DROP entirely."""
        with self._lock:
            handle = self._handles.pop(relation, None)
            TEMPTIER_HANDLES.set(len(self._handles))
        return handle is not None and handle.state == LAZY

    # -- the read path ---------------------------------------------------------

    def try_serve(self, sql: str) -> ResultSet | None:
        """Answer ``sql`` from a lazy handle's positional map, or None.

        None means the caller must materialize and run real SQL; a
        non-None return is byte-equivalent to what the backend would
        have produced for the same statement.
        """
        if not self.config.enabled:
            return None
        # the matcher reads plain SQL; a sharded plan annotation is a
        # leading comment
        __, sql = extract_plan(sql)
        matched = match_tier_sql(sql)
        if matched is None:
            return None
        handle = self.handle(matched.relation)
        if handle is None or handle.state != LAZY:
            return None
        handle.touches += 1
        if matched.count_only:
            self.served += 1
            TEMPTIER_SERVED.inc(kind="count")
            return ResultSet(
                [Column("count", SqlType.BIGINT)],
                [(handle.row_count,)],
            )
        return self._serve_scan(handle, matched)

    def _serve_scan(
        self, handle: TempHandle, matched: MatchedQuery
    ) -> ResultSet | None:
        # resolve every referenced column before touching data
        out_names = matched.projection or [c.name for c in handle.columns]
        out_indexes = []
        for name in out_names:
            index = handle.column_index(name)
            if index is None:
                return None
            out_indexes.append(index)
        pred_plan = []
        for name, op, literal in matched.predicates:
            index = handle.column_index(name)
            if index is None:
                return None
            pred_plan.append((index, op, literal))

        pmap = self._map_for(handle)
        blocks: set[int] | None = None
        for index, op, literal in pred_plan:
            candidates = pmap.candidate_blocks(index, op, literal)
            blocks = candidates if blocks is None else (blocks & candidates)
        if blocks is None:
            blocks = set(range(pmap.block_count))
        pruned = pmap.block_count - len(blocks)
        if pruned:
            self.blocks_pruned += pruned
            TEMPTIER_BLOCKS_PRUNED.inc(pruned)

        data = handle.column_data
        out_data: list[list] = [[] for __ in out_indexes]
        block_rows = pmap.block_rows
        for block in sorted(blocks):
            start = block * block_rows
            stop = min(start + block_rows, handle.row_count)
            for row in range(start, stop):
                if all(
                    _matches(data[index][row], op, literal)
                    for index, op, literal in pred_plan
                ):
                    for slot, index in enumerate(out_indexes):
                        out_data[slot].append(data[index][row])
        self.served += 1
        TEMPTIER_SERVED.inc(kind="lookup" if pred_plan else "scan")
        return ResultSet.from_columns(
            [handle.columns[i] for i in out_indexes], out_data
        )

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
        rows = [list(row) for row in zip(*handle.column_data)]
        try:
            backend.load_columns(
                relation, list(handle.columns), rows, temporary=True
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
            handles = len(self._handles)
            lazy = sum(
                1 for h in self._handles.values() if h.state == LAZY
            )
        return [
            ("handles", handles),
            ("lazy", lazy),
            ("served", self.served),
            ("fallbacks", self.fallbacks),
            ("map_builds", self.map_builds),
            ("blocks_pruned", self.blocks_pruned),
        ]


def _matches(value, op: str, literal) -> bool:
    """SQL comparison semantics for the supported predicate atoms."""
    if op == "IS NOT DISTINCT FROM":
        return value == literal
    if value is None:
        return False
    try:
        if op == "=":
            return value == literal
        if op == "<>":
            return value != literal
        if op == ">":
            return value > literal
        if op == ">=":
            return value >= literal
        if op == "<":
            return value < literal
        if op == "<=":
            return value <= literal
    except TypeError:
        return False
    return False

