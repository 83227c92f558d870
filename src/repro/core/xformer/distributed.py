"""The distributed-rewrite pass: topology-aware plan splitting.

Runs after the serialize pass, only when the session's
:class:`~repro.core.metadata.MetadataInterface` carries a
:class:`~repro.core.metadata.PartitionMap` (i.e. the backend is a
``ShardedBackend``).  The pass never touches the bound XTRA tree — it
*reads* it, decides how the statement distributes, and prefixes the
serialized SQL with a machine-readable plan annotation::

    /*hq-shard:v1 {"mode": "partial", ...}*/SELECT ...

Plain single-node backends execute the annotated statement unchanged (the
plan is a SQL comment); ``ShardedBackend`` strips the annotation and
executes the distributed plan.  Because the plan rides inside the SQL
text, cached translations replay distributed plans for free, and the
translation-cache key's ``partition_fingerprint`` component guarantees a
plan never leaks across topologies.

Plan modes, in decreasing order of preference:

* ``single``  — the tree only touches replicated tables, or a partition-
  key predicate pins every row to one shard (point-lookup routing);
* ``scatter`` — the tree is shard-local end to end: every shard runs the
  full statement over its partition and the coordinator performs an
  ordered columnar merge;
* ``partial`` — ``[Sort](GroupAgg(local child))``: shards compute partial
  aggregates (``sum``/``count``/``min``/``max`` decompose directly,
  ``avg`` becomes exact-sum + count, float sums use the engine's
  ``sum_exact`` so the merged result is bit-identical to a single-node
  run), the coordinator merges;
* ``gather``  — distinct-sensitive or otherwise non-decomposable trees:
  maximal shard-local subtrees are cut out and gathered, the coordinator
  executes the remainder of the tree over the gathered rows.

Statements the planner cannot handle are left unannotated; the backend
refuses an unannotated read of a partitioned table (SQLSTATE 0A000)
rather than guess at its distribution.

Layering (lint rule HQ007): partition-key routing logic lives here and in
``repro/core/sharded.py`` only — servers and serializers never inspect
partition keys.
"""

from __future__ import annotations

import json

from repro.core.algebrizer.binder import BoundScalar
from repro.core.metadata import PartitionMap
from repro.core.pipeline import Pass, TranslationPipeline, TranslationUnit
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    XtraColumn,
    XtraConstTable,
    XtraDistinct,
    XtraFilter,
    XtraGet,
    XtraGroupAgg,
    XtraJoin,
    XtraLimit,
    XtraOp,
    XtraProject,
    XtraSort,
    XtraUnionAll,
    XtraWindow,
    walk,
)
from repro.obs import get_logger, metrics
from repro.sqlengine.types import SqlType

_log = get_logger("core.distributed")

SHARD_PLANS = metrics.counter(
    "shard_plans_total", "Distributed plans produced, labelled by mode"
)

#: plan annotation delimiters (a SQL comment, ignored by plain backends)
PLAN_PREFIX = "/*hq-shard:v1 "
PLAN_SUFFIX = "*/"

#: synthetic coordinator-side table names for gathered task results
GATHER_TABLE = "hq_gather_{index}"
PARTIAL_TABLE = "hq_partials"

# locality of an operator's output rows with respect to the topology
REPLICATED = "replicated"  # every shard computes the identical full result
LOCAL = "local"  # the global result is the disjoint union of shard results
NONE = "none"  # neither: requires coordination


class NotDecomposable(Exception):
    """An aggregate cannot be split into partial + merge."""


def annotate_sql(plan: dict, sql: str) -> str:
    """Prefix ``sql`` with the plan annotation comment."""
    text = json.dumps(plan, separators=(",", ":"))
    # "*/" inside JSON strings would close the comment early; "\/" is a
    # valid JSON escape for "/" and decodes to the same text
    text = text.replace("*/", "*\\/")
    return f"{PLAN_PREFIX}{text}{PLAN_SUFFIX}{sql}"


def extract_plan(sql: str) -> tuple[dict | None, str]:
    """Split an annotated statement into (plan, original SQL).

    Returns ``(None, sql)`` unchanged for unannotated statements.
    """
    if not sql.startswith(PLAN_PREFIX):
        return None, sql
    end = sql.index(PLAN_SUFFIX, len(PLAN_PREFIX))
    plan = json.loads(sql[len(PLAN_PREFIX):end])
    return plan, sql[end + len(PLAN_SUFFIX):]


# ---------------------------------------------------------------------------
# Locality analysis
# ---------------------------------------------------------------------------


class Locality:
    """Locality of one operator plus the output name of its partition
    column (when it survives projection — needed for co-partition joins
    and point-lookup routing)."""

    __slots__ = ("kind", "partition_column")

    def __init__(self, kind: str, partition_column: str | None = None):
        self.kind = kind
        self.partition_column = partition_column


def _condition_equates(condition, left_col: str, right_col: str) -> bool:
    """True when the join condition contains an equality between the two
    partition columns (directly or as an AND conjunct)."""
    if condition is None:
        return False
    conjuncts = [condition]
    if isinstance(condition, sc.SBool) and condition.op == "AND":
        conjuncts = list(condition.args)
    for part in conjuncts:
        if not (isinstance(part, sc.SCmp) and part.op == "="):
            continue
        if isinstance(part.left, sc.SColRef) and isinstance(part.right, sc.SColRef):
            names = {part.left.name, part.right.name}
            if names == {left_col, right_col}:
                return True
    return False


def _window_nodes(scalar):
    """All SWindow nodes nested anywhere inside one scalar expression."""
    stack = [scalar]
    while stack:
        node = stack.pop()
        if isinstance(node, sc.SWindow):
            yield node
        stack.extend(node.children())


def _windows_shard_local(windows, partition_column: str | None) -> bool:
    """A window function is shard-local only when it partitions by the
    table's partition column — then each shard's frame is complete."""
    if partition_column is None:
        return not any(True for __ in windows)
    for window in windows:
        if not any(
            isinstance(p, sc.SColRef) and p.name == partition_column
            for p in window.partition_by
        ):
            return False
    return True


def analyze_locality(op: XtraOp, pmap: PartitionMap) -> Locality:
    """Bottom-up locality derivation for one operator tree."""
    if isinstance(op, XtraGet):
        spec = pmap.lookup(op.table)
        if spec is None:
            return Locality(REPLICATED)
        partcol = spec.key if op.has_column(spec.key) else None
        return Locality(LOCAL, partcol)
    if isinstance(op, XtraConstTable):
        return Locality(REPLICATED)
    if isinstance(op, XtraFilter):
        return analyze_locality(op.child, pmap)
    if isinstance(op, XtraProject):
        child = analyze_locality(op.child, pmap)
        if child.kind != LOCAL:
            return child
        # window functions ride as scalars inside projections: they see
        # only their shard's frame, so unless partitioned by the table's
        # partition column the shard-local result is wrong
        nested = [
            w for __, scalar in op.projections
            for w in _window_nodes(scalar)
        ]
        if nested and not _windows_shard_local(nested, child.partition_column):
            return Locality(NONE)
        partcol = None
        if child.partition_column is not None:
            for name, scalar in op.projections:
                if (
                    isinstance(scalar, sc.SColRef)
                    and scalar.name == child.partition_column
                ):
                    partcol = name
                    break
        return Locality(LOCAL, partcol)
    if isinstance(op, XtraWindow):
        child = analyze_locality(op.child, pmap)
        if child.kind == REPLICATED:
            return child
        if child.kind == LOCAL and child.partition_column is not None:
            # a window partitioned by the partition key sees exactly the
            # rows its shard holds — shard-local computation is exact
            windows = [scalar for __, scalar in op.windows]
            if _windows_shard_local(windows, child.partition_column):
                return Locality(LOCAL, child.partition_column)
            return Locality(NONE)
        return Locality(NONE)
    if isinstance(op, XtraJoin):
        left = analyze_locality(op.left, pmap)
        right = analyze_locality(op.right, pmap)
        if left.kind == REPLICATED and right.kind == REPLICATED:
            return Locality(REPLICATED)
        if op.kind == "cross":
            if left.kind == LOCAL and right.kind == REPLICATED:
                return Locality(LOCAL, left.partition_column)
            if left.kind == REPLICATED and right.kind == LOCAL:
                return Locality(LOCAL, right.partition_column)
            return Locality(NONE)
        if left.kind == LOCAL and right.kind == REPLICATED:
            # every left row finds its full match set on its own shard;
            # holds for inner and for left outer (unmatched rows surface
            # exactly once, on the shard that owns them)
            return Locality(LOCAL, left.partition_column)
        if left.kind == REPLICATED and right.kind == LOCAL:
            if op.kind == "inner":
                return Locality(LOCAL, right.partition_column)
            return Locality(NONE)  # left outer over split right: not local
        if left.kind == LOCAL and right.kind == LOCAL:
            if (
                left.partition_column is not None
                and right.partition_column is not None
                and _condition_equates(
                    op.condition, left.partition_column, right.partition_column
                )
            ):
                # co-partitioned equi-join: matching keys are colocated
                return Locality(LOCAL, left.partition_column)
            return Locality(NONE)
        return Locality(NONE)
    if isinstance(op, XtraSort):
        return analyze_locality(op.child, pmap)
    if isinstance(op, XtraGroupAgg):
        child = analyze_locality(op.child, pmap)
        if child.kind == REPLICATED:
            return Locality(REPLICATED)
        return Locality(NONE)  # handled by partial/gather at the top level
    if isinstance(op, XtraLimit):
        child = analyze_locality(op.child, pmap)
        if child.kind == REPLICATED:
            return child
        return Locality(NONE)
    if isinstance(op, XtraUnionAll):
        left = analyze_locality(op.left, pmap)
        right = analyze_locality(op.right, pmap)
        if left.kind == REPLICATED and right.kind == REPLICATED:
            return Locality(REPLICATED)
        return Locality(NONE)
    if isinstance(op, XtraDistinct):
        child = analyze_locality(op.child, pmap)
        if child.kind == REPLICATED:
            return child
        return Locality(NONE)
    return Locality(NONE)


# ---------------------------------------------------------------------------
# Point-lookup routing: partition-key predicates -> shard target sets
# ---------------------------------------------------------------------------


def _constants_for(predicate, column: str) -> set | None:
    """Values ``column`` is constrained to by ``predicate``; None if the
    predicate does not pin the column to a finite constant set."""
    if isinstance(predicate, sc.SBool) and predicate.op == "AND":
        combined: set | None = None
        for arg in predicate.args:
            values = _constants_for(arg, column)
            if values is None:
                continue
            combined = values if combined is None else (combined & values)
        return combined
    if isinstance(predicate, sc.SCmp) and predicate.op == "=":
        left, right = predicate.left, predicate.right
        if isinstance(left, sc.SConst) and isinstance(right, sc.SColRef):
            left, right = right, left
        if (
            isinstance(left, sc.SColRef)
            and left.name == column
            and isinstance(right, sc.SConst)
        ):
            return {right.value}
    if (
        isinstance(predicate, sc.SIn)
        and not predicate.negated
        and isinstance(predicate.arg, sc.SColRef)
        and predicate.arg.name == column
        and all(isinstance(i, sc.SConst) for i in predicate.items)
    ):
        return {i.value for i in predicate.items}
    return None


def shard_targets(op: XtraOp, pmap: PartitionMap) -> list[int]:
    """Shards that can contribute rows, given partition-key predicates.

    Walks every filter whose input is shard-local with a live partition
    column; each constraining predicate narrows the target set.  With no
    constraining predicate, every shard is a target.

    Intersecting constraints from *every* filter in the tree is only
    sound when they are conjunctive — which holds exactly when ``op``
    itself is LOCAL (filters are then chained, or linked through a
    co-partitioned equi-join that equates the partition columns).  Trees
    with independent sibling subtrees (UNION ALL branches, non-co-
    partitioned join inputs) must derive targets per subtree instead:
    the gather planner calls this on each cut node, never the whole tree.
    """
    targets = set(range(pmap.shard_count))
    for node in walk(op):
        if not isinstance(node, XtraFilter):
            continue
        child = analyze_locality(node.child, pmap)
        if child.kind != LOCAL or child.partition_column is None:
            continue
        # the partition column name at this level maps back to a single
        # partitioned base table below: find its spec for hashing
        spec = None
        for below in walk(node.child):
            if isinstance(below, XtraGet) and pmap.is_partitioned(below.table):
                spec = pmap.lookup(below.table)
                break
        if spec is None:
            continue
        values = _constants_for(node.predicate, child.partition_column)
        if values is None:
            continue
        targets &= {spec.shard_for(v, pmap.shard_count) for v in values}
    return sorted(targets) if targets else []


# ---------------------------------------------------------------------------
# Partial-aggregate decomposition
# ---------------------------------------------------------------------------

_FLOATISH = (SqlType.DOUBLE, SqlType.REAL, SqlType.NUMERIC)


class _Decomposer:
    """Rewrites aggregate scalars into per-shard partials + a merge
    expression over the partial columns."""

    def __init__(self):
        self.partials: list[tuple[str, sc.Scalar]] = []

    def _add_partial(self, scalar: sc.SAgg) -> str:
        name = f"hq_p{len(self.partials)}"
        self.partials.append((name, scalar))
        return name

    def rewrite(self, scalar: sc.Scalar) -> sc.Scalar:
        if isinstance(scalar, sc.SAgg):
            return self._rewrite_agg(scalar)
        if isinstance(scalar, sc.SWindow):
            raise NotDecomposable("window inside aggregate expression")
        return self._rebuild(scalar)

    def _rebuild(self, scalar: sc.Scalar) -> sc.Scalar:
        """Recurse through compound scalars (e.g. wavg's sum/sum)."""
        if isinstance(scalar, (sc.SConst, sc.SColRef)):
            return scalar
        if isinstance(scalar, sc.SArith):
            return sc.SArith(
                scalar.op,
                self.rewrite(scalar.left),
                self.rewrite(scalar.right),
                scalar.type_,
            )
        if isinstance(scalar, sc.SCmp):
            return sc.SCmp(
                scalar.op,
                self.rewrite(scalar.left),
                self.rewrite(scalar.right),
                scalar.null_safe,
            )
        if isinstance(scalar, sc.SCast):
            return sc.SCast(self.rewrite(scalar.arg), scalar.type_)
        if isinstance(scalar, sc.SFunc):
            return sc.SFunc(
                scalar.name, [self.rewrite(a) for a in scalar.args], scalar.type_
            )
        if isinstance(scalar, sc.SCase):
            return sc.SCase(
                [
                    (self.rewrite(c), self.rewrite(r))
                    for c, r in scalar.branches
                ],
                self.rewrite(scalar.default) if scalar.default else None,
                scalar.type_,
            )
        raise NotDecomposable(
            f"aggregate expression contains {type(scalar).__name__}"
        )

    def _rewrite_agg(self, agg: sc.SAgg) -> sc.Scalar:
        if agg.distinct:
            raise NotDecomposable(f"{agg.name}(DISTINCT ...) is order-global")
        if agg.name == "count":
            partial = self._add_partial(
                sc.SAgg("count", agg.arg, SqlType.BIGINT)
            )
            return sc.SAgg(
                "sum", sc.SColRef(partial, SqlType.BIGINT), SqlType.BIGINT
            )
        if agg.name == "sum":
            arg_type = agg.arg.sql_type if agg.arg is not None else SqlType.BIGINT
            if agg.type_ in _FLOATISH or arg_type in _FLOATISH:
                # float sums: exact partials merged exactly, rounded once
                # (bit-identical to a single-node fsum at any shard count)
                partial = self._add_partial(
                    sc.SAgg("sum_exact", agg.arg, SqlType.NUMERIC)
                )
                return sc.SCast(
                    sc.SAgg(
                        "sum_exact",
                        sc.SColRef(partial, SqlType.NUMERIC),
                        SqlType.NUMERIC,
                    ),
                    agg.type_ if agg.type_ in _FLOATISH else SqlType.DOUBLE,
                )
            partial = self._add_partial(sc.SAgg("sum", agg.arg, agg.type_))
            return sc.SAgg("sum", sc.SColRef(partial, agg.type_), agg.type_)
        if agg.name in ("min", "max"):
            partial = self._add_partial(
                sc.SAgg(agg.name, agg.arg, agg.type_)
            )
            return sc.SAgg(
                agg.name, sc.SColRef(partial, agg.type_), agg.type_
            )
        if agg.name == "avg":
            sum_partial = self._add_partial(
                sc.SAgg("sum_exact", agg.arg, SqlType.NUMERIC)
            )
            count_partial = self._add_partial(
                sc.SAgg("count", agg.arg, SqlType.BIGINT)
            )
            merged_count = sc.SAgg(
                "sum", sc.SColRef(count_partial, SqlType.BIGINT), SqlType.BIGINT
            )
            merged_sum = sc.SCast(
                sc.SAgg(
                    "sum_exact",
                    sc.SColRef(sum_partial, SqlType.NUMERIC),
                    SqlType.NUMERIC,
                ),
                SqlType.DOUBLE,
            )
            return sc.SCase(
                [
                    (
                        sc.SCmp("=", merged_count, sc.SConst(0, SqlType.BIGINT)),
                        sc.SConst(None, SqlType.DOUBLE),
                    )
                ],
                sc.SArith(
                    "/",
                    merged_sum,
                    sc.SCast(merged_count, SqlType.DOUBLE),
                    SqlType.DOUBLE,
                ),
                SqlType.DOUBLE,
            )
        raise NotDecomposable(f"aggregate {agg.name!r} has no partial form")


def decompose_group_agg(agg: XtraGroupAgg):
    """Split a GroupAgg into (partial_tree_aggs, merged_aggs).

    Raises :class:`NotDecomposable` when any aggregate lacks a partial
    form (stddev/median/first/... or DISTINCT aggregates).
    """
    decomposer = _Decomposer()
    merged: list[tuple[str, sc.Scalar]] = []
    for name, scalar in agg.aggregates:
        merged.append((name, decomposer.rewrite(scalar)))
    return decomposer.partials, merged


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def _column_spec(op: XtraOp) -> list[list]:
    """JSON-able column list for a subplan's result schema."""
    return [
        [c.name, c.sql_type.value, bool(c.implicit)] for c in op.columns
    ]


def _merge_keys(op: XtraOp) -> list | None:
    """Sort keys for the coordinator's ordered merge of a scatter plan.

    Requires the per-shard output order to be fully described: a top-level
    sort over plain column references, or a surviving implicit order
    column.  The order column is always appended as the unique tiebreak so
    duplicate sort keys merge deterministically (matching the single-node
    stable sort over ordcol-ordered input).
    """
    keys: list[list] = []
    if isinstance(op, XtraSort):
        for scalar, descending in op.sort_items:
            if not isinstance(scalar, sc.SColRef):
                return None
            keys.append([scalar.name, bool(descending)])
    order = op.order_column
    if order is not None and op.has_column(order):
        if not any(name == order for name, __ in keys):
            keys.append([order, False])
    if not keys:
        return None
    return keys


def _group_key_columns(agg: XtraGroupAgg) -> list[tuple[str, SqlType]]:
    return [(name, scalar.sql_type) for name, scalar in agg.group_keys]


def _synthetic_get(table: str, columns: list[tuple[str, SqlType]]) -> XtraGet:
    return XtraGet(
        table,
        [XtraColumn(name, type_) for name, type_ in columns],
        ordcol=None,
        keys=[],
    )


def plan_distribution(
    op: XtraOp, pmap: PartitionMap, serializer
) -> dict | None:
    """Produce the distributed plan for one serialized statement, or None
    when the planner cannot split it."""
    locality = analyze_locality(op, pmap)

    if locality.kind == REPLICATED:
        # every shard holds the full inputs; any one shard answers
        return {"mode": "single", "shard": 0}

    if locality.kind == LOCAL:
        # inside one LOCAL tree every constraining filter is conjunctive
        # (chained, or equated across a co-partitioned join), so the
        # whole-tree intersection is sound — only here
        targets = shard_targets(op, pmap)
        if not targets:
            # contradictory partition-key predicates: no shard qualifies,
            # but the statement must still produce its (empty) shape —
            # run it on one shard, which also yields zero matching rows
            targets = [0]
        if len(targets) == 1:
            # point lookup: the partition-key predicate pins one shard
            return {"mode": "single", "shard": targets[0]}
        merge_keys = _merge_keys(op)
        if merge_keys is None:
            return _plan_gather(op, pmap, serializer)
        return {
            "mode": "scatter",
            "targets": targets,
            "sql": serializer.serialize(op),
            "columns": _column_spec(op),
            "merge_keys": merge_keys,
        }

    # a grouped/scalar aggregate over a shard-local input: try partials
    sort: XtraSort | None = None
    agg: XtraGroupAgg | None = None
    if isinstance(op, XtraSort) and isinstance(op.child, XtraGroupAgg):
        sort, agg = op, op.child
    elif isinstance(op, XtraGroupAgg):
        agg = op
    if agg is not None and analyze_locality(agg.child, pmap).kind == LOCAL:
        try:
            return _plan_partial(op, sort, agg, pmap, serializer)
        except NotDecomposable as reason:
            _log.info("shard_partial_fallback", reason=str(reason))
    return _plan_gather(op, pmap, serializer)


def _plan_partial(
    op: XtraOp,
    sort: XtraSort | None,
    agg: XtraGroupAgg,
    pmap: PartitionMap,
    serializer,
) -> dict:
    partials, merged = decompose_group_agg(agg)
    partial_tree = XtraGroupAgg(agg.child, agg.group_keys, partials)
    # the aggregate's input is LOCAL, so its filters are conjunctive and
    # the intersection over that subtree is sound
    targets = shard_targets(agg.child, pmap) or [0]
    key_columns = _group_key_columns(agg)
    partial_columns = key_columns + [
        (name, scalar.sql_type) for name, scalar in partials
    ]
    get = _synthetic_get(PARTIAL_TABLE, partial_columns)
    merge_tree: XtraOp = XtraGroupAgg(
        get,
        [(name, sc.SColRef(name, type_)) for name, type_ in key_columns],
        merged,
    )
    if sort is not None:
        merge_tree = XtraSort(merge_tree, sort.sort_items)
    return {
        "mode": "partial",
        "targets": targets,
        "tasks": [
            {
                "table": PARTIAL_TABLE,
                "sql": serializer.serialize(partial_tree),
                "columns": _column_spec(partial_tree),
                "order_col": None,
                "targets": targets,
            }
        ],
        "merge_sql": serializer.serialize(merge_tree),
        "columns": _column_spec(op),
    }


def _references_tables(op: XtraOp) -> bool:
    return any(isinstance(node, XtraGet) for node in walk(op))


def _rebuild_with_children(op: XtraOp, children: list[XtraOp]) -> XtraOp:
    if isinstance(op, XtraProject):
        return XtraProject(children[0], op.projections)
    if isinstance(op, XtraFilter):
        return XtraFilter(children[0], op.predicate)
    if isinstance(op, XtraJoin):
        return XtraJoin(op.kind, children[0], children[1], op.condition)
    if isinstance(op, XtraGroupAgg):
        return XtraGroupAgg(children[0], op.group_keys, op.aggregates)
    if isinstance(op, XtraWindow):
        return XtraWindow(children[0], op.windows)
    if isinstance(op, XtraSort):
        return XtraSort(children[0], op.sort_items)
    if isinstance(op, XtraLimit):
        return XtraLimit(children[0], op.count, op.offset)
    if isinstance(op, XtraUnionAll):
        return XtraUnionAll(children[0], children[1])
    if isinstance(op, XtraDistinct):
        return XtraDistinct(children[0])
    raise NotDecomposable(f"cannot rebuild {type(op).__name__}")


def _plan_gather(
    op: XtraOp,
    pmap: PartitionMap,
    serializer,
) -> dict | None:
    """Cut maximal shard-computable subtrees into gather tasks; the
    coordinator executes the rest of the tree over the gathered rows.

    Each task's target set derives from the filters inside *its own*
    subtree only.  Sibling subtrees carry independent constraints — UNION
    ALL branches pin different shards, a non-co-partitioned join pairs a
    filtered side with an unfiltered one — so a whole-tree intersection
    would silently drop rows held on the excluded shards.
    """
    tasks: list[dict] = []

    def cut(node: XtraOp) -> XtraOp:
        locality = analyze_locality(node, pmap)
        if locality.kind in (LOCAL, REPLICATED) and _references_tables(node):
            index = len(tasks)
            table = GATHER_TABLE.format(index=index)
            order = node.order_column
            if order is not None and not node.has_column(order):
                order = None
            if locality.kind == LOCAL:
                # this subtree is LOCAL, so its own filters intersect
                # soundly; empty means contradictory predicates — one
                # shard still supplies the (empty) shape
                node_targets = shard_targets(node, pmap) or [0]
            else:
                # a replicated subtree is identical everywhere: gather
                # it from one shard only
                node_targets = [0]
            tasks.append(
                {
                    "table": table,
                    "sql": serializer.serialize(node),
                    "columns": _column_spec(node),
                    "order_col": order,
                    "targets": node_targets,
                }
            )
            columns = [(c.name, c.sql_type) for c in node.columns]
            get = _synthetic_get(table, columns)
            get.ordcol = order
            return get
        children = node.children()
        if not children:
            return node
        return _rebuild_with_children(node, [cut(c) for c in children])

    try:
        merge_tree = cut(op)
    except NotDecomposable as reason:
        _log.info("shard_gather_fallback", reason=str(reason))
        return None
    if not tasks:
        return None
    return {
        "mode": "gather",
        # union of per-task targets — informational (span fanout attrs);
        # execution uses each task's own target set
        "targets": sorted({t for task in tasks for t in task["targets"]}),
        "tasks": tasks,
        "merge_sql": serializer.serialize(merge_tree),
        "columns": _column_spec(op),
    }


# ---------------------------------------------------------------------------
# The pipeline pass
# ---------------------------------------------------------------------------


class DistributePass(Pass):
    """Annotate serialized SQL with a distributed execution plan.

    A no-op unless the MDI exposes a partition map.  Never modifies the
    bound tree (the XTRA invariant checker re-verifies the unchanged tree
    after this pass).  Planner failures are logged and leave the SQL
    unannotated, which the sharded backend refuses for reads of
    partitioned tables (0A000).
    """

    name = "distribute"
    stage = "optimize"

    def run(self, unit: TranslationUnit, pipeline: TranslationPipeline) -> None:
        pmap = pipeline.mdi.partition_map
        if unit.sql is None or unit.bound is None or pmap is None:
            return
        if isinstance(unit.bound, BoundScalar):
            # scalar statements reference no relations: any shard answers
            unit.sql = annotate_sql({"mode": "single", "shard": 0}, unit.sql)
            return
        try:
            plan = plan_distribution(unit.bound.op, pmap, pipeline.serializer)
        except Exception as exc:  # planner bug: the backend refuses, loudly
            _log.warning("shard_plan_failed", error=str(exc))
            plan = None
        if plan is None:
            SHARD_PLANS.inc(mode="error")
            return
        SHARD_PLANS.inc(mode=plan["mode"])
        unit.sql = annotate_sql(plan, unit.sql)
