"""Eager materialization of Q variable assignments (paper Section 4.3).

A Q assignment may need to be *physically executed* before later
statements can be algebrized: ``dt: select ...`` inside a function must
exist (at least logically) before ``select max Price from dt`` binds.

Two strategies, as in the paper:

* **logical** — scalars stay in Hyper-Q's variable store; table
  expressions become backend views;
* **physical** — table expressions become temporary tables
  (``CREATE TEMPORARY TABLE hq_temp_1 AS ... ORDER BY ordcol``), which is
  required for correctness when definitions must be snapshotted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.config import HyperQConfig, MaterializationMode
from repro.core.algebrizer.binder import BoundTable
from repro.core.metadata import ColumnMeta, MetadataInterface, TableMeta
from repro.core.pipeline import ScanShape, referenced_tables, scan_shape
from repro.core.scopes import Scope, VarKind, VariableDef
from repro.core.serializer import Serializer, quote_ident
from repro.core.xformer.distributed import distribute_sql
from repro.core.xtra.ops import XtraLimit, XtraOp, XtraProject, XtraSort, XtraWindow
from repro.core.xtra.scalars import SArith, SColRef, SConst, SIsNull, SWindow
from repro.obs import metrics
from repro.sqlengine.types import SqlType

#: materialization decisions, labelled kind=temp_table|view (physical vs
#: logical, Section 4.3) — the ablation benches read this split
MATERIALIZATIONS = metrics.counter(
    "hyperq_materializations_total",
    "Q assignments materialized in the backend",
)

#: generated relation names, as in the paper's example SQL: physical
#: temp tables and logical views are session-private (``hq_temp_1``
#: means something different per connection); a temp table promoted to
#: the server scope at session close is persisted under the global prefix
TEMP_TABLE_PREFIX = "hq_temp_"
VIEW_PREFIX = "hq_view_"
GLOBAL_PREFIX = "hq_global_"


@dataclass
class MaterializationStep:
    """One DDL statement the materializer wants executed."""

    sql: str
    relation: str
    kind: str  # 'temp_table' | 'view'
    #: the defining SELECT inside the DDL (plan-annotated on a sharded
    #: backend) — the temp-data tier runs it directly to snapshot the
    #: assignment without the backend write
    inner_sql: str
    #: relations the defining SELECT reads
    tables: list[str]
    #: the defining SELECT as a temp-tier scan, when it is one
    scan: ScanShape | None


class Materializer:
    """Turns bound assignments into backend objects + scope entries."""

    def __init__(
        self,
        mdi: MetadataInterface,
        config: HyperQConfig,
        serializer: Serializer,
    ):
        # the serializer comes from the session's pipeline (layering rule
        # HQ001: only repro/core/pipeline.py constructs Serializer)
        self.mdi = mdi
        self.config = config
        self.serializer = serializer
        self._temp_counter = itertools.count(1)
        self._view_counter = itertools.count(1)

    def materialize_table(
        self,
        name: str,
        bound: BoundTable,
        scope: Scope,
        mode: MaterializationMode | None = None,
    ) -> MaterializationStep:
        """Produce the DDL for ``name: <table expr>`` and record the
        variable definition in ``scope``.  The caller executes the DDL
        (or not, in translate-only mode)."""
        mode = mode or self.config.materialization
        bound = BoundTable(_renumbered(bound.op), bound.keys, bound.shape)
        # planned like any other read, so a sharded backend runs the
        # defining SELECT through its distributed plan
        inner_sql = distribute_sql(
            bound,
            self.serializer.serialize(bound.op),
            self.mdi.partition_map,
            self.serializer,
        )
        if mode == MaterializationMode.PHYSICAL:
            relation = f"{TEMP_TABLE_PREFIX}{next(self._temp_counter)}"
            sql = (
                f"CREATE TEMPORARY TABLE {quote_ident(relation)} AS {inner_sql}"
            )
            kind = "temp_table"
            var_kind = VarKind.TABLE
        else:
            relation = f"{VIEW_PREFIX}{next(self._view_counter)}"
            sql = f"CREATE OR REPLACE VIEW {quote_ident(relation)} AS {inner_sql}"
            kind = "view"
            var_kind = VarKind.VIEW
        meta = self._meta_from_bound(relation, bound)
        scope.upsert(
            VariableDef(
                name, var_kind, relation=relation, meta=meta,
            )
        )
        MATERIALIZATIONS.inc(kind=kind)
        return MaterializationStep(
            sql, relation, kind, inner_sql,
            referenced_tables(bound.op), scan_shape(bound.op),
        )

    def store_scalar(self, name: str, value, scope: Scope) -> None:
        """Logical materialization of a scalar: the variable store."""
        scope.upsert(VariableDef(name, VarKind.SCALAR, value=value))

    def store_function(self, name: str, source: str, scope: Scope) -> None:
        """Functions are stored as plain text and re-algebrized on each
        invocation (paper Section 4.3)."""
        scope.upsert(VariableDef(name, VarKind.FUNCTION, source=source))

    @staticmethod
    def _meta_from_bound(relation: str, bound: BoundTable) -> TableMeta:
        columns = [
            ColumnMeta(c.name, c.sql_type, c.sql_type.value)
            for c in bound.op.columns
        ]
        ordcol = bound.op.order_column
        if ordcol is not None and not any(c.name == ordcol for c in columns):
            ordcol = None
        return TableMeta(
            relation, columns, keys=list(bound.keys), ordcol=ordcol,
            schema="pg_temp",
        )


#: scratch column the renumbering window fills before it becomes ordcol
_ROW_NUMBER = "hq_row_number"


def _renumbered(op: XtraOp) -> XtraOp:
    """``op`` with its implicit order column renumbered to its row order.

    A sorted assignment (`` `Price xdesc t ``) would otherwise keep its
    source's ordcol values, and every later read of the variable orders
    by ordcol.  Unless the tree is already sorted by ordcol, its order
    column becomes ``row_number() - 1`` over the sort items, then the
    old ordcol, so the CTAS, the view and the tier snapshot all store
    the assignment's own row order.
    """
    ordcol = op.order_column
    if ordcol is None or not op.column(ordcol).implicit:
        return op
    node = op
    while isinstance(node, XtraLimit):
        node = node.child
    items = list(node.sort_items) if isinstance(node, XtraSort) else []
    # xasc/xdesc end with the old ordcol as tie-breaker; it is appended
    # below as the window's last key anyway
    last, descending = items[-1] if items else (None, True)
    if isinstance(last, SColRef) and last.name == ordcol and not descending:
        items.pop()
        if not items:
            return op  # already in ordcol order
    key = SColRef(ordcol, op.column(ordcol).sql_type, False)
    order_by = []
    for expr, descending in items + [(key, False)]:
        if expr.nullable:
            # window keys take PG's null placement; lead with a null
            # flag so nulls sort smallest, as XtraSort renders them
            order_by.append((SIsNull(expr, negated=not descending), False))
        order_by.append((expr, descending))
    row_number = SWindow("row_number", [], order_by=order_by, type_=SqlType.BIGINT)
    position = SArith(
        "-", SColRef(_ROW_NUMBER, SqlType.BIGINT, False),
        SConst(1, SqlType.BIGINT), type_=key.sql_type,
    )
    projections = [
        (c.name, position if c.name == ordcol
         else SColRef(c.name, c.sql_type, c.nullable))
        for c in op.columns
    ]
    renumbered = XtraProject(
        XtraWindow(op, [(_ROW_NUMBER, row_number)]), projections
    )
    return XtraSort(renumbered, [(key, False)])
