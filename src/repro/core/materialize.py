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
from repro.core.metadata import ColumnMeta, TableMeta
from repro.core.pipeline import TranslationUnit
from repro.core.scopes import Scope, VarKind, VariableDef
from repro.core.serializer import quote_ident
from repro.obs import metrics

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


class Materializer:
    """Turns translated assignments into backend objects + scope entries."""

    def __init__(self, config: HyperQConfig):
        self.config = config
        self._temp_counter = itertools.count(1)
        self._view_counter = itertools.count(1)

    def materialize_table(
        self,
        name: str,
        unit: TranslationUnit,
        scope: Scope,
        mode: MaterializationMode | None = None,
    ) -> MaterializationStep:
        """Produce the DDL for ``name: <table expr>`` and record the
        variable definition in ``scope``.  ``unit`` is the expression's
        pipeline translation; its SQL is already planned like any other
        read, so a sharded backend runs the defining SELECT through its
        distributed plan.  The caller executes the DDL (or not, in
        translate-only mode)."""
        mode = mode or self.config.materialization
        if mode == MaterializationMode.PHYSICAL:
            relation = f"{TEMP_TABLE_PREFIX}{next(self._temp_counter)}"
            sql = (
                f"CREATE TEMPORARY TABLE {quote_ident(relation)} AS {unit.sql}"
            )
            kind = "temp_table"
            var_kind = VarKind.TABLE
        else:
            relation = f"{VIEW_PREFIX}{next(self._view_counter)}"
            sql = f"CREATE OR REPLACE VIEW {quote_ident(relation)} AS {unit.sql}"
            kind = "view"
            var_kind = VarKind.VIEW
        meta = self._meta_from_bound(relation, unit.bound)
        scope.upsert(
            VariableDef(
                name, var_kind, relation=relation, meta=meta, shape=unit.shape,
            )
        )
        MATERIALIZATIONS.inc(kind=kind)
        return MaterializationStep(sql, relation, kind)

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
