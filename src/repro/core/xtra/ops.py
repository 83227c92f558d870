"""XTRA relational operators.

XTRA (eXTended Relational Algebra) is Hyper-Q's internal query
representation (paper Section 3.2).  Every relational operator derives the
properties the paper lists: output columns with names and types, keys, and
order — the latter via the ``order_column`` / ``preserves_order``
properties that the Xformer's transparency rules consume (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.xtra.scalars import Scalar, SColRef
from repro.sqlengine.types import SqlType

#: Name of the implicit order column Hyper-Q maintains for Q tables.
ORDCOL = "ordcol"


@dataclass(slots=True)
class XtraColumn:
    """One output column of a relational operator."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    #: True for the implicit order column (hidden from the Q application)
    implicit: bool = False


class XtraOp:
    """Base class for relational operators.

    Derived properties (output columns, order column) are cached per node:
    XTRA trees are rebuilt, not mutated, by the Xformer, so a node's
    properties are stable once derived.  Without the cache, property
    derivation on 500+ column workloads dominates translation time.
    """

    __slots__ = ()

    def _compute_columns(self) -> list[XtraColumn]:
        raise NotImplementedError

    @property
    def columns(self) -> list[XtraColumn]:
        cached = self.__dict__.get("_columns_cache")
        if cached is None:
            cached = self._compute_columns()
            self.__dict__["_columns_cache"] = cached
        return cached

    def _colmap(self) -> dict:
        colmap = self.__dict__.get("_colmap_cache")
        if colmap is None:
            colmap = self._compute_colmap()
            self.__dict__["_colmap_cache"] = colmap
        return colmap

    def _compute_colmap(self) -> dict:
        children = self.children()
        if len(children) == 1 and children[0].columns is self.columns:
            return children[0]._colmap()  # a filter, sort or limit: same columns
        return {c.name: c for c in self.columns}

    @property
    def order_column(self) -> str | None:
        """Name of the implicit order column, if this operator has one."""
        if "_order_cache" not in self.__dict__:
            self.__dict__["_order_cache"] = self._compute_order_column()
        return self.__dict__["_order_cache"]

    def _compute_order_column(self) -> str | None:
        return None

    @property
    def preserves_order(self) -> bool:
        """Whether the operator's output preserves its input order."""
        return False

    def children(self) -> list["XtraOp"]:
        return []

    def column(self, name: str) -> XtraColumn:
        return self._colmap()[name]

    def has_column(self, name: str) -> bool:
        return name in self._colmap()

    @property
    def visible_columns(self) -> list[XtraColumn]:
        return [c for c in self.columns if not c.implicit]


@dataclass
class XtraGet(XtraOp):
    """Scan of a backend relation (table, view, or temp table)."""

    table: str
    output: list[XtraColumn]
    ordcol: str | None = ORDCOL
    keys: list[str] = field(default_factory=list)

    @classmethod
    def shared(cls, table: str, output: list[XtraColumn], colmap: dict,
               ordcol: str | None, keys: list[str]) -> XtraGet:
        """A scan whose column list and name map are shared with every
        other scan of the same relation description (neither is mutated),
        so binding a wide table costs nothing per column."""
        get = cls(table, output, ordcol=ordcol, keys=keys)
        get.__dict__["_colmap_cache"] = colmap
        return get

    def _compute_columns(self) -> list[XtraColumn]:
        return self.output

    def _compute_order_column(self) -> str | None:
        return self.ordcol

    @property
    def preserves_order(self) -> bool:
        return True


@dataclass
class XtraConstTable(XtraOp):
    """An inline table of literal rows (from Q table literals)."""

    output: list[XtraColumn]
    rows: list[list]  # raw SQL values

    def _compute_columns(self) -> list[XtraColumn]:
        return self.output

    def _compute_order_column(self) -> str | None:
        for col in self.output:
            if col.implicit:
                return col.name
        return None

    @property
    def preserves_order(self) -> bool:
        return True


@dataclass
class XtraProject(XtraOp):
    """Projection: named scalar expressions over the child."""

    child: XtraOp
    projections: list[tuple[str, Scalar]]

    def _compute_columns(self) -> list[XtraColumn]:
        out = []
        child_ord = self.child.order_column
        for name, scalar in self.projections:
            out.append(
                XtraColumn(
                    name,
                    scalar.sql_type,
                    scalar.nullable,
                    implicit=(name == child_ord or name == ORDCOL),
                )
            )
        return out

    def _compute_order_column(self) -> str | None:
        child_ord = self.child.order_column
        for name, __ in self.projections:
            if name == child_ord or name == ORDCOL:
                return name
        return None

    @property
    def preserves_order(self) -> bool:
        return True

    def children(self):
        return [self.child]


@dataclass
class XtraFilter(XtraOp):
    """Row filter.  Preserves order and columns."""

    child: XtraOp
    predicate: Scalar

    def _compute_columns(self) -> list[XtraColumn]:
        return self.child.columns

    def _compute_order_column(self) -> str | None:
        return self.child.order_column

    @property
    def preserves_order(self) -> bool:
        return True

    def children(self):
        return [self.child]


@dataclass
class XtraJoin(XtraOp):
    """Join; ``kind`` in {'inner', 'left', 'cross'}.

    Column names are prefixed when both sides expose the same name; the
    binder pre-renames to avoid that, so here we simply concatenate.
    """

    kind: str
    left: XtraOp
    right: XtraOp
    condition: Scalar | None = None

    def _compute_columns(self) -> list[XtraColumn]:
        right_cols = [
            XtraColumn(c.name, c.sql_type, True, c.implicit)
            if self.kind == "left"
            else c
            for c in self.right.columns
        ]
        return self.left.columns + right_cols

    def _compute_order_column(self) -> str | None:
        return self.left.order_column

    @property
    def preserves_order(self) -> bool:
        return False  # joins may duplicate/reorder; order restored via sort

    def children(self):
        return [self.left, self.right]


@dataclass
class XtraGroupAgg(XtraOp):
    """Grouped aggregation (or scalar aggregation when no keys)."""

    child: XtraOp
    group_keys: list[tuple[str, Scalar]]
    aggregates: list[tuple[str, Scalar]]

    def _compute_columns(self) -> list[XtraColumn]:
        out = [
            XtraColumn(name, scalar.sql_type, scalar.nullable)
            for name, scalar in self.group_keys
        ]
        out += [
            XtraColumn(name, scalar.sql_type, True)
            for name, scalar in self.aggregates
        ]
        return out

    def _compute_order_column(self) -> str | None:
        return None  # aggregation destroys the implicit order

    @property
    def preserves_order(self) -> bool:
        return False

    def children(self):
        return [self.child]

    @property
    def is_scalar_agg(self) -> bool:
        return not self.group_keys


@dataclass
class XtraWindow(XtraOp):
    """Extend the child with computed window columns."""

    child: XtraOp
    windows: list[tuple[str, Scalar]]  # (new column name, SWindow scalar)

    def _compute_columns(self) -> list[XtraColumn]:
        extra = [
            XtraColumn(name, scalar.sql_type, True)
            for name, scalar in self.windows
        ]
        return self.child.columns + extra

    def _compute_order_column(self) -> str | None:
        return self.child.order_column

    @property
    def preserves_order(self) -> bool:
        return True

    def children(self):
        return [self.child]


@dataclass
class XtraSort(XtraOp):
    """Explicit sort; establishes order by the named expressions."""

    child: XtraOp
    sort_items: list[tuple[Scalar, bool]]  # (expr, descending)

    def _compute_columns(self) -> list[XtraColumn]:
        return self.child.columns

    def _compute_order_column(self) -> str | None:
        items = self.sort_items
        if len(items) == 1 and isinstance(items[0][0], SColRef):
            return items[0][0].name
        return self.child.order_column

    @property
    def preserves_order(self) -> bool:
        return True

    def children(self):
        return [self.child]


@dataclass
class XtraLimit(XtraOp):
    child: XtraOp
    count: int
    offset: int = 0

    def _compute_columns(self) -> list[XtraColumn]:
        return self.child.columns

    def _compute_order_column(self) -> str | None:
        return self.child.order_column

    @property
    def preserves_order(self) -> bool:
        return True

    def children(self):
        return [self.child]


@dataclass
class XtraUnionAll(XtraOp):
    """UNION ALL; columns follow the left input."""

    left: XtraOp
    right: XtraOp

    def _compute_columns(self) -> list[XtraColumn]:
        return [
            XtraColumn(c.name, c.sql_type, True, c.implicit)
            for c in self.left.columns
        ]

    @property
    def preserves_order(self) -> bool:
        return False

    def children(self):
        return [self.left, self.right]


@dataclass
class XtraDistinct(XtraOp):
    child: XtraOp

    def _compute_columns(self) -> list[XtraColumn]:
        return self.child.columns

    def _compute_order_column(self) -> str | None:
        return None

    def children(self):
        return [self.child]


def walk(op: XtraOp):
    """Depth-first pre-order traversal of a relational tree."""
    yield op
    for child in op.children():
        yield from walk(child)


def tree_description(op: XtraOp, indent: int = 0) -> str:
    """Readable plan rendering for diagnostics and docs."""
    label = type(op).__name__.replace("Xtra", "xtra_").lower()
    extras = ""
    if isinstance(op, XtraGet):
        extras = f"({op.table})"
    elif isinstance(op, XtraJoin):
        extras = f"({op.kind})"
    elif isinstance(op, XtraGroupAgg):
        keys = [name for name, __ in op.group_keys]
        extras = f"(by {', '.join(keys)})" if keys else "(scalar)"
    line = "  " * indent + label + extras
    lines = [line]
    for child in op.children():
        lines.append(tree_description(child, indent + 1))
    return "\n".join(lines)
