"""Catalog for the SQL engine: tables, temp tables, views, pg_catalog.

The metadata interface of Hyper-Q (paper Section 3.2.3) resolves Q variable
references "by executing a query against PG catalog".  To support that we
emulate the relevant slice of ``pg_catalog``/``information_schema`` as
virtual tables generated from the live catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlCatalogError
from repro.sqlengine.types import SqlType


@dataclass
class Column:
    name: str
    sql_type: SqlType
    type_text: str = ""

    def __post_init__(self):
        if not self.type_text:
            self.type_text = self.sql_type.value


@dataclass
class Table:
    """A heap table stored column-major: ``data[i]`` holds column ``i``'s
    values, one per row, and every list is ``row_count`` long.

    The lists belong to the table.  No query result shares one, so a
    write may change them in place (INSERT appends, UPDATE assigns) or
    replace them (DELETE, TRUNCATE).
    """

    name: str
    columns: list[Column]
    data: list[list] = field(default_factory=list)
    temporary: bool = False

    def __post_init__(self):
        if not self.data:
            self.data = [[] for __ in self.columns]

    @property
    def row_count(self) -> int:
        return len(self.data[0]) if self.data else 0

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SqlCatalogError(f"column {name!r} does not exist in {self.name!r}")

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]


@dataclass
class View:
    name: str
    query: object  # sqlast.Select
    sql: str = ""


class Catalog:
    """Schema-lite catalog: one public namespace plus a temp namespace.

    Temporary tables shadow permanent ones with the same name, matching
    PostgreSQL's search-path behaviour for the ``pg_temp`` schema.
    """

    def __init__(self):
        self.tables: dict[str, Table] = {}
        self.temp_tables: dict[str, Table] = {}
        self.views: dict[str, View] = {}
        #: bumped on every DDL change; used by Hyper-Q's metadata cache
        self.version = 0

    # -- lookups ---------------------------------------------------------------

    def resolve(self, name: str, schema: str | None = None) -> Table | View:
        if schema in ("pg_catalog", "information_schema"):
            return self._system_table(schema, name)
        if name in self.temp_tables:
            return self.temp_tables[name]
        if name in self.tables:
            return self.tables[name]
        if name in self.views:
            return self.views[name]
        if name.startswith("pg_") or name in _SYSTEM_TABLES:
            return self._system_table("pg_catalog", name)
        raise SqlCatalogError(f'relation "{name}" does not exist')

    def table(self, name: str) -> Table:
        relation = self.resolve(name)
        if not isinstance(relation, Table):
            raise SqlCatalogError(f"{name!r} is a view, not a table")
        return relation

    def exists(self, name: str) -> bool:
        return (
            name in self.tables or name in self.temp_tables or name in self.views
        )

    # -- DDL ---------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[Column],
        temporary: bool = False,
        if_not_exists: bool = False,
    ) -> Table:
        namespace = self.temp_tables if temporary else self.tables
        if name in namespace:
            if if_not_exists:
                return namespace[name]
            raise SqlCatalogError(f'relation "{name}" already exists')
        table = Table(name, list(columns), temporary=temporary)
        namespace[name] = table
        self.version += 1
        return table

    def create_view(self, name: str, query, sql: str = "", or_replace: bool = False):
        if self.exists(name) and not (or_replace and name in self.views):
            raise SqlCatalogError(f'relation "{name}" already exists')
        self.views[name] = View(name, query, sql)
        self.version += 1

    def drop(self, name: str, if_exists: bool = False, is_view: bool = False) -> None:
        namespaces = (
            [self.views] if is_view else [self.temp_tables, self.tables, self.views]
        )
        for namespace in namespaces:
            if name in namespace:
                del namespace[name]
                self.version += 1
                return
        if not if_exists:
            raise SqlCatalogError(f'relation "{name}" does not exist')

    def drop_temp_tables(self) -> None:
        """End-of-session cleanup, as PG does for the pg_temp schema."""
        if self.temp_tables:
            self.temp_tables.clear()
            self.version += 1

    # -- system catalog emulation -------------------------------------------------

    def _system_table(self, schema: str, name: str) -> Table:
        builder = _SYSTEM_TABLES.get(name)
        if builder is None:
            raise SqlCatalogError(f'system relation "{schema}.{name}" is not emulated')
        return builder(self)


def _pg_tables(catalog: Catalog) -> Table:
    columns = [
        Column("schemaname", SqlType.TEXT),
        Column("tablename", SqlType.TEXT),
    ]
    rows = [["public", name] for name in sorted(catalog.tables)]
    rows += [["pg_temp", name] for name in sorted(catalog.temp_tables)]
    return _virtual("pg_tables", columns, rows)


def _pg_views(catalog: Catalog) -> Table:
    columns = [
        Column("schemaname", SqlType.TEXT),
        Column("viewname", SqlType.TEXT),
        Column("definition", SqlType.TEXT),
    ]
    rows = [["public", name, view.sql] for name, view in sorted(catalog.views.items())]
    return _virtual("pg_views", columns, rows)


def _columns_view(catalog: Catalog) -> Table:
    columns = [
        Column("table_schema", SqlType.TEXT),
        Column("table_name", SqlType.TEXT),
        Column("column_name", SqlType.TEXT),
        Column("ordinal_position", SqlType.INTEGER),
        Column("data_type", SqlType.TEXT),
    ]
    rows: list[list] = []
    for schema, namespace in (
        ("public", catalog.tables),
        ("pg_temp", catalog.temp_tables),
    ):
        for name in sorted(namespace):
            for i, col in enumerate(namespace[name].columns, start=1):
                rows.append([schema, name, col.name, i, col.type_text])
    return _virtual("columns", columns, rows)


def _virtual(name: str, columns: list[Column], rows: list[list]) -> Table:
    return Table(name, columns, [list(values) for values in zip(*rows)])


_SYSTEM_TABLES = {
    "pg_tables": _pg_tables,
    "pg_views": _pg_views,
    "columns": _columns_view,
}
