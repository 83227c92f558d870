"""Schema mapping and data movement — the paper's stated future work.

    "We consider adding tools that perform data movement and the mapping
    of schemas in the future; we expect that development to be greatly
    simplified by Hyper-Q's capabilities." (paper Section 1)

``DataMover`` migrates tables from a kdb+-style source (the reference
interpreter, or any object exposing named Q tables) into a PG-compatible
backend reachable through a :class:`~repro.core.metadata.BackendPort`:

1. **schema mapping** — each Q column type maps to the PG type of its
   :class:`~repro.qlang.qtypes.QTypeSpec`, with the implicit ``ordcol``
   appended (the report records every mapping and the spec's degradation
   note, e.g. ``month`` -> first-of-month ``date``, ``minute`` -> ``time``);
2. **data movement** — each column goes through its type's one Q -> SQL
   value conversion, the one the loader and the binder apply, and lands
   as the serializer's typed literals in batched ``INSERT`` statements
   through the backend port (so the same code path works against the
   in-process engine and a remote PG-wire server);
3. **verification** — row counts and, optionally, a side-by-side spot
   check of ``select from t`` through a Hyper-Q session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metadata import BackendPort, MetadataInterface
from repro.core.serializer import quote_ident, sql_literal
from repro.errors import QTypeError
from repro.qlang.values import QKeyedTable, QTable, QVector
from repro.sqlengine.types import SqlType


@dataclass
class ColumnMapping:
    name: str
    q_type: str
    sql_type: str
    note: str | None = None


@dataclass
class TableReport:
    table: str
    rows_moved: int
    columns: list[ColumnMapping]
    keys: list[str] = field(default_factory=list)
    verified: bool = False


@dataclass
class MigrationReport:
    tables: list[TableReport] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(t.rows_moved for t in self.tables)

    def summary(self) -> str:
        lines = [
            f"migrated {len(self.tables)} tables, {self.total_rows} rows"
        ]
        for table in self.tables:
            notes = [
                f"{c.name}: {c.note}" for c in table.columns if c.note
            ]
            status = "verified" if table.verified else "moved"
            keyed = f" (keyed on {', '.join(table.keys)})" if table.keys else ""
            lines.append(
                f"  {table.table}{keyed}: {table.rows_moved} rows, "
                f"{len(table.columns)} columns [{status}]"
            )
            for note in notes:
                lines.append(f"    note: {note}")
        return "\n".join(lines)


class DataMover:
    """Moves Q tables into a PG-compatible backend through a port."""

    def __init__(
        self,
        backend: BackendPort,
        mdi: MetadataInterface | None = None,
        batch_rows: int = 500,
    ):
        self.backend = backend
        self.mdi = mdi
        self.batch_rows = batch_rows

    # -- public API -----------------------------------------------------------

    def migrate(
        self,
        tables: dict[str, QTable | QKeyedTable],
        verify_with=None,
        replace: bool = True,
    ) -> MigrationReport:
        """Create-and-load every table; optionally verify via a session.

        ``verify_with`` is a callable ``(name) -> bool`` (e.g. a
        side-by-side check); when omitted only row counts are verified.
        """
        report = MigrationReport()
        for name, table in tables.items():
            report.tables.append(
                self.migrate_table(name, table, verify_with, replace)
            )
        return report

    def migrate_table(
        self, name: str, table: QTable | QKeyedTable, verify_with=None,
        replace: bool = True,
    ) -> TableReport:
        keys: list[str] = []
        if isinstance(table, QKeyedTable):
            keys = table.key_columns
            table = table.unkey()
        if not isinstance(table, QTable):
            raise QTypeError(f"{name!r} is not a table")

        mappings = self._map_schema(table)
        if replace:
            self.backend.run_sql(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        self._create_table(name, mappings)
        moved = self._move_rows(name, table, mappings)
        if self.mdi is not None:
            if keys:
                self.mdi.annotate_keys(name, keys)
            else:
                self.mdi.invalidate(name)

        verified = self._verify_counts(name, len(table))
        if verified and verify_with is not None:
            verified = bool(verify_with(name))
        return TableReport(name, moved, mappings, keys=keys, verified=verified)

    # -- schema mapping ----------------------------------------------------------

    @staticmethod
    def _map_schema(table: QTable) -> list[ColumnMapping]:
        mappings = []
        for name, column in zip(table.columns, table.data):
            if not isinstance(column, QVector):
                raise QTypeError(
                    f"column {name!r} is a general list; only typed vectors "
                    f"can be moved"
                )
            spec = column.qtype.spec
            mappings.append(
                ColumnMapping(
                    name, column.qtype.name.lower(), spec.sql.value, spec.note
                )
            )
        mappings.append(
            ColumnMapping("ordcol", "implicit order", SqlType.BIGINT.value)
        )
        return mappings

    def _create_table(self, name: str, mappings: list[ColumnMapping]) -> None:
        columns_sql = ", ".join(
            f"{quote_ident(m.name)} {m.sql_type}" for m in mappings
        )
        self.backend.run_sql(
            f"CREATE TABLE {quote_ident(name)} ({columns_sql})"
        )

    # -- data movement --------------------------------------------------------------

    def _move_rows(
        self, name: str, table: QTable, mappings: list[ColumnMapping]
    ) -> int:
        column_list = ", ".join(quote_ident(m.name) for m in mappings)
        literals = [
            [sql_literal(value, column.qtype.spec.sql)
             for value in column.qtype.sql_values(column.items)]
            for column in table.data
        ]
        moved = 0
        n = len(table)
        for start in range(0, n, self.batch_rows):
            end = min(start + self.batch_rows, n)
            values = [  # the last cell is the ordcol
                "(" + ", ".join([*(cells[i] for cells in literals), str(i)]) + ")"
                for i in range(start, end)
            ]
            if values:
                self.backend.run_sql(
                    f"INSERT INTO {quote_ident(name)} ({column_list}) "
                    f"VALUES {', '.join(values)}"
                )
                moved += end - start
        return moved

    # -- verification ------------------------------------------------------------------

    def _verify_counts(self, name: str, expected: int) -> bool:
        result = self.backend.run_sql(
            f"SELECT count(*) FROM {quote_ident(name)}"
        )
        return result.scalar() == expected
