"""Engine facade: parse and execute SQL text against a catalog.

This is the in-process stand-in for the Greenplum/PostgreSQL backend the
paper deploys Hyper-Q against.  Like kdb+ (and unlike a real MPP), it
executes one statement at a time; the PG-wire server in
:mod:`repro.server.pgserver` serializes concurrent clients on top of it.
"""

from __future__ import annotations

from repro.analysis.concurrency.locks import make_rlock
from repro.errors import SqlExecutionError
from repro.sqlengine import sqlast as sa
from repro.sqlengine.catalog import Catalog, Column, Table
from repro.sqlengine.executor import Executor, ResultSet
from repro.sqlengine.expr import Layout, RelColumn, compile_expr
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.types import cast_value


class Engine:
    """A PostgreSQL-compatible, in-memory SQL engine."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog or Catalog()
        self.executor = Executor(self.catalog)
        self._lock = make_rlock("sqlengine.engine")

    # -- public API -----------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Execute one or more ;-separated statements; return the last result."""
        results = self.execute_all(sql)
        return results[-1] if results else ResultSet([], [], command="EMPTY")

    def execute_all(self, sql: str) -> list[ResultSet]:
        statements = parse_sql(sql)
        results = []
        with self._lock:
            for statement in statements:
                results.append(self._run(statement))
        return results

    def create_table_from_columns(
        self, name: str, columns: list[Column], rows: list[list],
        temporary: bool = False,
    ) -> Table:
        """Bulk-load helper used by the workload loader."""
        with self._lock:
            table = self.catalog.create_table(name, columns, temporary=temporary)
            table.rows = [list(r) for r in rows]
            return table

    def end_session(self) -> None:
        """Drop temp tables, mirroring PG's end-of-session cleanup."""
        with self._lock:
            self.catalog.drop_temp_tables()

    # -- statement dispatch ------------------------------------------------------

    def _run(self, statement: sa.Statement) -> ResultSet:
        if isinstance(statement, sa.Select):
            return self.executor.execute_select(statement)
        if isinstance(statement, sa.CreateTable):
            self.catalog.create_table(
                statement.name,
                [Column(c.name, c.sql_type, c.type_text) for c in statement.columns],
                temporary=statement.temporary,
                if_not_exists=statement.if_not_exists,
            )
            return ResultSet([], [], command="CREATE TABLE")
        if isinstance(statement, sa.CreateTableAs):
            result = self.executor.execute_select(statement.query)
            table = self.catalog.create_table(
                statement.name, list(result.columns), temporary=statement.temporary
            )
            table.rows = [list(row) for row in result.rows]
            return ResultSet([], [], command=f"SELECT {len(result.rows)}")
        if isinstance(statement, sa.CreateView):
            self.catalog.create_view(
                statement.name, statement.query, or_replace=statement.or_replace
            )
            return ResultSet([], [], command="CREATE VIEW")
        if isinstance(statement, sa.Insert):
            return self._run_insert(statement)
        if isinstance(statement, sa.Delete):
            return self._run_delete(statement)
        if isinstance(statement, sa.Update):
            return self._run_update(statement)
        if isinstance(statement, sa.DropTable):
            self.catalog.drop(
                statement.name, if_exists=statement.if_exists,
                is_view=statement.is_view,
            )
            return ResultSet([], [], command="DROP")
        if isinstance(statement, sa.Truncate):
            self.catalog.table(statement.name).rows.clear()
            return ResultSet([], [], command="TRUNCATE")
        raise SqlExecutionError(f"unsupported statement {type(statement).__name__}")

    def _run_insert(self, statement: sa.Insert) -> ResultSet:
        table = self.catalog.table(statement.table)
        if statement.columns:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(table.columns)))
        incoming: list[list] = []
        if statement.rows is not None:
            layout = Layout([], executor=self.executor)
            for row_exprs in statement.rows:
                if len(row_exprs) != len(positions):
                    raise SqlExecutionError(
                        "INSERT value count does not match column count"
                    )
                incoming.append([compile_expr(e, layout)(()) for e in row_exprs])
        else:
            assert statement.query is not None
            result = self.executor.execute_select(statement.query)
            if result.columns and len(result.columns) != len(positions):
                raise SqlExecutionError(
                    "INSERT source column count does not match target"
                )
            incoming = [list(row) for row in result.rows]
        for values in incoming:
            new_row: list = [None] * len(table.columns)
            for pos, value in zip(positions, values):
                target_type = table.columns[pos].sql_type
                new_row[pos] = cast_value(value, target_type)
            table.rows.append(new_row)
        return ResultSet([], [], command=f"INSERT 0 {len(incoming)}")

    def _table_layout(self, table: Table) -> Layout:
        """The slots of a stored row; DML closures read the stored lists."""
        columns = [RelColumn(table.name, c.name, c.sql_type) for c in table.columns]
        return Layout(columns, executor=self.executor)

    def _run_delete(self, statement: sa.Delete) -> ResultSet:
        table = self.catalog.table(statement.table)
        if statement.where is None:
            removed = len(table.rows)
            table.rows.clear()
            return ResultSet([], [], command=f"DELETE {removed}")
        where = compile_expr(statement.where, self._table_layout(table))
        kept = [stored for stored in table.rows if where(stored) is not True]
        removed = len(table.rows) - len(kept)
        table.rows = kept
        return ResultSet([], [], command=f"DELETE {removed}")

    def _run_update(self, statement: sa.Update) -> ResultSet:
        table = self.catalog.table(statement.table)
        layout = self._table_layout(table)
        where = None
        if statement.where is not None:
            where = compile_expr(statement.where, layout)
        assignments = [
            (table.column_index(name), compile_expr(expr, layout))
            for name, expr in statement.assignments
        ]
        updated = 0
        for stored in table.rows:
            if where is not None and where(stored) is not True:
                continue
            # every assignment reads the row as it was before this update
            values = [value(stored) for __, value in assignments]
            for (pos, __), value in zip(assignments, values):
                stored[pos] = cast_value(value, table.columns[pos].sql_type)
            updated += 1
        return ResultSet([], [], command=f"UPDATE {updated}")
