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
from repro.sqlengine.executor import Executor, Frame, ResultSet
from repro.sqlengine.expr import (
    Layout,
    RelColumn,
    compile_expr,
    compile_filter,
    compile_vector,
)
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
        self, name: str, columns: list[Column], column_data: list[list],
        temporary: bool = False,
    ) -> Table:
        """Bulk-load ``column_data`` (one value list per column) as a new
        table; the table stores copies of the lists."""
        with self._lock:
            return self._create(name, columns, column_data, temporary)

    def _create(self, name: str, columns: list[Column],
                column_data: list[list], temporary: bool) -> Table:
        table = self.catalog.create_table(name, columns, temporary=temporary)
        if column_data:
            table.data = [list(values) for values in column_data]
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
            table = self._create(statement.name, list(result.columns),
                                 result.column_data, statement.temporary)
            return ResultSet([], [], command=f"SELECT {table.row_count}")
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
            table = self.catalog.table(statement.name)
            table.data = [[] for __ in table.columns]
            return ResultSet([], [], command="TRUNCATE")
        raise SqlExecutionError(f"unsupported statement {type(statement).__name__}")

    def _run_insert(self, statement: sa.Insert) -> ResultSet:
        table = self.catalog.table(statement.table)
        if statement.columns:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(table.columns)))
        if statement.rows is not None:
            layout = Layout([], executor=self.executor)
            incoming: list[list] = []
            for row_exprs in statement.rows:
                if len(row_exprs) != len(positions):
                    raise SqlExecutionError(
                        "INSERT value count does not match column count"
                    )
                incoming.append([compile_expr(e, layout)(()) for e in row_exprs])
            count = len(incoming)
            values = list(zip(*incoming)) or [()] * len(positions)
        else:
            assert statement.query is not None
            result = self.executor.execute_select(statement.query)
            if result.columns and len(result.columns) != len(positions):
                raise SqlExecutionError(
                    "INSERT source column count does not match target"
                )
            values = result.column_data
            count = len(values[0]) if values else 0
        # cast every value before appending any, so a failed cast leaves
        # the table as it was
        added = [[None] * count for __ in table.columns]
        for pos, column in zip(positions, values):
            target_type = table.columns[pos].sql_type
            added[pos] = [cast_value(value, target_type) for value in column]
        for stored, new in zip(table.data, added):
            stored.extend(new)
        return ResultSet([], [], command=f"INSERT 0 {count}")

    def _table_layout(self, table: Table) -> Layout:
        """The slots of a stored row: DML reads the table through a frame."""
        columns = [RelColumn(table.name, c.name, c.sql_type) for c in table.columns]
        return Layout(columns, executor=self.executor)

    def _run_delete(self, statement: sa.Delete) -> ResultSet:
        table = self.catalog.table(statement.table)
        if statement.where is None:
            removed = table.row_count
            table.data = [[] for __ in table.columns]
            return ResultSet([], [], command=f"DELETE {removed}")
        matching = compile_filter(statement.where, self._table_layout(table))
        doomed = set(matching(Frame.scan(table)))
        kept = [i for i in range(table.row_count) if i not in doomed]
        table.data = [[values[i] for i in kept] for values in table.data]
        return ResultSet([], [], command=f"DELETE {len(doomed)}")

    def _run_update(self, statement: sa.Update) -> ResultSet:
        table = self.catalog.table(statement.table)
        layout = self._table_layout(table)
        assignments = [
            (table.column_index(name), compile_vector(expr, layout))
            for name, expr in statement.assignments
        ]
        frame = Frame.scan(table)
        positions = range(table.row_count)
        if statement.where is not None:
            positions = compile_filter(statement.where, layout)(frame)
        # every assignment reads the rows as they were before this update
        selected = frame.take(positions)
        values = [(pos, value(selected)) for pos, value in assignments]
        for pos, column in values:
            stored, target_type = table.data[pos], table.columns[pos].sql_type
            for i, value in zip(positions, column):
                stored[i] = cast_value(value, target_type)
        return ResultSet([], [], command=f"UPDATE {len(positions)}")
