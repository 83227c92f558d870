"""Load Q tables into the backend engine and the reference interpreter.

The paper assumes "all relevant data is loaded into the underlying systems
independently" (Section 1); this module is that independent loading path.
Each Q table lands in the SQL engine with an extra ``ordcol`` column
(0-based row number) carrying the implicit Q ordering, per the paper's
generated-SQL example.
"""

from __future__ import annotations

from repro.errors import QTypeError
from repro.qlang.interp import Interpreter
from repro.qlang.values import QKeyedTable, QTable, QVector
from repro.sqlengine.catalog import Column
from repro.sqlengine.engine import Engine
from repro.sqlengine.types import SqlType


def qtable_to_columns(
    table: QTable | QKeyedTable,
) -> tuple[list[str], list[Column], list[list]]:
    """Convert a Q table to SQL (keys, columns, column data), adding
    ``ordcol``; the column data is one value list per column.

    The implicit order column is assigned here — *before* any partition
    split — so sharded loads carry globally unique row numbers and an
    ordered merge reconstructs exactly the single-node row order.
    """
    keys: list[str] = []
    if isinstance(table, QKeyedTable):
        keys = table.key_columns
        table = table.unkey()
    if not isinstance(table, QTable):
        raise QTypeError("load_table expects a Q table")

    columns: list[Column] = []
    raw_columns: list[list] = []
    for col_name, col in zip(table.columns, table.data):
        if not isinstance(col, QVector):
            raise QTypeError(
                f"column {col_name!r} is a general list; only typed vectors load"
            )
        columns.append(Column(col_name, col.qtype.spec.sql))
        raw_columns.append(col.qtype.sql_values(col.items))

    columns.append(Column("ordcol", SqlType.BIGINT))
    raw_columns.append(list(range(len(table))))
    return keys, columns, raw_columns


def load_table(
    engine: Engine,
    name: str,
    table: QTable | QKeyedTable,
    mdi=None,
) -> None:
    """Create ``name`` in the engine from a Q table, adding ``ordcol``.

    When ``mdi`` is given and the table is keyed, the key columns are
    annotated in the metadata interface (PG has no keyed-table notion).
    """
    keys, columns, column_data = qtable_to_columns(table)
    if engine.catalog.exists(name):
        engine.catalog.drop(name)
    engine.create_table_from_columns(name, columns, column_data)
    if mdi is not None:
        if keys:
            mdi.annotate_keys(name, keys)
        else:
            mdi.invalidate(name)


def load_q_source(
    engine: Engine,
    interpreter: Interpreter,
    source: str,
    tables: list[str],
    mdi=None,
) -> None:
    """Evaluate Q table definitions on the reference interpreter, then
    load the named globals into the SQL engine — the standard setup for
    side-by-side tests."""
    interpreter.eval_text(source)
    for name in tables:
        value = interpreter.get_global(name)
        if value is None:
            raise QTypeError(f"Q source did not define table {name!r}")
        if not isinstance(value, (QTable, QKeyedTable)):
            raise QTypeError(f"global {name!r} is not a table")
        load_table(engine, name, value, mdi=mdi)
