"""Console-style formatting of Q values.

Used by ``string``, by error messages, and by the example scripts to show
results the way a kdb+ console would (approximately — exact console quirks
like column padding widths are not part of the reproduction contract).
"""

from __future__ import annotations

import math

from repro.qlang.lexer import date_from_days
from repro.qlang.qtypes import QType
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QLambda,
    QList,
    QTable,
    QValue,
    QVector,
)


def format_atom_raw(atom: QAtom) -> str:
    """Format an atom's payload without any quoting/backtick decoration."""
    qtype, raw = atom.qtype, atom.value
    if atom.is_null:
        return qtype.spec.null_literal
    if qtype == QType.BOOLEAN:
        return "1" if raw else "0"
    if qtype == QType.SYMBOL or qtype == QType.CHAR:
        return str(raw)
    if qtype == QType.DATE:
        y, m, d = date_from_days(raw)
        return f"{y:04d}.{m:02d}.{d:02d}"
    if qtype == QType.MONTH:
        return f"{2000 + raw // 12:04d}.{raw % 12 + 1:02d}m"
    if qtype == QType.TIME:
        ms = raw % 1000
        s = raw // 1000
        return f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}.{ms:03d}"
    if qtype == QType.MINUTE:
        return f"{raw // 60:02d}:{raw % 60:02d}"
    if qtype == QType.SECOND:
        return f"{raw // 3600:02d}:{raw % 3600 // 60:02d}:{raw % 60:02d}"
    if qtype == QType.TIMESTAMP:
        days, nanos = divmod(raw, 86_400_000_000_000)
        y, m, d = date_from_days(days)
        s, frac = divmod(nanos, 1_000_000_000)
        return (
            f"{y:04d}.{m:02d}.{d:02d}D{s // 3600:02d}:{s % 3600 // 60:02d}:"
            f"{s % 60:02d}.{frac:09d}"
        )
    if qtype == QType.TIMESPAN:
        days, nanos = divmod(raw, 86_400_000_000_000)
        s, frac = divmod(nanos, 1_000_000_000)
        return (
            f"{days}D{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}."
            f"{frac:09d}"
        )
    if isinstance(raw, float):
        if math.isinf(raw):
            return "0w" if raw > 0 else "-0w"
        if raw == int(raw) and abs(raw) < 1e15:
            return f"{raw:g}"
        return f"{raw:g}"
    return str(raw)


def format_value(value: QValue, max_rows: int = 20) -> str:
    """Format any Q value in an approximate q-console style."""
    if isinstance(value, QAtom):
        return _format_atom(value)
    if isinstance(value, QVector):
        return _format_vector(value)
    if isinstance(value, QList):
        parts = [format_value(item, max_rows) for item in value.items]
        return "(" + ";".join(parts) + ")"
    if isinstance(value, QDict):
        key_txt = format_value(value.keys, max_rows)
        value_txt = format_value(value.values, max_rows)
        return f"{key_txt}!{value_txt}"
    if isinstance(value, QTable):
        return _format_table(value, max_rows)
    if isinstance(value, QKeyedTable):
        return (
            _format_table(value.key, max_rows)
            + "  |  "
            + _format_table(value.value, max_rows)
        )
    if isinstance(value, QLambda):
        return value.source or "{...}"
    return repr(value)


def _format_atom(atom: QAtom) -> str:
    text = format_atom_raw(atom)
    if atom.qtype == QType.SYMBOL and not atom.is_null:
        return f"`{text}"
    if atom.qtype == QType.CHAR:
        return f'"{text}"'
    if atom.qtype == QType.BOOLEAN:
        return text + "b"
    return text if atom.is_null else text + _suffix(atom.qtype)


def _format_vector(vector: QVector) -> str:
    if len(vector.items) == 1:
        # q renders singleton vectors with the enlist comma (",7") so the
        # text round-trips as a list, not an atom
        return "," + _format_atom(vector.atom_at(0))
    if vector.qtype == QType.CHAR:
        return '"' + "".join(vector.items) + '"'
    if vector.qtype == QType.SYMBOL:
        return "".join(f"`{s}" for s in vector.items) or "`$()"
    if vector.qtype == QType.BOOLEAN:
        return "".join("1" if b else "0" for b in vector.items) + "b"
    parts = [format_atom_raw(QAtom(vector.qtype, raw)) for raw in vector.items]
    if not parts:
        return f"`{vector.qtype.name.lower()}$()"
    return " ".join(parts) + _suffix(vector.qtype)


def _suffix(qtype: QType) -> str:
    """The type char q appends to a number the lexer would otherwise read
    as a long or a float."""
    return qtype.char if qtype in (QType.SHORT, QType.INT, QType.REAL) else ""


def _format_table(table: QTable, max_rows: int) -> str:
    header = list(table.columns)
    rows: list[list[str]] = []
    shown = min(len(table), max_rows)
    for i in range(shown):
        row = []
        for col in table.data:
            cell = col.atom_at(i) if isinstance(col, QVector) else col.items[i]
            if isinstance(cell, QAtom):
                row.append(format_atom_raw(cell))
            else:
                row.append(format_value(cell))
        rows.append(row)
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = [
        " ".join(h.ljust(w) for h, w in zip(header, widths)),
        "-" * (sum(widths) + len(widths) - 1),
    ]
    for row in rows:
        lines.append(" ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if len(table) > shown:
        lines.append("..")
    return "\n".join(lines)
