"""Query classification: which admission quota does a statement bill?

Workload management needs to know — *before* running anything — whether a
request is a metadata ping, a cheap keyed read, a scan-the-world
aggregation, or a statement that writes backend state.  The classes (in
ascending weight):

* ``admin`` — an admin verb, answered from Hyper-Q's own layers (the
  registry in :mod:`repro.core.admin`), or pure scope bookkeeping
  (function definitions);
* ``point_lookup`` — a ``select``/``exec`` whose where-clause pins a
  column to a literal (no grouping), or a backend-free scalar expression;
* ``analytical`` — everything else that only reads;
* ``materializing`` — assignments, inserts/upserts, ``update``/``delete``
  templates: statements that create or mutate backend relations.

Classification is purely syntactic over the Q AST (the same tree the
qcheck analysis pass walks), so it costs microseconds and never touches
the backend.  A multi-statement message bills the *heaviest* statement's
class — one admission decision per message.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from repro.core import admin
from repro.obs import metrics
from repro.qlang import ast

#: classification volume, labelled qclass=admin|point_lookup|...
CLASSIFIED_TOTAL = metrics.counter(
    "wlm_classified_total", "Statements classified, by query class"
)


class QueryClass(Enum):
    """Admission classes, ordered lightest to heaviest."""

    ADMIN = "admin"
    POINT_LOOKUP = "point_lookup"
    ANALYTICAL = "analytical"
    MATERIALIZING = "materializing"

    @property
    def weight(self) -> int:
        return _WEIGHTS[self]


_WEIGHTS = {
    QueryClass.ADMIN: 0,
    QueryClass.POINT_LOOKUP: 1,
    QueryClass.ANALYTICAL: 2,
    QueryClass.MATERIALIZING: 3,
}


def classify_statement(statement: ast.Node) -> QueryClass:
    """Classify one top-level statement by its AST shape."""
    qclass = _classify(statement)
    CLASSIFIED_TOTAL.inc(qclass=qclass.value)
    return qclass


def classify_program(statements: Iterable[ast.Node]) -> QueryClass:
    """A message's class is its heaviest statement's class."""
    heaviest = QueryClass.ADMIN
    for statement in statements:
        qclass = classify_statement(statement)
        if qclass.weight > heaviest.weight:
            heaviest = qclass
    return heaviest


def _classify(statement: ast.Node) -> QueryClass:
    if isinstance(statement, ast.Return):
        return _classify(statement.value)
    if isinstance(statement, ast.Assign):
        # storing a function is scope bookkeeping; storing data is not
        if isinstance(statement.value, ast.Lambda):
            return QueryClass.ADMIN
        return QueryClass.MATERIALIZING
    if isinstance(statement, ast.BinOp) and statement.op in (
        "insert",
        "upsert",
    ):
        return QueryClass.MATERIALIZING
    if admin.match(statement) is not None:
        return QueryClass.ADMIN
    template = _principal_template(statement)
    if template is not None:
        if template.kind in ("update", "delete"):
            return QueryClass.MATERIALIZING
        if _is_point_lookup(template):
            return QueryClass.POINT_LOOKUP
        return QueryClass.ANALYTICAL
    if _touches_templates(statement):
        return QueryClass.ANALYTICAL
    # scalar arithmetic, literals, variable reads: no backend scan
    return QueryClass.POINT_LOOKUP


def _principal_template(statement: ast.Node) -> ast.Template | None:
    """The outermost template driving the statement, unwrapping the
    aggregating prefixes (``count select ...``, ``exec sum ...``)."""
    node = statement
    while isinstance(node, (ast.UnOp, ast.Return)):
        node = node.operand if isinstance(node, ast.UnOp) else node.value
    return node if isinstance(node, ast.Template) else None


def _is_point_lookup(template: ast.Template) -> bool:
    """select/exec pinned to a literal key, ungrouped and unnested."""
    if template.kind not in ("select", "exec"):
        return False
    if template.by:
        return False
    if not isinstance(template.source, ast.Name):
        return False
    return any(_pins_column(conjunct) for conjunct in template.where)


def _pins_column(conjunct: ast.Node) -> bool:
    """``Column = literal`` (or ``literal = Column``) equality conjunct."""
    if not (isinstance(conjunct, ast.BinOp) and conjunct.op in ("=", "in")):
        return False
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.Name) and isinstance(right, ast.Literal):
        return True
    return isinstance(left, ast.Literal) and isinstance(right, ast.Name)


def _touches_templates(node: ast.Node) -> bool:
    """Whether any select/exec/update/delete template appears in the tree
    (conservative: such statements read backend data)."""
    if isinstance(node, ast.Template):
        return True
    for value in vars(node).values():
        candidates = value if isinstance(value, list) else [value]
        for item in candidates:
            if isinstance(item, tuple):
                item = item[1] if len(item) > 1 else None
            if isinstance(item, ast.ColumnSpec):
                item = item.expr
            if isinstance(item, ast.Node) and _touches_templates(item):
                return True
    return False
