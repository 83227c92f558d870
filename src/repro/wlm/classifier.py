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
* ``analytical`` — everything else that only reads, Q's functional
  ``update``/``delete`` templates included;
* ``materializing`` — assignments of data and inserts/upserts.

Classification is syntactic over the Q AST, so it costs microseconds and
never touches the backend; given the session scope's ``lookup``, a
stored-function call bills by its body.  A multi-statement message bills
its *heaviest* statement's class.  The class is a billing label only:
the session bills it, admission and the translation-cache replay read
it, and lint rule HQ011 keeps it out of every other layer.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from repro.core import admin
from repro.core.scopes import Lookup, VarKind, VariableDef, called_function
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


def classify_statement(statement: ast.Node, lookup: Lookup | None = None) -> QueryClass:
    """Classify one top-level statement by its AST shape; with ``lookup``,
    a stored-function call by its body."""
    qclass = _classify(statement, lookup, frozenset())
    CLASSIFIED_TOTAL.inc(qclass=qclass.value)
    return qclass


def classify_program(
    statements: Iterable[ast.Node], lookup: Lookup | None = None
) -> QueryClass:
    """A message's class is its heaviest statement's class.

    A lambda assigned by an earlier statement of the message is laid
    over ``lookup`` as the stored function the session will have made
    of it by then, so ``f: {...}; f[1]`` bills ``f``'s body; a later
    assignment of data to the name hides it again."""
    assigned: dict[str, VariableDef | None] = {}

    def scoped(name: str) -> VariableDef | None:
        if name in assigned:
            return assigned[name]
        return lookup(name) if lookup is not None else None

    classes = []
    for statement in statements:
        classes.append(classify_statement(statement, scoped))
        if isinstance(statement, ast.Assign) and not statement.indices:
            value = statement.value
            assigned[statement.target] = (
                VariableDef(statement.target, VarKind.FUNCTION,
                            source=value.source)
                if isinstance(value, ast.Lambda) else None
            )
    return _heaviest(classes, QueryClass.ADMIN)


def _heaviest(classes: Iterable[QueryClass], floor: QueryClass) -> QueryClass:
    return max((floor, *classes), key=lambda qclass: qclass.weight)


def _classify(
    statement: ast.Node, lookup: Lookup | None, calling: frozenset
) -> QueryClass:
    if isinstance(statement, ast.Return):
        return _classify(statement.value, lookup, calling)
    if isinstance(statement, ast.Assign):
        # storing a function is scope bookkeeping; storing data is not
        if isinstance(statement.value, ast.Lambda):
            return QueryClass.ADMIN
        return QueryClass.MATERIALIZING
    if isinstance(statement, ast.BinOp) and statement.op in ("insert", "upsert"):
        return QueryClass.MATERIALIZING
    function = called_function(statement, lookup) if lookup else None
    if function is not None:
        return _classify_call(statement, function, lookup, calling)
    if admin.match(statement) is not None:
        return QueryClass.ADMIN
    template = _principal_template(statement)
    if template is not None:
        if _is_point_lookup(template):
            return QueryClass.POINT_LOOKUP
        return QueryClass.ANALYTICAL
    if _touches_templates(statement):
        return QueryClass.ANALYTICAL
    # scalar arithmetic, literals, variable reads: no backend scan
    return QueryClass.POINT_LOOKUP


def _classify_call(statement: ast.Apply, function: VariableDef, lookup: Lookup,
                   calling: frozenset) -> QueryClass:
    """The heaviest of the stored body's statements (re-parsed as the
    session runs them) and the arguments; never ``admin``, since the
    session runs the call.  A recursive call bills ``analytical``."""
    if function.name in calling:
        return QueryClass.ANALYTICAL
    calling = calling | {function.name}
    body = function.function_lambda().body
    parts = body + [arg for arg in statement.args if arg is not None]
    classes = (_classify(part, lookup, calling) for part in parts)
    return _heaviest(classes, QueryClass.POINT_LOOKUP)


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
