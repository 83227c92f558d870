"""Hierarchy of variable scopes (paper Figure 3).

Hyper-Q resolves Q variable references through three scopes:

1. **local** — function-body variables; upserts never escape this scope;
2. **session** — variables defined at the top level of a session;
3. **server** — global variables, backed by the PG database; session
   variables are *promoted* to server variables when the session scope is
   destroyed.

A variable definition is one of: a backend TABLE (materialized, carries the
backing relation name), a SCALAR (a Q value held in the variable store —
the paper's "logical materialization" for scalars), a FUNCTION (stored as
plain source text, re-algebrized on every invocation — Section 4.3), or a
VIEW (logically materialized table definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.core.metadata import TableMeta
from repro.errors import TranslationError
from repro.qlang import ast
from repro.qlang.parser import parse
from repro.qlang.values import QValue


class VarKind(Enum):
    TABLE = "table"  # backed by a physical backend relation
    VIEW = "view"  # backed by a backend view (logical materialization)
    SCALAR = "scalar"  # a Q value held in Hyper-Q's variable store
    FUNCTION = "function"  # Q source text, interpreted on invocation


@dataclass
class VariableDef:
    name: str
    kind: VarKind
    #: backend relation name for TABLE/VIEW entries
    relation: str | None = None
    #: cached table metadata (columns, keys, ordcol)
    meta: TableMeta | None = None
    #: Q shape of a TABLE/VIEW's value ('vector', 'atom', ...); None = table
    shape: str | None = None
    #: Q value for SCALAR entries
    value: QValue | None = None
    #: source text for FUNCTION entries (the paper stores functions as text)
    source: str | None = None

    def function_lambda(self) -> ast.Lambda:
        """A FUNCTION's stored source, re-parsed (done on every call)."""
        statements = parse(self.source or "").statements
        if len(statements) != 1 or not isinstance(statements[0], ast.Lambda):
            raise TranslationError(
                f"stored function {self.name!r} failed to re-parse"
            )
        return statements[0]


#: a scope's ``lookup``: a name to its definition, or None
Lookup = Callable[[str], VariableDef | None]


def called_function(statement: ast.Node, lookup: Lookup) -> VariableDef | None:
    """The stored function ``f`` when ``statement`` is a call ``f[args]``
    and ``lookup`` resolves ``f`` to a FUNCTION, else None."""
    if isinstance(statement, ast.Apply) and isinstance(statement.func, ast.Name):
        definition = lookup(statement.func.name)
        if definition is not None and definition.kind == VarKind.FUNCTION:
            return definition
    return None


class Scope:
    """One level of the hierarchy; lookups fall through to the parent."""

    level_name = "scope"

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self._vars: dict[str, VariableDef] = {}

    def lookup(self, name: str) -> VariableDef | None:
        if name in self._vars:
            return self._vars[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def upsert(self, definition: VariableDef) -> None:
        """Define or redefine a variable *in this scope* (paper: local
        upserts never get promoted to higher scopes)."""
        self._vars[definition.name] = definition

    def delete(self, name: str) -> bool:
        return self._vars.pop(name, None) is not None

    def names(self) -> list[str]:
        return sorted(self._vars)

    def local_entries(self) -> dict[str, VariableDef]:
        return dict(self._vars)


class ServerScope(Scope):
    """Bottom of the hierarchy; global variables visible to all clients."""

    level_name = "server"

    def __init__(self):
        super().__init__(parent=None)


class SessionScope(Scope):
    """Session variables; promoted to the server scope on destruction."""

    level_name = "session"

    def __init__(self, server: ServerScope):
        super().__init__(parent=server)
        self.server = server

    def destroy(self) -> list[str]:
        """Promote session variables to the server scope (paper Section
        3.2.3: 'Session variables are promoted to global (server)
        variables ... as part of the session scope destruction')."""
        promoted = []
        for name, definition in self._vars.items():
            self.server.upsert(definition)
            promoted.append(name)
        self._vars.clear()
        return promoted


class LocalScope(Scope):
    """Function-body scope; shadows session/server, never promotes."""

    level_name = "local"

    def __init__(self, parent: Scope):
        super().__init__(parent=parent)
