"""The qcheck rule framework: findings, rules, and the analyzer driver.

The paper's binder is deliberately untyped ("lightweight parser, no
typing", Section 3), so a bad query normally surfaces deep inside
bind/serialize — or as a behavioral divergence at the backend.  qcheck
vets the Q AST *before* binding: each :class:`Rule` walks one top-level
statement and reports :class:`Finding` records without executing
anything.  The same ``Finding`` shape is shared with the repo-level lint
rules (:mod:`repro.analysis.boundaries`) so Q-level and Python-level diagnostics
render and aggregate identically.

Rules register themselves with :func:`register` at import time — the same
discovery pattern as the Xformer rules — and :func:`default_rules` returns
one fresh instance of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

from repro.core.metadata import MetadataInterface
from repro.core.scopes import Scope, VarKind
from repro.errors import QError
from repro.qlang import ast
from repro.qlang.parser import parse


class Severity(IntEnum):
    """Ordered severities; CI fails only on ERROR findings."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass
class Finding:
    """One diagnostic, from a Q rule (``QC0xx``) or a repo rule (``HQ00x``).

    ``pos`` is a source offset for Q findings; ``path``/``line`` locate
    repo-lint findings.  ``fatal`` marks QC004 findings the analyze pass
    escalates to :class:`repro.errors.UntranslatableError`.
    """

    code: str
    message: str
    severity: Severity = Severity.WARNING
    rule: str = ""
    pos: int = -1
    line: int = -1
    path: str = ""
    category: str = ""
    fatal: bool = False

    def render(self) -> str:
        where = ""
        if self.path:
            where = f"{self.path}:{self.line if self.line >= 0 else '?'}: "
        elif self.pos >= 0:
            where = f"pos {self.pos}: "
        return f"{where}{self.code} [{self.severity.label}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "rule": self.rule,
            "pos": self.pos,
            "line": self.line,
            "path": self.path,
            "category": self.category,
        }


def iter_child_nodes(node: ast.Node) -> Iterable[ast.Node]:
    """The direct AST children of ``node`` (skipping None / non-nodes)."""
    if isinstance(node, ast.UnOp):
        yield node.operand
    elif isinstance(node, ast.BinOp):
        yield node.left
        yield node.right
    elif isinstance(node, ast.Apply):
        if isinstance(node.func, ast.Node):
            yield node.func
        for arg in node.args:
            if arg is not None:
                yield arg
    elif isinstance(node, ast.AdverbApply):
        if isinstance(node.verb, ast.Node):
            yield node.verb
    elif isinstance(node, ast.Assign):
        yield from node.indices
        yield node.value
    elif isinstance(node, ast.Lambda):
        yield from node.body
    elif isinstance(node, ast.Cond):
        yield from node.branches
    elif isinstance(node, ast.ListExpr):
        yield from node.items
    elif isinstance(node, ast.TableExpr):
        for __, expr in node.key_columns:
            yield expr
        for __, expr in node.columns:
            yield expr
    elif isinstance(node, ast.Template):
        for spec in node.columns:
            yield spec.expr
        for spec in node.by:
            yield spec.expr
        yield node.source
        yield from node.where
        if node.limit is not None:
            yield node.limit
    elif isinstance(node, (ast.Return, ast.Signal)):
        yield node.value
    elif isinstance(node, ast.Statements):
        yield from node.statements


def walk_q(node: ast.Node) -> Iterable[ast.Node]:
    """Depth-first pre-order traversal of a Q AST."""
    yield node
    for child in iter_child_nodes(node):
        yield from walk_q(child)


@dataclass
class AnalysisContext:
    """What a rule may consult: scope chain, MDI, config, prior targets.

    ``declared`` accumulates assignment targets from earlier statements in
    the same message (and lambda parameters during descent) — names that
    *will* be bound by the time the statement executes, without the
    analyzer executing anything.
    """

    mdi: MetadataInterface | None = None
    scope: Scope | None = None
    config: object | None = None
    declared: set[str] = field(default_factory=set)

    def lookup(self, name: str):
        if self.scope is None:
            return None
        return self.scope.lookup(name)

    def table_columns(self, name: str) -> list[str] | None:
        """Data column names of a table-valued name, or None if unknown."""
        definition = self.lookup(name)
        if definition is not None:
            if definition.kind in (VarKind.TABLE, VarKind.VIEW):
                if definition.meta is not None:
                    return [c.name for c in definition.meta.data_columns]
                name = definition.relation or name
            else:
                return None
        if self.mdi is not None:
            meta = self.mdi.lookup_table(name)
            if meta is not None:
                return [c.name for c in meta.data_columns]
        return None

    def names_anything(self, name: str) -> bool:
        """Whether ``name`` resolves to *some* binding (any kind)."""
        if name in self.declared:
            return True
        if self.lookup(name) is not None:
            return True
        return self.mdi is not None and self.mdi.lookup_table(name) is not None


class Rule:
    """One qcheck rule; subclasses override :meth:`check`.

    ``check`` receives one top-level statement and the context; it must
    not mutate either (``ctx.declared`` is updated by the driver).
    """

    code = "QC000"
    name = "rule"
    purpose = ""
    default_severity = Severity.WARNING
    enabled = True

    def check(
        self, statement: ast.Node, ctx: AnalysisContext
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, message: str, *, pos: int = -1, **kw) -> Finding:
        kw.setdefault("severity", self.default_severity)
        return Finding(self.code, message, rule=self.name, pos=pos, **kw)


_RULES: list[type[Rule]] = []


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default registry."""
    _RULES.append(rule_class)
    return rule_class


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    from repro.analysis import qcheck  # noqa: F401  (registration import)

    return [rule_class() for rule_class in _RULES]


class QueryAnalyzer:
    """Runs the qcheck rules over Q source or parsed statements.

    Stateless across calls (like the pipeline, the active scope is passed
    per call), so one analyzer can serve a whole session or a whole batch
    corpus run.
    """

    def __init__(
        self,
        mdi: MetadataInterface | None = None,
        config: object | None = None,
        rules: list[Rule] | None = None,
    ):
        self.mdi = mdi
        self.config = config
        self.rules = rules if rules is not None else default_rules()

    def analyze_statement(
        self,
        statement: ast.Node,
        scope: Scope | None = None,
        declared: set[str] | None = None,
    ) -> list[Finding]:
        """Findings for one top-level statement."""
        ctx = AnalysisContext(
            mdi=self.mdi,
            scope=scope,
            config=self.config,
            declared=set(declared or ()),
        )
        findings: list[Finding] = []
        for rule in self.rules:
            if rule.enabled:
                findings.extend(rule.check(statement, ctx))
        return findings

    def analyze(
        self, node: ast.Node, scope: Scope | None = None
    ) -> list[Finding]:
        """Findings for a whole message (a :class:`ast.Statements`)."""
        statements = (
            node.statements if isinstance(node, ast.Statements) else [node]
        )
        findings: list[Finding] = []
        declared: set[str] = set()
        for statement in statements:
            findings.extend(
                self.analyze_statement(statement, scope, declared)
            )
            if isinstance(statement, ast.Assign):
                declared.add(statement.target)
        return findings

    def analyze_source(
        self, text: str, scope: Scope | None = None
    ) -> list[Finding]:
        """Parse ``text`` and analyze it; parse errors become QC000."""
        try:
            parsed = parse(text)
        except QError as exc:
            return [
                Finding(
                    "QC000",
                    f"parse error: {exc}",
                    severity=Severity.ERROR,
                    rule="parse",
                )
            ]
        return self.analyze(parsed, scope)
