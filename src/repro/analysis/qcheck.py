"""The qcheck rules (``QC001``–``QC007``).

Each rule statically inspects one top-level Q statement against the
session's scope hierarchy and the backend catalog (through the MDI) —
nothing is executed or bound.  Rules lean on the binder's own name tables
(:data:`_MONADIC_BINDINGS` etc.) so "what the translator supports" has a
single source of truth, and they bail out (report nothing) whenever a
source's schema cannot be derived statically: a silent pass is cheap, a
false positive poisons the whole report.
"""

from __future__ import annotations

from repro.analysis.framework import (
    AnalysisContext,
    Finding,
    Rule,
    Severity,
    iter_child_nodes,
    register,
    walk_q,
)
from repro.core.admin import VERBS
from repro.core.algebrizer.binder import (
    _AGGREGATE_NAMES,
    _MONADIC_BINDINGS,
    _UNIFORM_WINDOW_VERBS,
)
from repro.core.scopes import VarKind
from repro.qlang import ast
from repro.qlang.parser import INFIX_NAMES
from repro.qlang.values import QAtom

#: names the translator or the session's admin-verb registry accepts in
#: verb/function position without any scope binding (keyword verbs lex
#: as plain NAME tokens)
BUILTIN_VERBS = (
    set(_MONADIC_BINDINGS)
    | set(_AGGREGATE_NAMES)
    | set(_UNIFORM_WINDOW_VERBS)
    | set(INFIX_NAMES)
    | set(VERBS)
    | {"aj", "aj0", "ej", "where", "distinct", "til", "reverse", "string",
       "asc", "desc", "group", "ungroup", "key", "value", "type", "show",
       "enlist", "raze", "flip", "?"}
)

#: names valid in value position with no binding: the virtual row index
IMPLICIT_NAMES = {"i", "x", "y", "z"}

#: verbs whose result depends on the implicit row order
ORDER_DEPENDENT_VERBS = (
    set(_UNIFORM_WINDOW_VERBS)
    | {"mavg", "msum", "mmax", "mmin", "mcount", "mdev", "xprev"}
)

#: cast targets the binder can map to SQL (mirror of ``_bind_cast``)
SUPPORTED_CAST_TARGETS = {
    "long", "int", "short", "float", "real", "boolean", "symbol",
    "date", "time", "timestamp",
}

#: sentinel column set: "this template's schema is unknown — don't check"
_UNKNOWN = None


def template_output_names(template: ast.Template) -> list[str]:
    """Output column names of a template, q's inference rule included."""
    names = [
        spec.name or ast.infer_column_name(spec.expr)
        for spec in template.by
    ]
    names += [
        spec.name or ast.infer_column_name(spec.expr)
        for spec in template.columns
    ]
    return names


def source_columns(
    node: ast.Node, ctx: AnalysisContext, declared: set[str]
) -> list[str] | None:
    """Statically derived data columns of a ``from`` source, else None.

    None means "unknown" — callers must then skip column-level checks for
    that template (conservative bail-out, never a guess).
    """
    if isinstance(node, ast.Name):
        if node.name in declared:
            return None  # assigned earlier in this message; shape unknown
        return ctx.table_columns(node.name)
    if isinstance(node, ast.Template):
        if node.kind == "exec":
            return None
        base = source_columns(node.source, ctx, declared)
        if node.kind == "delete":
            if base is None:
                return None
            dropped = {
                spec.name or ast.infer_column_name(spec.expr)
                for spec in node.columns
            }
            return [c for c in base if c not in dropped]
        if node.kind == "update":
            if base is None:
                return None
            extra = [
                n for n in template_output_names(node) if n not in base
            ]
            return base + extra
        # select: explicit columns (plus by-keys) define the output;
        # a bare `select from t` passes the source schema through
        if node.columns or node.by:
            return template_output_names(node)
        return base
    if isinstance(node, ast.TableExpr):
        return [name for name, __ in node.key_columns] + [
            name for name, __ in node.columns
        ]
    if isinstance(node, ast.BinOp):
        if node.op in ("lj", "ij", "uj"):
            left = source_columns(node.left, ctx, declared)
            right = source_columns(node.right, ctx, declared)
            if left is None or right is None:
                return None
            return left + [c for c in right if c not in left]
        if node.op in ("xasc", "xdesc", "xkey", "xcol", "!"):
            return source_columns(node.right, ctx, declared)
    if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
        if node.func.name in ("aj", "aj0", "ej") and len(node.args) >= 3:
            sides = [
                source_columns(arg, ctx, declared)
                for arg in node.args[1:3]
                if arg is not None
            ]
            if len(sides) == 2 and all(s is not None for s in sides):
                left, right = sides
                return left + [c for c in right if c not in left]
            return None
        # indexing/application of a variable: shape unknown
        return None
    return None


@register
class UnboundNameRule(Rule):
    """QC001: a name resolves in no scope, no catalog, and no verb table.

    The binder discovers these one at a time at bind; statically we can
    report every unresolved reference up front, against the same scope
    hierarchy the binder will search (paper Figure 3).
    """

    code = "QC001"
    name = "unbound_name"
    purpose = "references that will fail scope/catalog resolution"
    default_severity = Severity.ERROR

    def check(self, statement, ctx):
        findings: list[Finding] = []
        self._visit(statement, ctx, set(ctx.declared), None, findings)
        return findings

    # ``columns``: names valid in the current template context, or None
    # outside templates; ``...`` ellipsis marks an *unknown* template
    # schema where column checks must be skipped entirely.
    def _visit(self, node, ctx, declared, columns, findings) -> None:
        if isinstance(node, ast.Name):
            self._check_name(node, ctx, declared, columns, findings)
            return
        if isinstance(node, ast.Assign):
            for index in node.indices:
                self._visit(index, ctx, declared, columns, findings)
            self._visit(node.value, ctx, declared, columns, findings)
            declared.add(node.target)
            return
        if isinstance(node, ast.Lambda):
            inner = declared | set(node.params)
            for body_statement in node.body:
                self._visit(body_statement, ctx, inner, None, findings)
                if isinstance(body_statement, ast.Assign):
                    inner.add(body_statement.target)
            return
        if isinstance(node, ast.Template):
            self._visit_template(node, ctx, declared, columns, findings)
            return
        if isinstance(node, ast.Apply):
            # a Name in function position is a verb, a scoped function,
            # or an indexed column of the enclosing template
            if isinstance(node.func, ast.Name):
                self._check_name(
                    node.func, ctx, declared, columns, findings
                )
            elif isinstance(node.func, ast.Node):
                self._visit(node.func, ctx, declared, columns, findings)
            for arg in node.args:
                if arg is not None:
                    self._visit(arg, ctx, declared, columns, findings)
            return
        if isinstance(node, ast.Statements):
            for statement in node.statements:
                self._visit(statement, ctx, declared, columns, findings)
                if isinstance(statement, ast.Assign):
                    declared.add(statement.target)
            return
        for child in iter_child_nodes(node):
            self._visit(child, ctx, declared, columns, findings)

    def _visit_template(self, node, ctx, declared, columns, findings):
        # the source expression is evaluated in the *enclosing* context
        self._visit(node.source, ctx, declared, columns, findings)
        inner = source_columns(node.source, ctx, declared)
        if inner is None:
            inner = Ellipsis  # unknown schema: skip column checks inside
        for spec in list(node.columns) + list(node.by):
            self._visit(spec.expr, ctx, declared, inner, findings)
        for conjunct in node.where:
            self._visit(conjunct, ctx, declared, inner, findings)
        if node.limit is not None:
            self._visit(node.limit, ctx, declared, columns, findings)

    def _check_name(self, node, ctx, declared, columns, findings):
        name = node.name
        if columns is Ellipsis:
            return  # enclosing schema unknown; stay silent
        if columns is not None and name in columns:
            return
        if name in declared or name in IMPLICIT_NAMES:
            return
        if name in BUILTIN_VERBS:
            return
        if ctx.names_anything(name):
            return
        where = (
            "is not a column of the query source and resolves in no scope"
            if columns is not None
            else "resolves in no scope"
        )
        findings.append(
            self.finding(
                f"name {name!r} {where} "
                "(searched local, session and server scopes, then the "
                "backend catalog)",
                pos=node.pos,
            )
        )


@register
class NullComparisonRule(Rule):
    """QC002: comparisons that lean on Q's two-valued null semantics.

    In Q a null equals a null; under SQL three-valued logic ``x = NULL``
    is never true.  The Xformer's two-valued-logic rule rewrites strict
    comparisons to ``IS NOT DISTINCT FROM`` (paper Section 4) — comparing
    against a null *literal* still deserves a warning (``null x`` is the
    robust spelling), and with the rewrite disabled every strict
    equality in a constraint is a semantic hazard.
    """

    code = "QC002"
    name = "null_comparison"
    purpose = "comparisons whose meaning changes under SQL 3VL"
    default_severity = Severity.WARNING

    def check(self, statement, ctx):
        findings: list[Finding] = []
        rewrite_on = True
        config = getattr(ctx.config, "xformer", None)
        if config is not None:
            rewrite_on = bool(getattr(config, "two_valued_logic", True))
        for node in walk_q(statement):
            if not isinstance(node, ast.BinOp):
                continue
            if node.op not in ("=", "<>"):
                continue
            if self._is_null_literal(node.left) or self._is_null_literal(
                node.right
            ):
                findings.append(
                    self.finding(
                        f"{node.op!r} against a null literal relies on Q's "
                        "two-valued null semantics; use `null x` (SQL "
                        "three-valued logic needs the IS NOT DISTINCT "
                        "FROM rewrite to preserve this)",
                        pos=node.pos,
                    )
                )
            elif not rewrite_on:
                findings.append(
                    self.finding(
                        f"strict {node.op!r} with the two-valued-logic "
                        "rewrite disabled follows SQL three-valued "
                        "logic: rows where either side is null are "
                        "dropped, unlike q",
                        pos=node.pos,
                    )
                )
        return findings

    @staticmethod
    def _is_null_literal(node) -> bool:
        return (
            isinstance(node, ast.Literal)
            and isinstance(node.value, QAtom)
            and node.value.is_null
        )


@register
class OrderDependenceRule(Rule):
    """QC003: order-dependent verbs where the implicit order is gone.

    Uniform/moving verbs (``sums``, ``prev``, ``mavg`` ...) are defined
    over the implicit row order (``ordcol``).  Grouped aggregation
    destroys that order (XtraGroupAgg derives no order column), so using
    such a verb in a grouped ``select``/``exec``, or over a source that is
    itself a grouped query, depends on an ordering the generated SQL does
    not guarantee — the exact hazard the order-elision rule reasons about.
    """

    code = "QC003"
    name = "order_dependence"
    purpose = "order-dependent verbs over inputs without implicit order"
    default_severity = Severity.WARNING

    def check(self, statement, ctx):
        findings: list[Finding] = []
        for node in walk_q(statement):
            if not isinstance(node, ast.Template):
                continue
            if node.kind not in ("select", "exec"):
                continue
            grouped = bool(node.by)
            unordered_source = self._is_grouped_template(node.source)
            if not grouped and not unordered_source:
                continue
            reason = (
                "inside a grouped select/exec"
                if grouped
                else "over a grouped subquery, whose output has no "
                "implicit order"
            )
            for spec in list(node.columns) + list(node.by):
                for verb, pos in self._order_dependent_uses(spec.expr):
                    findings.append(
                        self.finding(
                            f"order-dependent verb {verb!r} {reason}; "
                            "the translated SQL gives no ordering "
                            "guarantee for its window",
                            pos=pos,
                        )
                    )
        return findings

    @staticmethod
    def _is_grouped_template(node) -> bool:
        return isinstance(node, ast.Template) and bool(node.by)

    @staticmethod
    def _order_dependent_uses(expr):
        for node in walk_q(expr):
            if isinstance(node, ast.UnOp) and node.op in ORDER_DEPENDENT_VERBS:
                yield node.op, node.pos
            elif (
                isinstance(node, ast.Apply)
                and isinstance(node.func, ast.Name)
                and node.func.name in ORDER_DEPENDENT_VERBS
            ):
                yield node.func.name, node.func.pos
            elif (
                isinstance(node, ast.BinOp)
                and node.op in ORDER_DEPENDENT_VERBS
            ):
                yield node.op, node.pos


@register
class UntranslatableRule(Rule):
    """QC004: constructs with no XTRA mapping, classified up front.

    The paper (Section 5) distinguishes missing features with a SQL
    representation from features the backend cannot express; findings
    carry that ``category``.  Constructs the binder is *guaranteed* to
    reject (adverbs, signals, ``fills``) are marked ``fatal`` so the
    analyze pass can raise a structured
    :class:`repro.errors.UntranslatableError` before binding starts.
    """

    code = "QC004"
    name = "untranslatable"
    purpose = "constructs the translator cannot map to SQL"
    default_severity = Severity.ERROR

    def check(self, statement, ctx):
        findings: list[Finding] = []
        for node in walk_q(statement):
            if isinstance(node, ast.AdverbApply):
                verb = (
                    node.verb
                    if isinstance(node.verb, str)
                    else ast.node_name(node.verb)
                )
                findings.append(
                    self.finding(
                        f"adverb {node.adverb!r} on {verb!r} has no SQL "
                        "translation in the supported surface",
                        pos=node.pos,
                        category="missing-feature",
                        fatal=True,
                    )
                )
            elif isinstance(node, ast.Signal):
                findings.append(
                    self.finding(
                        "signal statements ('err) have no SQL "
                        "translation",
                        pos=node.pos,
                        category="missing-feature",
                        fatal=True,
                    )
                )
            elif self._is_fills(node):
                findings.append(
                    self.finding(
                        "fills needs a gap-filling subquery; outside "
                        "the supported surface",
                        pos=node.pos,
                        category="missing-feature",
                        fatal=True,
                    )
                )
            elif isinstance(node, ast.Assign) and node.op is not None:
                findings.append(
                    self.finding(
                        f"compound assignment {node.target}{node.op}: is "
                        "not translated; use a plain assignment",
                        pos=node.pos,
                        category="missing-feature",
                    )
                )
            elif isinstance(node, ast.Assign) and node.indices:
                findings.append(
                    self.finding(
                        f"indexed amend {node.target}[...]: is not "
                        "translated (no positional update in SQL)",
                        pos=node.pos,
                        category="no-sql-equivalent",
                    )
                )
            else:
                findings.extend(self._check_cast(node))
        return findings

    @staticmethod
    def _is_fills(node) -> bool:
        if isinstance(node, ast.UnOp) and node.op == "fills":
            return True
        return (
            isinstance(node, ast.Apply)
            and isinstance(node.func, ast.Name)
            and node.func.name == "fills"
        )

    def _check_cast(self, node):
        if not (isinstance(node, ast.BinOp) and node.op == "$"):
            return
        target = node.left
        if not (
            isinstance(target, ast.Literal)
            and isinstance(target.value, QAtom)
            and isinstance(target.value.value, str)
        ):
            return
        name = target.value.value
        if name and name not in SUPPORTED_CAST_TARGETS:
            yield self.finding(
                f"cast to `{name} has no SQL equivalent "
                "(paper Section 5, limitation category 2)",
                pos=node.pos,
                category="no-sql-equivalent",
            )


@register
class ColumnUsageRule(Rule):
    """QC005: column-usage hazards and pruning opportunities.

    Duplicate output names in one template shadow each other in the
    translated SQL result; and an explicit projection over a ``uj`` union
    is a pruning opportunity the Xformer documentedly skips (pruning is
    not pushed below unions), so both inputs are fetched whole.
    """

    code = "QC005"
    name = "column_usage"
    purpose = "duplicate outputs and pruning the xformer misses"
    default_severity = Severity.WARNING

    def check(self, statement, ctx):
        findings: list[Finding] = []
        for node in walk_q(statement):
            if not isinstance(node, ast.Template):
                continue
            names = template_output_names(node)
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    findings.append(
                        self.finding(
                            f"template produces column {name!r} more "
                            "than once; the later definition shadows "
                            "the earlier one",
                            pos=node.pos,
                        )
                    )
                seen.add(name)
            if (
                node.kind == "select"
                and node.columns
                and isinstance(node.source, ast.BinOp)
                and node.source.op == "uj"
            ):
                findings.append(
                    self.finding(
                        "projection over a uj union: column pruning is "
                        "not pushed below unions, so both inputs are "
                        "fetched in full",
                        pos=node.pos,
                        severity=Severity.INFO,
                    )
                )
        return findings


@register
class ShadowingRule(Rule):
    """QC006: an assignment target shadows a backend relation.

    ``trades: ...`` at session level hides the backend ``trades`` table
    for the rest of the session (scope resolution wins over the catalog),
    which is almost never what an interactive user intends.
    """

    code = "QC006"
    name = "relation_shadowing"
    purpose = "assignments hiding backend tables behind session variables"
    default_severity = Severity.WARNING

    def check(self, statement, ctx):
        if not isinstance(statement, ast.Assign):
            return []
        if ctx.mdi is None:
            return []
        target = statement.target
        if ctx.lookup(target) is not None:
            definition = ctx.lookup(target)
            if definition.kind in (VarKind.TABLE, VarKind.VIEW):
                return []  # re-assigning an existing variable is normal
        if self.mdi_has_table(ctx, target):
            return [
                self.finding(
                    f"assignment to {target!r} shadows the backend "
                    "relation of the same name for the rest of the "
                    "session",
                    pos=statement.pos,
                )
            ]
        return []

    @staticmethod
    def mdi_has_table(ctx, name: str) -> bool:
        return ctx.mdi.lookup_table(name) is not None


@register
class ShardOrderRule(Rule):
    """QC007: order-dependent takes over a *sharded* source.

    Single-node q gives every table a stable implicit row order, so
    ``first``/``last``, ``n#t`` takes and ``t[til n]`` indexing are
    deterministic.  Once the distribute pass scatters the source table
    across shards, the gathered rows arrive in shard-completion order —
    nondeterministic run to run — so those constructs silently return
    different rows unless an explicit ``xasc``/``xdesc`` pins the order
    first.  Fires only when the session's MDI reports a partition map
    that actually partitions the table the construct reads.
    """

    code = "QC007"
    name = "shard_order_dependence"
    purpose = "first/last/take over sharded tables need an explicit sort"
    default_severity = Severity.WARNING

    def check(self, statement, ctx):
        pmap = ctx.mdi.partition_map if ctx.mdi is not None else None
        if pmap is None or not pmap.tables:
            return []
        findings: list[Finding] = []
        for node in walk_q(statement):
            for label, operand, pos in self._constructs(node):
                table = self._partitioned_base(operand, pmap)
                if table is None or self._sorted(operand):
                    continue
                findings.append(
                    self.finding(
                        f"order-dependent {label} over {table!r}, which "
                        f"is partitioned across {pmap.shard_count} "
                        "shards — gathered row order is "
                        "nondeterministic; sort explicitly (xasc/xdesc) "
                        "before taking",
                        pos=pos,
                    )
                )
        return findings

    @staticmethod
    def _constructs(node):
        """(label, order-sensitive operand, pos) triples rooted here."""
        if isinstance(node, ast.Apply) and isinstance(node.func, ast.Name):
            if node.func.name in ("first", "last") and node.args:
                yield f"{node.func.name} ...", node.args[0], node.pos
            elif (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Apply)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.name == "til"
            ):
                yield "til-indexed take", node.func, node.pos
        elif isinstance(node, ast.BinOp) and node.op == "#":
            yield "take (#)", node.right, node.pos
        elif isinstance(node, ast.Template):
            if node.kind not in ("select", "exec"):
                return
            if node.limit is not None:
                yield f"select[{node.limit}] limit", node.source, node.pos
            for spec in node.columns:
                for inner in walk_q(spec.expr):
                    if (
                        isinstance(inner, ast.Apply)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.name in ("first", "last")
                    ):
                        yield (
                            f"aggregate {inner.func.name!r}",
                            node.source,
                            inner.pos,
                        )

    @staticmethod
    def _partitioned_base(operand, pmap) -> str | None:
        """The partitioned table the operand ultimately reads, if any."""
        for node in walk_q(operand):
            if isinstance(node, ast.Name) and pmap.is_partitioned(node.name):
                return node.name
        return None

    @staticmethod
    def _sorted(operand) -> bool:
        """Whether an explicit xasc/xdesc pins the operand's row order."""
        return any(
            isinstance(node, ast.BinOp) and node.op in ("xasc", "xdesc")
            for node in walk_q(operand)
        )
