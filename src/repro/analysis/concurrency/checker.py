"""The CC001–CC004 static lock-discipline rules (ISSUE 8 tentpole b).

Runs over the index built by
:mod:`repro.analysis.concurrency.callgraph` after role inference:

* **CC001** (error) — an instance attribute written from both thread
  roles (reactor *and* worker) without holding a lock and without a
  ``# hq: guarded-by(<lock>)`` declaration or ``@thread_safe``.
* **CC002** (error) — an attribute *declared* ``guarded-by(<lock>)``
  written without that exact lock held (a stale declaration is worse
  than none: readers trust it).
* **CC003** (warning) — a lock acquired on the reactor thread; legal
  for micro-critical sections (the reactor's own timer/callback queues)
  but every hold stalls every connection, so each site must be visibly
  intentional.
* **CC004** (error) — a blocking call (``time.sleep``, socket
  round-trips, ``queue.get``, ``Event.wait`` …) reachable from reactor
  context.  This generalizes the per-module HQ006 boundary to call-graph
  reachability: the hazard HQ006 cannot see is a clean-looking helper
  three calls away from ``data_received``.

Suppressions: ``# hq: allow(CC00x) <reason>`` on the offending line (or
the enclosing ``def`` line), ``@thread_safe("<reason>")`` on the
function or class.  A suppression or declaration **without a
justification does not suppress** and is itself reported (CC000) — the
acceptance bar is zero suppression-free errors, not zero visible ones.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.concurrency.callgraph import (
    GUARD_NAME_RE,
    ROLE_REACTOR,
    ROLE_WORKER,
    FunctionInfo,
    Index,
    build_index,
    infer_roles,
    role_path,
)
from repro.analysis.framework import Finding, Severity

#: constructors never racing with other methods (object not yet shared)
INIT_METHODS = {"__init__", "__new__", "__post_init__"}

#: attribute calls that block the calling thread
BLOCKING_ATTRS = {
    "sleep",
    "sendall",
    "makefile",
    "create_connection",
    "getaddrinfo",
    "fill",  # BufferedSocketReader.fill: one blocking recv
    "wait",
    "wait_for",
}

RULE_SEVERITY = {
    "CC000": Severity.WARNING,
    "CC001": Severity.ERROR,
    "CC002": Severity.ERROR,
    "CC003": Severity.WARNING,
    "CC004": Severity.ERROR,
}

RULE_NAMES = {
    "CC000": "pragma_hygiene",
    "CC001": "unguarded_shared_write",
    "CC002": "guard_not_held",
    "CC003": "reactor_lock",
    "CC004": "reactor_blocking",
}


def _expr_text(node) -> str | None:
    """Render the guard expressions we understand (self.x / bare name)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return f"self.{node.attr}"
        return f"{node.value.id}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_guard_expr(node) -> str | None:
    text = _expr_text(node)
    if text is not None and GUARD_NAME_RE.search(text.rsplit(".", 1)[-1]):
        return text
    return None


def _terminal_name(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class _BodyScan:
    """One pass over a function body (nested defs/lambdas excluded)
    collecting self-attribute writes, guard acquisitions, and blocking
    calls, each with the set of guards held at that point."""

    def __init__(self, fn_node):
        self.writes: list = []  # (attr, lineno, frozenset(guards))
        self.acquires: list = []  # (guard text, lineno)
        self.blocking: list = []  # (label, lineno)
        for stmt in ast.iter_child_nodes(fn_node):
            self._visit(stmt, frozenset())

    def _visit(self, node, guards) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.With):
            inner = set(guards)
            for item in node.items:
                self._visit(item.context_expr, guards)
                guard = _is_guard_expr(item.context_expr)
                if guard is not None:
                    inner.add(guard)
                    self.acquires.append((guard, node.lineno))
            for stmt in node.body:
                self._visit(stmt, frozenset(inner))
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.writes.append((target.attr, node.lineno, guards))
        if isinstance(node, ast.Call):
            self._classify_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child, guards)

    def _classify_call(self, call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                self.blocking.append((f"{func.id}()", call.lineno))
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        receiver = _terminal_name(func.value).lower()
        if attr == "acquire":
            guard = _is_guard_expr(func.value)
            if guard is not None:
                self.acquires.append((guard, call.lineno))
            return
        if attr in BLOCKING_ATTRS:
            self.blocking.append((f".{attr}()", call.lineno))
        elif attr == "join" and "thread" in receiver:
            self.blocking.append((".join()", call.lineno))
        elif attr == "get" and "queue" in receiver:
            self.blocking.append((".get()", call.lineno))


class ConcurrencyChecker:
    """Drives role inference and the CC rules over one source tree."""

    def __init__(self, root: Path, package: str | None = None):
        self.index: Index = build_index(Path(root), package)
        infer_roles(self.index)
        self.findings: list = []
        self.suppressed: list = []
        self._scans: dict = {}

    # -- plumbing -----------------------------------------------------------

    def _scan(self, fn: FunctionInfo) -> _BodyScan:
        scan = self._scans.get(fn.qualname)
        if scan is None:
            scan = self._scans[fn.qualname] = _BodyScan(fn.node)
        return scan

    def _rel_path(self, fn: FunctionInfo) -> str:
        path = self.index.modules[fn.module].path
        try:
            return str(path.relative_to(self.index.root.parent))
        except ValueError:
            return str(path)

    def _suppression(self, fn: FunctionInfo, code: str, lineno: int):
        """A justified suppression covering (code, line), or None."""
        mod = self.index.modules[fn.module]
        # trailing comment, a standalone pragma line just above, or the
        # enclosing def line all cover the finding
        reason = mod.allow_reason(code, lineno, lineno - 1, fn.lineno)
        if reason is not None:
            return f"allow pragma: {reason}"
        if fn.thread_safe:
            return f"@thread_safe: {fn.thread_safe}"
        cls = self.index.function_class(fn)
        if cls is not None and cls.thread_safe:
            return f"@thread_safe: {cls.thread_safe}"
        return None

    def _emit(self, fn: FunctionInfo, code: str, lineno: int, message: str):
        reason = self._suppression(fn, code, lineno)
        record = Finding(
            code=code,
            message=message,
            severity=RULE_SEVERITY[code],
            rule=RULE_NAMES[code],
            line=lineno,
            path=self._rel_path(fn),
        )
        if reason is not None:
            entry = record.to_dict()
            entry["suppressed_by"] = reason
            self.suppressed.append(entry)
        else:
            self.findings.append(record)

    def _chain(self, fn: FunctionInfo, role: str) -> str:
        path = role_path(self.index, fn, role)
        short = [
            ".".join(q.rsplit(".", 2)[-2:]) if "." in q else q for q in path
        ]
        return " -> ".join(short)

    # -- the rules ----------------------------------------------------------

    def run(self) -> list:
        self._check_pragma_hygiene()
        self._check_shared_writes()
        self._check_reactor_side()
        self.findings.sort(
            key=lambda f: (-int(f.severity), f.path, f.line, f.code)
        )
        return self.findings

    def _check_pragma_hygiene(self) -> None:
        for mod in self.index.modules.values():
            for pragma in mod.pragmas.values():
                if not pragma.reason:
                    self.findings.append(
                        Finding(
                            code="CC000",
                            message=(
                                f"hq: {pragma.kind}({pragma.value}) pragma "
                                "carries no justification — it does not "
                                "suppress anything until it explains itself"
                            ),
                            severity=RULE_SEVERITY["CC000"],
                            rule=RULE_NAMES["CC000"],
                            line=pragma.line,
                            path=self._mod_rel_path(mod),
                        )
                    )
        for fn in self.index.functions.values():
            if fn.thread_safe == "":
                self._emit(
                    fn,
                    "CC000",
                    fn.lineno,
                    "@thread_safe without a justification string does not "
                    "exempt anything — use @thread_safe(\"why\")",
                )

    def _mod_rel_path(self, mod) -> str:
        try:
            return str(mod.path.relative_to(self.index.root.parent))
        except ValueError:
            return str(mod.path)

    def _check_shared_writes(self) -> None:
        """CC001 unguarded multi-role writes + CC002 declared-not-held."""
        per_class: dict = {}
        for fn in self.index.functions.values():
            if fn.class_name is None or fn.name in INIT_METHODS:
                continue
            cls = self.index.function_class(fn)
            if cls is None:
                continue
            scan = self._scan(fn)
            for attr, lineno, guards in scan.writes:
                per_class.setdefault(cls.qualname, {}).setdefault(
                    attr, []
                ).append((fn, lineno, guards))
        for cls_qualname, attrs in per_class.items():
            cls = self.index.classes[cls_qualname]
            for attr, writes in attrs.items():
                declared = cls.guarded.get(attr)
                if declared is not None:
                    lock, _reason, _line = declared
                    for fn, lineno, guards in writes:
                        held = (
                            lock in guards
                            or lock in fn.assumed_guards
                            or "*" in fn.assumed_guards
                        )
                        if not held:
                            self._emit(
                                fn,
                                "CC002",
                                lineno,
                                f"self.{attr} is declared guarded-by"
                                f"({lock}) but written here without it",
                            )
                    continue
                roles = set()
                for fn, _lineno, _guards in writes:
                    roles |= fn.roles() & {ROLE_REACTOR, ROLE_WORKER}
                if len(roles) < 2:
                    continue
                for fn, lineno, guards in writes:
                    if guards or fn.assumed_guards:
                        continue
                    self._emit(
                        fn,
                        "CC001",
                        lineno,
                        f"self.{attr} is written from both reactor and "
                        f"worker contexts with no lock held and no "
                        f"guarded-by declaration (writer roles: "
                        f"{', '.join(sorted(roles))})",
                    )

    def _check_reactor_side(self) -> None:
        """CC003 reactor lock acquisitions + CC004 reactor blocking."""
        for fn in self.index.functions.values():
            if ROLE_REACTOR not in fn.role_via:
                continue
            scan = self._scan(fn)
            chain = None
            for guard, lineno in scan.acquires:
                chain = chain or self._chain(fn, ROLE_REACTOR)
                self._emit(
                    fn,
                    "CC003",
                    lineno,
                    f"{guard} acquired on the reactor thread "
                    f"(via {chain}) — any hold stalls every connection",
                )
            for label, lineno in scan.blocking:
                chain = chain or self._chain(fn, ROLE_REACTOR)
                self._emit(
                    fn,
                    "CC004",
                    lineno,
                    f"blocking call {label} reachable from reactor "
                    f"context (via {chain})",
                )

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict:
        by_severity: dict = {}
        for finding in self.findings:
            by_severity[finding.severity.label] = (
                by_severity.get(finding.severity.label, 0) + 1
            )
        roles = {
            role: sorted(
                fn.qualname
                for fn in self.index.functions.values()
                if role in fn.role_via
            )
            for role in (ROLE_REACTOR, ROLE_WORKER)
        }
        return {
            "root": str(self.index.root),
            "modules": len(self.index.modules),
            "functions": len(self.index.functions),
            "role_counts": {k: len(v) for k, v in roles.items()},
            "roles": roles,
            "counts": by_severity,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
        }


def check_tree(root: Path, package: str | None = None) -> ConcurrencyChecker:
    """Index, infer, and run the rules; returns the loaded checker."""
    checker = ConcurrencyChecker(root, package)
    checker.run()
    return checker
