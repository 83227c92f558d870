"""AST call-graph builder and thread-role inference (ISSUE 8 tentpole a).

Indexes every function and class under a source root, resolves the call
edges that matter for threading analysis, and propagates **thread
roles** from seeds:

* ``repro.server.reactor.Reactor._run`` and everything a reactor
  callback reaches (``Protocol`` event methods, ``Transport`` handlers,
  the targets of ``call_later`` / ``call_soon_threadsafe``) runs on the
  **reactor** thread;
* ``WorkerPool._drain`` and every job handed to ``workers.submit`` /
  ``self._pool.submit`` (including the bodies of submitted lambdas and
  nested ``def job()`` closures) runs on **worker** threads;
* ``@reactor_only`` / ``@worker_context`` declare a role outright, and a
  declared role also *stops* propagation of the opposite role — the
  annotation is the boundary marker between the two worlds.

Resolution is deliberately conservative: precise for ``self.method()``,
module-level names, and imported-module attributes; a small
dispatch-by-name table covers the polymorphic callback surface
(``data_received``, ``_on_events``, ``execute``, ``run_sql``, …) where a
textual receiver cannot be typed.  Unresolvable calls simply add no
edge — the lock-discipline rules are reachability *under*-approximations
plus golden tests, not a soundness proof.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

ROLE_REACTOR = "reactor"
ROLE_WORKER = "worker"
ROLES = (ROLE_REACTOR, ROLE_WORKER)

#: decorator name -> declared role
DECORATOR_ROLES = {"reactor_only": ROLE_REACTOR, "worker_context": ROLE_WORKER}

#: methods resolved by name to every same-named method in the index —
#: the polymorphic callback/backend surface a textual receiver can't type
DISPATCH_METHODS = {
    "_on_events",
    "data_received",
    "connection_made",
    "connection_lost",
    "build_protocol",
    "handler_factory",
    "execute",
    "run_sql",
    "run_query",
    "next_pid",
    "request_deadline",
    "authenticate",
    "inc",
    "dec",
    "set",
    "observe",
}

#: x.submit(job) enqueues worker-pool work when the receiver looks like a
#: pool (self.server.workers.submit / self._pool.submit / pool.submit)
SUBMIT_RECEIVERS = {"workers", "_pool", "pool", "worker_pool"}

#: hard-wired role seeds for the real source tree (qualname, role)
STRUCTURAL_SEEDS = (
    ("repro.server.reactor.Reactor._run", ROLE_REACTOR),
    ("repro.server.reactor.WorkerPool._drain", ROLE_WORKER),
)

#: with-statement context managers / attributes that denote a guard
GUARD_NAME_RE = re.compile(r"lock|cond|sem|concurrency|mutex", re.IGNORECASE)

#: ``# hq: guarded-by(self._lock) reason`` / ``# hq: allow(CC004) reason``
#: (``allow`` covers the HQ boundary rules too: ``# hq: allow(HQ002) reason``)
PRAGMA_RE = re.compile(
    r"#\s*hq:\s*(?:guarded-by\((?P<guard>[^)]+)\)"
    r"|allow\((?P<code>(?:CC|HQ)\d{3})\))"
    r"\s*(?:[-—–:]\s*)?(?P<reason>.*)$"
)


@dataclass
class Pragma:
    kind: str  # "guarded-by" | "allow"
    value: str  # the lock expression or the rule code
    reason: str
    line: int


@dataclass
class FunctionInfo:
    qualname: str
    module: str
    name: str
    node: ast.AST
    lineno: int
    class_name: str | None = None
    #: terminal decorator names (reactor_only, worker_context, thread_safe…)
    decorators: set[str] = field(default_factory=set)
    #: justification passed to @thread_safe, or None
    thread_safe: str | None = None
    declared_role: str | None = None
    #: resolved callee qualnames
    calls: set[str] = field(default_factory=set)
    #: inferred roles: role -> caller qualname it arrived through (None=seed)
    role_via: dict = field(default_factory=dict)
    #: guard expressions assumed held on entry (def-line guarded-by pragma
    #: or the ``*_locked`` caller-holds-the-lock naming convention)
    assumed_guards: frozenset = frozenset()
    #: rule codes allowed on the whole function (def-line allow pragma)
    allowed_codes: frozenset = frozenset()

    def roles(self) -> set:
        return set(self.role_via)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    lineno: int
    #: base classes as resolved dotted names (or raw names when unresolved)
    bases: list = field(default_factory=list)
    methods: dict = field(default_factory=dict)  # name -> FunctionInfo
    thread_safe: str | None = None
    #: attr -> (lock expression, reason, line) from guarded-by pragmas
    guarded: dict = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: Path
    tree: ast.Module
    source_lines: list
    #: local name -> dotted import target
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # name -> FunctionInfo
    classes: dict = field(default_factory=dict)  # name -> ClassInfo
    #: line -> Pragma (allow pragmas on arbitrary lines)
    pragmas: dict = field(default_factory=dict)

    def allow_reason(self, code: str, *lines: int) -> str | None:
        """The justification of an ``allow(code)`` pragma on any of
        ``lines``; None when there is none (a bare pragma never counts)."""
        for line in lines:
            pragma = self.pragmas.get(line)
            if (
                pragma is not None
                and pragma.kind == "allow"
                and pragma.value == code
                and pragma.reason
            ):
                return pragma.reason
        return None


@dataclass
class Index:
    root: Path
    package: str
    modules: dict = field(default_factory=dict)  # module name -> ModuleInfo
    functions: dict = field(default_factory=dict)  # qualname -> FunctionInfo
    classes: dict = field(default_factory=dict)  # qualname -> ClassInfo
    #: method name -> [FunctionInfo] for DISPATCH_METHODS resolution
    by_method: dict = field(default_factory=dict)
    #: (path, SyntaxError) for files that did not parse (and are not indexed)
    unparsed: list = field(default_factory=list)

    def function_class(self, fn: FunctionInfo):
        if fn.class_name is None:
            return None
        return self.classes.get(f"{fn.module}.{fn.class_name}")


# -- decorators and pragmas -------------------------------------------------


def _decorator_names(node) -> set:
    names = set()
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _thread_safe_reason(node):
    """The justification string of ``@thread_safe("...")``, or "" when the
    decorator is present without one (the checker flags that)."""
    for dec in getattr(node, "decorator_list", ()):
        if isinstance(dec, ast.Call):
            target = dec.func
            name = (
                target.id
                if isinstance(target, ast.Name)
                else getattr(target, "attr", None)
            )
            if name == "thread_safe":
                if dec.args and isinstance(dec.args[0], ast.Constant):
                    value = dec.args[0].value
                    if isinstance(value, str) and value.strip():
                        return value
                return ""
        else:
            name = (
                dec.id
                if isinstance(dec, ast.Name)
                else getattr(dec, "attr", None)
            )
            if name == "thread_safe":
                return ""
    return None


def _scan_pragmas(source_lines) -> dict:
    pragmas = {}
    for lineno, line in enumerate(source_lines, start=1):
        match = PRAGMA_RE.search(line)
        if not match:
            continue
        if match.group("guard") is not None:
            pragmas[lineno] = Pragma(
                "guarded-by",
                match.group("guard").strip(),
                match.group("reason").strip(),
                lineno,
            )
        else:
            pragmas[lineno] = Pragma(
                "allow",
                match.group("code"),
                match.group("reason").strip(),
                lineno,
            )
    return pragmas


# -- indexing ---------------------------------------------------------------


def module_name(root: Path, package: str, path: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def _collect_imports(tree: ast.Module) -> dict:
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _function_pragma_marks(fn: FunctionInfo, pragmas: dict) -> None:
    """Apply def-line pragmas and the ``*_locked`` naming convention."""
    guards, allows = set(), set()
    pragma = pragmas.get(fn.lineno)
    if pragma is not None:
        if pragma.kind == "guarded-by":
            guards.add(pragma.value)
        else:
            allows.add(pragma.value)
    if fn.name.endswith("_locked"):
        guards.add("*")
    fn.assumed_guards = frozenset(guards)
    fn.allowed_codes = frozenset(allows)


def _index_function(
    index: Index,
    mod: ModuleInfo,
    node,
    class_name: str | None,
    prefix: str,
) -> FunctionInfo:
    qualname = f"{prefix}.{node.name}"
    fn = FunctionInfo(
        qualname=qualname,
        module=mod.name,
        name=node.name,
        node=node,
        lineno=node.lineno,
        class_name=class_name,
        decorators=_decorator_names(node),
        thread_safe=_thread_safe_reason(node),
    )
    for dec, role in DECORATOR_ROLES.items():
        if dec in fn.decorators:
            fn.declared_role = role
    _function_pragma_marks(fn, mod.pragmas)
    index.functions[qualname] = fn
    if class_name is not None and "<locals>" not in qualname:
        index.by_method.setdefault(node.name, []).append(fn)
    # nested defs are separate nodes owned by the same class context
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _immediate_parent_function(node, child) is node:
                _index_function(
                    index, mod, child, class_name, f"{qualname}.<locals>"
                )
    return fn


def _immediate_parent_function(root, target):
    """The nearest enclosing function of ``target`` inside ``root``."""
    parent = root
    stack = [(root, root)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if child is target:
                return owner
            next_owner = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else owner
            )
            stack.append((child, next_owner))
    return parent


def _attr_guard_pragmas(cls: ClassInfo, node, pragmas: dict) -> None:
    """``self.attr = ...  # hq: guarded-by(self._lock) reason`` lines."""
    for stmt in ast.walk(node):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        pragma = pragmas.get(stmt.lineno) or pragmas.get(stmt.lineno - 1)
        if pragma is None or pragma.kind != "guarded-by":
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.guarded.setdefault(
                    target.attr, (pragma.value, pragma.reason, stmt.lineno)
                )


def load_module(path: Path, name: str) -> ModuleInfo:
    """Parse one source file with its imports and pragmas (raises
    :class:`SyntaxError` when it does not parse)."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    return ModuleInfo(
        name=name,
        path=path,
        tree=tree,
        source_lines=lines,
        imports=_collect_imports(tree),
        pragmas=_scan_pragmas(lines),
    )


def build_index(root: Path, package: str | None = None) -> Index:
    """Index every ``*.py`` under ``root`` (the package directory)."""
    root = Path(root)
    package = package or root.name
    index = Index(root=root, package=package)
    for path in sorted(root.rglob("*.py")):
        try:
            mod = load_module(path, module_name(root, package, path))
        except SyntaxError as exc:
            index.unparsed.append((path, exc))
            continue
        index.modules[mod.name] = mod
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _index_function(index, mod, node, None, mod.name)
                mod.functions[node.name] = fn
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{mod.name}.{node.name}",
                    module=mod.name,
                    name=node.name,
                    lineno=node.lineno,
                    thread_safe=_thread_safe_reason(node),
                )
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        cls.bases.append(
                            mod.imports.get(base.id, f"{mod.name}.{base.id}")
                        )
                    elif isinstance(base, ast.Attribute):
                        cls.bases.append(base.attr)
                mod.classes[node.name] = cls
                index.classes[cls.qualname] = cls
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = _index_function(
                            index, mod, child, node.name, cls.qualname
                        )
                        cls.methods[child.name] = method
                        _attr_guard_pragmas(cls, child, mod.pragmas)
                        if cls.thread_safe is not None and method.thread_safe is None:
                            method.thread_safe = cls.thread_safe
    _resolve_calls(index)
    return index


# -- call resolution --------------------------------------------------------


def _terminal_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mro(index: Index, cls: ClassInfo):
    """The class plus every resolvable base, breadth-first."""
    seen, out, frontier = set(), [], [cls]
    while frontier:
        current = frontier.pop(0)
        if current.qualname in seen:
            continue
        seen.add(current.qualname)
        out.append(current)
        for base in current.bases:
            base_cls = index.classes.get(base)
            if base_cls is not None:
                frontier.append(base_cls)
    return out


def resolve_self_method(index: Index, fn: FunctionInfo, attr: str):
    cls = index.function_class(fn)
    if cls is None:
        return None
    for klass in _mro(index, cls):
        method = klass.methods.get(attr)
        if method is not None:
            return method
    return None


def _resolve_call_targets(index: Index, mod: ModuleInfo, fn: FunctionInfo, call):
    """Qualnames of the functions a call expression may invoke."""
    func = call.func
    targets = []
    if isinstance(func, ast.Name):
        name = func.id
        nested = index.functions.get(f"{fn.qualname}.<locals>.{name}")
        if nested is not None:
            return [nested.qualname]
        local = mod.functions.get(name)
        if local is not None:
            return [local.qualname]
        local_cls = mod.classes.get(name)
        if local_cls is not None:
            init = local_cls.methods.get("__init__")
            return [init.qualname] if init else []
        dotted = mod.imports.get(name)
        if dotted is not None:
            if dotted in index.functions:
                return [dotted]
            cls = index.classes.get(dotted)
            if cls is not None:
                init = cls.methods.get("__init__")
                return [init.qualname] if init else []
        return []
    if isinstance(func, ast.Attribute):
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name) and base.id == "self":
            method = resolve_self_method(index, fn, attr)
            if method is not None:
                return [method.qualname]
        elif (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
        ):
            cls = index.function_class(fn)
            if cls is not None:
                for klass in _mro(index, cls)[1:]:
                    method = klass.methods.get(attr)
                    if method is not None:
                        return [method.qualname]
            return []
        elif isinstance(base, ast.Name):
            dotted = mod.imports.get(base.id)
            if dotted is not None:
                candidate = f"{dotted}.{attr}"
                if candidate in index.functions:
                    return [candidate]
                cls = index.classes.get(candidate)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init.qualname] if init else []
        if attr in DISPATCH_METHODS:
            targets = [m.qualname for m in index.by_method.get(attr, ())]
    return targets


def _own_calls(fn_node):
    """Call nodes lexically inside a function, excluding nested defs and
    lambdas (those are analyzed as their own role carriers)."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _callback_targets(index: Index, mod: ModuleInfo, fn: FunctionInfo, expr):
    """Resolve a callback argument: a name, self-method, nested def, or
    the calls inside a lambda body."""
    if isinstance(expr, ast.Lambda):
        out = []
        for call in ast.walk(expr.body):
            if isinstance(call, ast.Call):
                out.extend(_resolve_call_targets(index, mod, fn, call))
        return out
    if isinstance(expr, ast.Name):
        nested = index.functions.get(f"{fn.qualname}.<locals>.{expr.id}")
        if nested is not None:
            return [nested.qualname]
        local = mod.functions.get(expr.id)
        return [local.qualname] if local else []
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        method = resolve_self_method(index, fn, expr.attr)
        return [method.qualname] if method else []
    return []


def _deferred_seeds(index: Index, mod: ModuleInfo, fn: FunctionInfo):
    """(role, target qualname) pairs for call_later / threadsafe posts /
    worker-pool submissions made inside ``fn``."""
    seeds = []
    for call in _own_calls(fn.node):
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "call_soon_threadsafe" and call.args:
            for target in _callback_targets(index, mod, fn, call.args[0]):
                seeds.append((ROLE_REACTOR, target))
        elif func.attr == "call_later" and len(call.args) >= 2:
            for target in _callback_targets(index, mod, fn, call.args[1]):
                seeds.append((ROLE_REACTOR, target))
        elif (
            func.attr == "submit"
            and call.args
            and _terminal_name(func.value) in SUBMIT_RECEIVERS
        ):
            for target in _callback_targets(index, mod, fn, call.args[0]):
                seeds.append((ROLE_WORKER, target))
    return seeds


def _resolve_calls(index: Index) -> None:
    for fn in index.functions.values():
        mod = index.modules[fn.module]
        for call in _own_calls(fn.node):
            fn.calls.update(_resolve_call_targets(index, mod, fn, call))


# -- role inference ---------------------------------------------------------


def _is_protocol_subclass(index: Index, cls: ClassInfo) -> bool:
    return any(
        klass.name == "Protocol" for klass in _mro(index, cls)[1:]
    ) or any(str(base).rsplit(".", 1)[-1] == "Protocol" for base in cls.bases)


def infer_roles(index: Index) -> None:
    """Seed and propagate thread roles across the call graph (in place)."""
    seeds: list = []
    for qualname, role in STRUCTURAL_SEEDS:
        if qualname in index.functions:
            seeds.append((role, qualname))
    for fn in index.functions.values():
        if fn.declared_role is not None:
            seeds.append((fn.declared_role, fn.qualname))
        mod = index.modules[fn.module]
        seeds.extend(_deferred_seeds(index, mod, fn))
    worker_seeded = {q for role, q in seeds if role == ROLE_WORKER}
    # every method of a Protocol subclass is a reactor callback unless it
    # was explicitly declared or detected as worker-side work
    for cls in index.classes.values():
        if not _is_protocol_subclass(index, cls):
            continue
        for method in cls.methods.values():
            if method.qualname in worker_seeded:
                continue
            if method.declared_role == ROLE_WORKER:
                continue
            seeds.append((ROLE_REACTOR, method.qualname))
    frontier = []
    for role, qualname in seeds:
        fn = index.functions.get(qualname)
        if fn is None:
            continue
        if fn.declared_role is not None and fn.declared_role != role:
            continue
        if role not in fn.role_via:
            fn.role_via[role] = None
            frontier.append((role, fn))
    while frontier:
        role, fn = frontier.pop()
        for callee_name in fn.calls:
            callee = index.functions.get(callee_name)
            if callee is None or role in callee.role_via:
                continue
            # a declared role is a boundary: reactor reachability stops
            # at @worker_context (a submitted job) and vice versa
            if callee.declared_role is not None and callee.declared_role != role:
                continue
            callee.role_via[role] = fn.qualname
            frontier.append((role, callee))


def role_path(index: Index, fn: FunctionInfo, role: str) -> list:
    """The inferred call chain from the role seed down to ``fn``."""
    chain = [fn.qualname]
    via = fn.role_via.get(role)
    seen = {fn.qualname}
    while via is not None and via not in seen:
        chain.append(via)
        seen.add(via)
        parent = index.functions.get(via)
        via = parent.role_via.get(role) if parent else None
    return list(reversed(chain))
