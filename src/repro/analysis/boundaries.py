"""The repo's own lint (``HQ0xx``): one boundary table plus five predicates.

Most architectural rules here say "X may only be called, constructed or
imported from modules Y", so they are rows of :data:`BOUNDARIES`: a code,
a kind, ``fnmatch`` patterns over dotted names, an allowed *or* denied
module set, and the reason.  One generic check runs the table over a
call-graph :class:`~repro.analysis.concurrency.callgraph.ModuleInfo`,
resolving every call and import through the module's own imports:
``from time import sleep; sleep(1)`` is ``time.sleep`` and ``import
threading as th; th.Lock()`` is ``threading.Lock``.  A root name the
module did not import is qualified with the module's own name; a
receiver that is not a name renders as ``?`` (hence ``*.recv``).

HQ002, HQ003, the literal-timeout half of HQ004, HQ005 and HQ012 judge
values rather than names and stay small AST predicates.  Only ``repro`` modules
are in scope.  ``scripts/concheck.py`` runs all of it over the parse the
CC rules use.  ``# hq: allow(HQ00x) <reason>`` on the offending line (or
the line above) suppresses one finding; a pragma without a reason does
not, and is itself reported as CC000.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from repro.analysis.concurrency.callgraph import (
    Index,
    ModuleInfo,
    load_module,
    module_name,
)
from repro.analysis.framework import Finding, Severity
from repro.obs.names import ALL_METRIC_NAMES


@dataclass(frozen=True)
class Boundary:
    """Uses of ``names`` (space-separated patterns) are forbidden in the
    ``denied`` modules or, when there are none, outside ``allowed``."""

    code: str
    kind: str  # "call" | "construct" | "import"
    names: str
    reason: str
    allowed: str = ""
    denied: str = ""

    def forbids(self, module: str) -> bool:
        if self.denied:
            return _within(module, self.denied)
        return not _within(module, self.allowed)

    def matches(self, name: str) -> bool:
        return any(fnmatchcase(name, pattern) for pattern in self.names.split())


def _within(module: str, homes: str) -> bool:
    return any(f"{module}.".startswith(f"{home}.") for home in homes.split())


_SERVING = "repro.server repro.core"
_PROTOCOLS = "repro.server.endpoint repro.server.pgserver repro.server.hyperq_server"
_ROUTERS = "repro.core.sharded repro.core.xformer.distributed repro.core.metadata"
_SPAWNERS = "repro.core.procshard"
_OS_SPAWN = "os.fork* os.spawn* os.exec* os.posix_spawn*"
_SPAWN_WHY = (
    "child processes escape WLM admission, lockcheck and the reactor's "
    "lifecycle; only the process-shard subsystem supervises them"
)

BOUNDARIES = (
    Boundary(
        "HQ001", "construct", "*.Binder *.Serializer",
        "translation stages are built by the session's TranslationPipeline",
        allowed="repro.core.pipeline repro.core.serializer "
        "repro.core.algebrizer.binder",
    ),
    Boundary(
        "HQ004", "call", "time.sleep",
        "blocking in the serving path belongs in repro.wlm (backoff, fault "
        "injection), driven by config",
        denied=_SERVING,
    ),
    Boundary(
        "HQ006", "call", "*.recv *.recv_into *.recvfrom *.accept *.sendto",
        "protocols get bytes from the reactor and write through their "
        "Transport; they never touch a socket",
        denied=_PROTOCOLS,
    ),
    Boundary(
        "HQ006", "call",
        "*.sendall *.settimeout *.makefile *.connect socket.create_connection "
        "time.sleep",
        "a blocking call on the event-loop thread stalls every connection; "
        "blocking work runs on the worker pool",
        denied=_PROTOCOLS + " repro.server.reactor",
    ),
    Boundary(
        "HQ007", "call", "*.shard_for *.route_rows *.shard_targets",
        "partition-key routing lives in ShardedBackend and the distribute "
        "pass; route through the planner instead",
        allowed=_ROUTERS,
    ),
    Boundary(
        "HQ007", "import", "*.PartitionMap *.TablePartitioning",
        "servers, serializers and loaders must not know the partition "
        "layout; only topology declarations may",
        allowed=_ROUTERS + " repro.workload.sharding",
    ),
    Boundary(
        "HQ008", "construct", "threading.Lock threading.RLock threading.Condition",
        "locks come from make_lock/make_rlock/make_condition so "
        "REPRO_LOCKCHECK can instrument them",
        allowed="repro.analysis.concurrency.locks",
    ),
    Boundary(
        "HQ009", "call", "*.backend.run_sql",
        "session/PT code reaches the backend through QueryExecutor, so the "
        "result cache sees every statement and writes bump table versions",
        denied="repro.core.session repro.core.admin repro.core.crosscompiler",
    ),
    Boundary(
        "HQ010", "import",
        "subprocess subprocess.* multiprocessing multiprocessing.* " + _OS_SPAWN,
        _SPAWN_WHY, allowed=_SPAWNERS,
    ),
    Boundary("HQ010", "call", _OS_SPAWN, _SPAWN_WHY, allowed=_SPAWNERS),
    Boundary(
        "HQ011", "import",
        "repro.wlm.classifier repro.wlm.classifier.* repro.wlm.classify_* "
        "repro.wlm.QueryClass",
        "the admission class is a billing label with one owner: the session "
        "bills it, admission and the translation-cache replay read it",
        allowed="repro.wlm repro.core.session",
    ),
)


def _dotted(mod: ModuleInfo, expr) -> str:
    """The dotted name an expression denotes, resolved through imports."""
    if isinstance(expr, ast.Name):
        return mod.imports.get(expr.id, f"{mod.name}.{expr.id}")
    if isinstance(expr, ast.Attribute):
        return f"{_dotted(mod, expr.value)}.{expr.attr}"
    return "?"


def _uses(mod: ModuleInfo):
    """``(is_import, dotted name, line)`` for every call and import."""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call):
            yield False, _dotted(mod, node.func), node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield True, alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield True, f"{node.module}.{alias.name}", node.lineno


# -- the predicates: (line, message) per finding ------------------------------


def _is_broad(handler_type) -> bool:
    """Bare, ``Exception``/``BaseException``, or a tuple holding one;
    narrow handlers (``except OSError: pass``) stay legitimate idiom."""
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in ("Exception", "BaseException")
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def silent_swallow(mod: ModuleInfo):
    """HQ002: broad ``except ...: pass`` in the server and core layers."""
    if not _within(mod.name, _SERVING):
        return
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad(node.type)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Pass)
        ):
            yield node.lineno, (
                "exception silently swallowed (broad `except: pass`) — log it "
                "through repro.obs.get_logger or narrow the handler"
            )


def metric_registry(mod: ModuleInfo):
    """HQ003: metric family names are literals declared in obs/names.py."""
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        owner, _, factory = _dotted(mod, node.func).rpartition(".")
        if owner not in ("repro.obs", "repro.obs.metrics"):
            continue
        if factory not in ("counter", "gauge", "histogram"):
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            yield node.lineno, (
                f"metrics.{factory} family name must be a string literal so "
                f"HQ003 can check it against repro/obs/names.py"
            )
        elif first.value not in ALL_METRIC_NAMES:
            yield node.lineno, (
                f"metric family {first.value!r} is not declared in "
                f"repro/obs/names.py — add it to the registry"
            )


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def literal_timeout(mod: ModuleInfo):
    """HQ004, literal half: numeric socket timeouts in server/core."""
    if not _within(mod.name, _SERVING):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(mod, node.func).rpartition(".")[2]
        if name not in ("settimeout", "create_connection"):
            continue
        values = list(node.args) if name == "settimeout" else []
        values += [kw.value for kw in node.keywords if kw.arg == "timeout"]
        if any(_is_number(value) for value in values):
            yield node.lineno, (
                f"hard-coded {name} timeout — plumb it from WlmConfig/"
                f"HyperQConfig or name it as a module constant"
            )


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp)


def per_element_wire(mod: ModuleInfo):
    """HQ005: ``struct.pack`` or ``bytes +=`` in a loop on the wire paths;
    each package's ``kernels`` module owns the batched packing."""
    if not _within(mod.name, "repro.pgwire repro.qipc") or mod.name.endswith(
        ".kernels"
    ):
        return

    def call_name(node) -> str:
        return _dotted(mod, node.func) if isinstance(node, ast.Call) else ""

    def builds_bytes(expr) -> bool:
        return any(
            (isinstance(node, ast.Constant) and isinstance(node.value, bytes))
            or call_name(node).startswith("struct.pack")
            or call_name(node).rpartition(".")[2] in ("encode", "_cstr")
            for node in ast.walk(expr)
        )

    found = {}
    for loop in ast.walk(mod.tree):
        if not isinstance(loop, _LOOPS):
            continue
        for node in ast.walk(loop):
            if call_name(node) in ("struct.pack", "struct.pack_into"):
                found[node.lineno] = (
                    "per-element struct.pack in a loop — batch it through "
                    "this package's kernels module"
                )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and builds_bytes(node.value)
            ):
                found[node.lineno] = (
                    "quadratic bytes accumulation (`+=` in a loop) — collect "
                    "parts in a list and b\"\".join them"
                )
    yield from sorted(found.items())


def type_table(mod: ModuleInfo):
    """HQ012: a per-``QType`` table — a dict display with three or more
    ``QType.*`` keys, or as many values — outside ``repro.qlang.qtypes``."""
    if mod.name == "repro.qlang.qtypes":
        return

    def members(nodes) -> int:
        return sum(
            isinstance(node, ast.Attribute)
            and _dotted(mod, node.value).rpartition(".")[2] == "QType"
            for node in nodes
        )

    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Dict) and (
            members(node.keys) >= 3 or members(node.values) >= 3
        ):
            yield node.lineno, (
                "per-QType table — read the fact from the type's descriptor "
                "(QType.spec in repro.qlang.qtypes) instead of keeping a copy"
            )


PREDICATES = (
    ("HQ002", silent_swallow),
    ("HQ003", metric_registry),
    ("HQ004", literal_timeout),
    ("HQ005", per_element_wire),
    ("HQ012", type_table),
)


# -- the checker ----------------------------------------------------------------


@dataclass
class BoundaryChecker:
    """Findings and honored suppressions, shaped like the CC checker's."""

    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)

    def check(self, mod: ModuleInfo, path: str) -> None:
        for is_import, name, line in _uses(mod):
            for row in BOUNDARIES:
                if (
                    (row.kind == "import") == is_import
                    and row.matches(name)
                    and row.forbids(mod.name)
                ):
                    message = f"{row.kind} {name} in {mod.name} — {row.reason}"
                    self._emit(mod, path, row.code, "boundary", line, message)
        for code, predicate in PREDICATES:
            for line, message in predicate(mod):
                self._emit(mod, path, code, predicate.__name__, line, message)

    def _emit(self, mod, path, code, rule, line, message) -> None:
        finding = Finding(code, message, Severity.ERROR, rule, line=line, path=path)
        reason = mod.allow_reason(code, line, line - 1)
        if reason is None:
            self.findings.append(finding)
        else:
            entry = {**finding.to_dict(), "suppressed_by": f"allow pragma: {reason}"}
            self.suppressed.append(entry)


def _syntax_error(path, exc: SyntaxError) -> Finding:
    line = exc.lineno or 0
    return Finding("E999", exc.msg, Severity.ERROR, "syntax", line=line, path=str(path))


def check_index(index: Index) -> BoundaryChecker:
    """The table and the predicates over every indexed module, plus E999
    for each file the index could not parse."""
    checker = BoundaryChecker()
    checker.findings += [_syntax_error(p, exc) for p, exc in index.unparsed]
    for mod in index.modules.values():
        checker.check(mod, str(mod.path.relative_to(index.root.parent)))
    return checker


def lint_file(path: Path) -> list:
    """Findings for one file, placed by its ``src/repro/...`` path; outside
    every ``src/repro`` tree only a syntax error counts."""
    path = Path(path)
    parts = path.parts
    homes = [i for i in range(len(parts)) if parts[i : i + 2] == ("src", "repro")]
    package = Path(*parts[: homes[-1] + 2]) if homes else path.parent
    try:
        mod = load_module(path, module_name(package, "repro", path))
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    if not homes:
        return []
    checker = BoundaryChecker()
    checker.check(mod, str(path))
    return checker.findings
