"""The translation pipeline: Figure 1 as an explicit compiler-pass manager.

The paper describes Hyper-Q as a staged compiler — parse, bind
(Algebrizer), transform (Xformer), serialize — in front of an
interchangeable execution target.  This module makes those stages
first-class:

* :class:`TranslationUnit` is the intermediate representation that flows
  through the stages: Q text -> AST -> bound XTRA -> transformed XTRA ->
  SQL, carrying per-stage spans, rule applications, and diagnostics;
* :class:`TranslationPipeline` is the pass manager.  Passes are
  registered by name, ordered, and individually traceable (each run is a
  ``pass.<name>`` tracing span plus a :class:`StageRecord` on the unit);
* :class:`TranslationCache` memoizes finished translations keyed on the
  normalized Q source, a fingerprint of the visible variable scopes, the
  backend catalog version, and the Xformer configuration — repeat
  statements skip parse/bind/xform/serialize entirely.

Layering rule (enforced by ``scripts/concheck.py``, rule HQ001): the
pipeline is the only production module allowed to construct a
:class:`~repro.core.algebrizer.binder.Binder` or a
:class:`~repro.core.serializer.Serializer` — every other layer goes
through a pipeline instance.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.analysis.concurrency.locks import make_lock
from repro.analysis.framework import QueryAnalyzer
from repro.analysis.invariants import check_operator_tree
from repro.config import HyperQConfig, TranslationCacheConfig
from repro.core.algebrizer.binder import Binder, BoundScalar
from repro.core.metadata import MetadataInterface
from repro.core.scopes import Scope
from repro.core.serializer import Serializer
from repro.core.xformer.framework import Xformer
from repro.core.xtra.ops import XtraGet, walk
from repro.errors import InvariantError, TranslationError, UntranslatableError
from repro.obs import metrics, tracing
from repro.qlang import ast

#: per-stage translation latency (Figure 7), labelled stage=parse|
#: algebrize|optimize|serialize; shared with the session's parse stage
STAGE_SECONDS = metrics.histogram(
    "hyperq_stage_seconds",
    "Wall-clock seconds spent per translation stage",
)

#: translation-cache telemetry (mirrors the MDI cache families)
TRANSLATION_CACHE_HITS = metrics.counter(
    "hyperq_translation_cache_hits_total",
    "Translations served from the translation cache",
)
TRANSLATION_CACHE_MISSES = metrics.counter(
    "hyperq_translation_cache_misses_total",
    "Translations that ran the full pipeline",
)
TRANSLATION_CACHE_EVICTIONS = metrics.counter(
    "hyperq_translation_cache_evictions_total",
    "Cache entries evicted by the LRU bound",
)
TRANSLATION_CACHE_ENTRIES = metrics.gauge(
    "hyperq_translation_cache_entries",
    "Entries currently held by the translation cache",
)

#: static-analysis telemetry, labelled by rule code (QC0xx / XI00x)
ANALYSIS_FINDINGS = metrics.counter(
    "analysis_findings_total",
    "qcheck findings reported by the analyze pass",
)
ANALYSIS_INVARIANT_VIOLATIONS = metrics.counter(
    "analysis_invariant_violations_total",
    "XTRA invariant violations detected after pipeline passes",
)


@dataclass
class StageTimings:
    """Per-stage wall-clock seconds for one translation (Figure 7).

    ``analyze`` bills the opt-in static-analysis pass; it stays 0.0 in
    the paper's four-stage split when analysis is disabled.
    """

    parse: float = 0.0
    analyze: float = 0.0
    algebrize: float = 0.0
    optimize: float = 0.0
    serialize: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.parse
            + self.analyze
            + self.algebrize
            + self.optimize
            + self.serialize
        )

    def add(self, other: "StageTimings") -> None:
        self.parse += other.parse
        self.analyze += other.analyze
        self.algebrize += other.algebrize
        self.optimize += other.optimize
        self.serialize += other.serialize


@contextmanager
def stage_span(timings: StageTimings, stage: str, name: str | None = None):
    """Time one pipeline stage through the tracer.

    One measurement feeds all three consumers: the trace span (``name``,
    default ``stage.<stage>``, with a ``stage`` attr), the
    ``hyperq_stage_seconds`` histogram, and the corresponding
    :class:`StageTimings` field — so timings and spans agree exactly.
    """
    with tracing.span(name or f"stage.{stage}", stage=stage) as span:
        yield span
    setattr(timings, stage, getattr(timings, stage) + span.duration)
    STAGE_SECONDS.observe(span.duration, stage=stage)


@dataclass
class TranslationResult:
    """Everything the pipeline produces for one Q statement."""

    sql: str
    shape: str
    keys: list[str]
    timings: StageTimings
    rule_applications: dict[str, int] = field(default_factory=dict)
    #: the message's admission class, a billing label only: cached
    #: entries replay it so cache hits bill the right quota
    query_class: str = "analytical"
    #: backend relations the statement reads (XtraGet scans, collected
    #: at serialize time) — the result cache keys on their versions
    tables: list[str] = field(default_factory=list)


@dataclass
class StageRecord:
    """One pass execution on one unit (name + wall-clock seconds)."""

    name: str
    seconds: float


@dataclass
class TranslationUnit:
    """The IR that flows through the pipeline for one Q statement.

    Each pass reads the fields its predecessors filled and writes its
    own: ``statement`` (AST, from the parser) -> ``bound`` (XTRA, from
    the bind pass) -> ``bound`` rewritten in place (xform pass) ->
    ``sql``/``shape``/``keys`` (serialize pass).
    """

    statement: ast.Node
    scope: Scope
    timings: StageTimings
    #: the rows go straight back to the client (``Binder.bind``'s
    #: ``result``); False for assignment values, arguments, insert sources
    result: bool = True
    bound: object | None = None
    sql: str | None = None
    shape: str | None = None
    keys: list[str] = field(default_factory=list)
    #: relations scanned by the bound tree (filled by the serialize pass)
    tables: list[str] = field(default_factory=list)
    rule_applications: dict[str, int] = field(default_factory=dict)
    #: free-form notes passes leave for diagnostics / error reporting
    diagnostics: list[str] = field(default_factory=list)
    #: per-pass execution trace, in run order
    stages: list[StageRecord] = field(default_factory=list)
    #: admission class: copied from the request context, which the
    #: session billed; ``analytical`` when none is set
    query_class: str = "analytical"

    def to_result(self) -> TranslationResult:
        if self.sql is None or self.shape is None:
            raise TranslationError(
                "translation unit did not reach the serialize pass "
                f"(stages run: {[s.name for s in self.stages]})"
            )
        return TranslationResult(
            sql=self.sql,
            shape=self.shape,
            keys=list(self.keys),
            timings=self.timings,
            rule_applications=dict(self.rule_applications),
            query_class=self.query_class,
            tables=list(self.tables),
        )


def referenced_tables(op) -> list[str]:
    """Backend relations scanned by a bound XTRA tree, sorted unique.

    Walked at serialize time so every :class:`TranslationResult` carries
    the read set its SQL depends on — the result cache keys on the
    per-table version vector over exactly these names.
    """
    return sorted({
        node.table for node in walk(op) if isinstance(node, XtraGet)
    })


class Pass:
    """One named, ordered pipeline stage; subclasses override :meth:`run`.

    ``stage`` names the :class:`StageTimings` bucket the pass bills its
    wall-clock time to (the Figure-7 stage split).
    """

    name = "pass"
    stage = "optimize"

    def run(self, unit: TranslationUnit, pipeline: "TranslationPipeline") -> None:
        raise NotImplementedError


class AnalyzePass(Pass):
    """Pre-bind static analysis: run the qcheck rules over the AST.

    Findings are recorded on the unit's diagnostics and the
    ``analysis_findings_total`` metric; only fatal QC004 findings
    (constructs with no XTRA mapping) abort the translation, as a
    structured :class:`~repro.errors.UntranslatableError` raised before
    the binder ever runs.
    """

    name = "analyze"
    stage = "analyze"

    def run(self, unit: TranslationUnit, pipeline: "TranslationPipeline") -> None:
        findings = pipeline.analyzer.analyze_statement(
            unit.statement, unit.scope
        )
        for finding in findings:
            ANALYSIS_FINDINGS.inc(rule=finding.code)
            unit.diagnostics.append(finding.render())
        for finding in findings:
            if finding.fatal:
                raise UntranslatableError(
                    finding.message,
                    category=finding.category or "missing-feature",
                    construct=finding.rule,
                )


class BindPass(Pass):
    """Algebrize: AST -> bound XTRA through the scope chain + MDI."""

    name = "bind"
    stage = "algebrize"

    def run(self, unit: TranslationUnit, pipeline: "TranslationPipeline") -> None:
        unit.bound = pipeline.binder(unit.scope).bind(
            unit.statement, result=unit.result
        )


class XformPass(Pass):
    """Transform: apply the configured Xformer rules, record rule hits."""

    name = "xform"
    stage = "optimize"

    def run(self, unit: TranslationUnit, pipeline: "TranslationPipeline") -> None:
        bound = unit.bound
        if bound is None:
            raise TranslationError("xform pass ran before the bind pass")
        if isinstance(bound, BoundScalar):
            return  # scalars carry no relational tree to rewrite
        op, ctx = pipeline.xformer.transform(bound.op, bound.shape)
        bound.op = op
        unit.rule_applications = dict(ctx.applications)


class SerializePass(Pass):
    """Serialize: transformed XTRA -> final PG SQL text."""

    name = "serialize"
    stage = "serialize"

    def run(self, unit: TranslationUnit, pipeline: "TranslationPipeline") -> None:
        bound = unit.bound
        if bound is None:
            raise TranslationError("serialize pass ran before the bind pass")
        if isinstance(bound, BoundScalar):
            unit.sql = pipeline.serializer.serialize_scalar_statement(
                bound.scalar
            )
            unit.shape = "atom"
            unit.keys = []
            unit.tables = []
        else:
            unit.sql = pipeline.serializer.serialize(bound.op)
            unit.shape = bound.shape
            unit.keys = list(bound.keys)
            unit.tables = referenced_tables(bound.op)


def default_passes() -> list[Pass]:
    return [BindPass(), XformPass(), SerializePass()]


class TranslationPipeline:
    """The pass manager: owns the Binder/Xformer/Serializer machinery and
    drives a :class:`TranslationUnit` through the registered passes.

    Built once per session; the active scope is passed per call, so the
    pipeline itself holds no per-statement state.
    """

    def __init__(
        self,
        mdi: MetadataInterface,
        config: HyperQConfig | None = None,
        xformer: Xformer | None = None,
        passes: list[Pass] | None = None,
    ):
        self.mdi = mdi
        self.config = config or HyperQConfig()
        self.xformer = xformer or Xformer(self.config.xformer)
        self.serializer = Serializer()
        self.analyzer = QueryAnalyzer(mdi=mdi, config=self.config)
        self._passes: list[Pass] = []
        if passes is None:
            passes = default_passes()
            if self.config.analysis.enabled:
                passes.insert(0, AnalyzePass())
            # the distributed-rewrite pass is always registered; it
            # no-ops unless the MDI carries a partition map (import is
            # deferred: distributed.py subclasses Pass from this module)
            from repro.core.xformer.distributed import DistributePass

            passes.append(DistributePass())
        for p in passes:
            self.register_pass(p)

    # -- pass registry ---------------------------------------------------------

    @property
    def passes(self) -> list[Pass]:
        return list(self._passes)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self._passes]

    def register_pass(
        self,
        new_pass: Pass,
        before: str | None = None,
        after: str | None = None,
    ) -> None:
        """Insert a pass; default position is the end of the order."""
        if new_pass.name in self.pass_names:
            raise TranslationError(
                f"pipeline already has a pass named {new_pass.name!r}"
            )
        if before is not None and after is not None:
            raise TranslationError("register_pass takes before= or after=, not both")
        anchor = before or after
        if anchor is None:
            self._passes.append(new_pass)
            return
        names = self.pass_names
        if anchor not in names:
            raise TranslationError(f"no pass named {anchor!r} to anchor on")
        index = names.index(anchor) + (0 if before else 1)
        self._passes.insert(index, new_pass)

    # -- construction choke points (layering rule HQ001) -----------------------

    def binder(self, scope: Scope) -> Binder:
        """The one place production code builds a Binder (fresh per bind:
        the binder carries per-statement name-generation state)."""
        return Binder(self.mdi, scope, self.config)

    # -- driving ---------------------------------------------------------------

    def translate(
        self,
        statement: ast.Node,
        scope: Scope,
        timings: StageTimings | None = None,
        result: bool = True,
    ) -> TranslationUnit:
        """Run one Q expression through every registered pass.

        Reads, assignment values, function arguments and insert sources
        all come through here; the last three pass ``result=False``.
        """
        unit = TranslationUnit(
            statement=statement,
            scope=scope,
            timings=timings if timings is not None else StageTimings(),
            result=result,
        )
        context = tracing.current_context()
        deadline = context.deadline if context is not None else None
        # the session's class for the whole message, when it billed one
        unit.query_class = getattr(context, "query_class", None) or "analytical"
        check_invariants = self.config.analysis.enabled
        for p in self._passes:
            if deadline is not None:
                deadline.check(f"pass.{p.name}")
            with stage_span(unit.timings, p.stage, f"pass.{p.name}") as span:
                p.run(unit, self)
            if check_invariants:
                self._check_invariants(unit, p.name, span)
            unit.stages.append(StageRecord(p.name, span.duration))
        return unit

    @staticmethod
    def _check_invariants(unit: TranslationUnit, pass_name: str, span) -> None:
        """Verify XTRA invariants on the tree ``pass_name`` just produced.

        Attribution is the point: the error and the trace span both name
        the pass whose *output* is broken, so a buggy xformer rule shows
        up as ``xform``, not as a mysterious serializer failure later.
        """
        bound = unit.bound
        op = getattr(bound, "op", None)
        if op is None:
            return  # nothing bound yet, or a scalar-only statement
        violations = check_operator_tree(op)
        if not violations:
            return
        span.attrs["invariant_violations"] = len(violations)
        span.attrs["violating_pass"] = pass_name
        for violation in violations:
            ANALYSIS_INVARIANT_VIOLATIONS.inc(rule=violation.code)
        rendered = "; ".join(v.render() for v in violations)
        raise InvariantError(
            f"pass {pass_name!r} produced an XTRA tree violating "
            f"{len(violations)} invariant(s): {rendered}",
            pass_name=pass_name,
            violations=violations,
        )


# ---------------------------------------------------------------------------
# The translation cache
# ---------------------------------------------------------------------------


def normalize_q_source(text: str) -> str:
    """Collapse insignificant whitespace in Q text, preserving strings.

    Runs of whitespace outside double-quoted string literals become a
    single space; quoted content (including ``\\"`` escapes) is kept
    verbatim, so two sources normalize equal only if they tokenize the
    same way.
    """
    out: list[str] = []
    in_string = False
    pending_space = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < len(text):
                out.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            if pending_space and out:
                out.append(" ")
            pending_space = False
            in_string = True
            out.append(ch)
            i += 1
            continue
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch)
        i += 1
    return "".join(out)


def scope_fingerprint(scope: Scope) -> tuple:
    """A hashable digest of every variable binding visible from ``scope``.

    Two scope states fingerprint equal only when every visible definition
    (name, kind, backing relation, shape, function source, scalar value)
    agrees — the condition under which a cached translation stays valid.
    """
    parts: list[tuple] = []
    level: Scope | None = scope
    while level is not None:
        for name, definition in sorted(level.local_entries().items()):
            parts.append(
                (
                    level.level_name,
                    name,
                    definition.kind.value,
                    definition.relation or "",
                    definition.shape or "",
                    definition.source or "",
                    repr(definition.value) if definition.value is not None else "",
                )
            )
        level = level.parent
    return tuple(parts)


class TranslationCache:
    """LRU cache of finished translations (the plan cache of the staged-
    optimizer literature, applied to cross-compilation).

    Keys combine the normalized Q source with everything else a
    translation depends on: the scope fingerprint, the backend catalog
    version (DDL anywhere invalidates, through the existing
    ``MetadataInterface`` catalog-version plumbing), the Xformer
    fingerprint, and the MDI's keyed-table annotations.
    """

    def __init__(self, config: TranslationCacheConfig | None = None):
        self.config = config or TranslationCacheConfig()
        self._lock = make_lock("core.translation_cache")
        self._entries: OrderedDict[tuple, TranslationResult] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def key_for(
        self,
        q_text: str,
        scope: Scope,
        mdi: MetadataInterface,
        xformer: Xformer,
    ) -> tuple:
        return (
            normalize_q_source(q_text),
            scope_fingerprint(scope),
            mdi.catalog_version(),
            xformer.fingerprint(),
            tuple(sorted(
                (table, tuple(keys))
                for table, keys in mdi.key_annotations.items()
            )),
            # topology digest: a plan scattered for one shard layout must
            # never be replayed against another
            mdi.partition_fingerprint(),
        )

    def get(self, key: tuple) -> TranslationResult | None:
        if not self.config.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                TRANSLATION_CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            TRANSLATION_CACHE_HITS.inc()
            return entry

    def put(self, key: tuple, result: TranslationResult) -> None:
        if not self.config.enabled:
            return
        # store an entry detached from the live outcome's mutable state
        entry = replace(
            result,
            keys=list(result.keys),
            timings=StageTimings(),
            rule_applications=dict(result.rule_applications),
            tables=list(result.tables),
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.config.max_entries:
                self._entries.popitem(last=False)
                TRANSLATION_CACHE_EVICTIONS.inc()
            TRANSLATION_CACHE_ENTRIES.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            TRANSLATION_CACHE_ENTRIES.set(0)
