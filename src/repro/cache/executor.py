"""The query executor: every backend call from session code goes here.

Lint rule HQ009 forbids session/PT code from calling ``backend.run_sql``
directly — the executor is the one place that knows, for each statement,

* whether the result cache may serve or fill it (private relations
  never; version-keyed lookup, single-flight coalescing);
* which per-table version counters a write must bump so stale cached
  results become unreachable.

Every translated statement is a read, whatever WLM class it was billed;
writes (inserts, materializations, promotions, drops) come through
:meth:`QueryExecutor.run_sql` with the relations they write.
"""

from __future__ import annotations

from repro.cache.result_cache import ResultCache, Served
from repro.core.materialize import TEMP_TABLE_PREFIX, VIEW_PREFIX
from repro.core.metadata import MetadataInterface
from repro.core.pipeline import TranslationResult
from repro.obs import metrics
from repro.sqlengine.executor import ResultSet

RCACHE_BYPASS = metrics.counter(
    "rcache_bypass_total",
    "Statements executed around the result cache (off, or private data)",
)

#: session-private relation prefixes: their names repeat across sessions
#: (``hq_temp_1`` means something different per connection), so results
#: over them must never enter the shared cache
_PRIVATE_PREFIXES = (TEMP_TABLE_PREFIX, VIEW_PREFIX)


class QueryExecutor:
    """Per-session execution choke point over one backend connection.

    The result cache and MDI are deployment-shared.  The cache is
    optional: without it the executor is a plain ``backend.run_sql``
    passthrough that still bumps table versions on writes.
    """

    def __init__(
        self,
        backend,
        mdi: MetadataInterface,
        result_cache: ResultCache | None = None,
    ):
        self.backend = backend
        self.mdi = mdi
        self.result_cache = result_cache

    # -- the translated-statement path ----------------------------------------

    def execute(self, translation: TranslationResult) -> ResultSet:
        """Run one translated statement through the result cache."""
        return self.serve(translation).result

    def serve(self, translation: TranslationResult,
              want_reply: bool = False) -> Served:
        """:meth:`execute` for the server's wire path.

        The result cache first, then the backend.  Only a cacheable
        read's answer carries a memo, and with ``want_reply`` a hit on
        an entry holding a reply frame answers with the frame.
        """
        if not self._cacheable(translation):
            RCACHE_BYPASS.inc()
            if self.result_cache is not None:
                self.result_cache.count_bypass()
            return Served(self.backend.run_sql(translation.sql))
        key = ResultCache.key_for(translation, self.mdi)
        return self.result_cache.serve(
            key,
            translation.tables,
            lambda: self.backend.run_sql(translation.sql),
            want_reply,
        )

    def _cacheable(self, translation: TranslationResult) -> bool:
        if self.result_cache is None or not self.result_cache.enabled:
            return False
        return not any(
            table.startswith(_PRIVATE_PREFIXES) for table in translation.tables
        )

    # -- the raw-SQL path ------------------------------------------------------

    def run_sql(self, sql: str, invalidates=()) -> ResultSet:
        """Execute SQL that did not come out of the translator.

        ``invalidates`` names the relations the statement writes; their
        version counters are bumped and dependent cached results
        dropped.  Reads through this door never consult the cache.
        """
        result = self.backend.run_sql(sql)
        if invalidates:
            self._record_write(invalidates)
        return result

    def _record_write(self, tables) -> None:
        for table in set(tables):
            self.mdi.bump_table_version(table)
        if self.result_cache is not None:
            self.result_cache.on_write(tables)
