"""The caching subsystem (docs/CACHING.md, ROADMAP item 5).

One layer above the translation cache:
:class:`~repro.cache.result_cache.ResultCache`, a semantic result cache
keyed on (translated SQL, catalog version, per-table version vector,
partition fingerprint) that serves full ``ResultSet``\\ s without
touching the backend.  It is driven through
:class:`~repro.cache.executor.QueryExecutor`, the single choke point
session code uses to reach the backend (lint rule HQ009).
"""

from repro.cache.executor import QueryExecutor
from repro.cache.result_cache import ResultCache

__all__ = ["QueryExecutor", "ResultCache"]
