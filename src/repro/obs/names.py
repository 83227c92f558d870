"""Central registry of metric family names.

Every family name passed to :func:`repro.obs.metrics.counter` / ``gauge`` /
``histogram`` anywhere under ``src/`` must be declared here.  The lint rule
HQ003 (``repro/analysis/boundaries.py``) enforces the invariant, which
turns metric-name typos — the classic "dashboard silently shows zero"
failure — into lint errors.

Grouped by subsystem; each constant's value is the Prometheus-style family
name exactly as it appears at the declaration site.
"""

from __future__ import annotations

# --- servers (QIPC endpoint + PG wire server share the family names) ----
SERVER_ACTIVE_SESSIONS = "server_active_sessions"
SERVER_QUERIES_TOTAL = "server_queries_total"
SERVER_ERRORS_TOTAL = "server_errors_total"
SERVER_QUERY_SECONDS = "server_query_seconds"

# --- event-loop connection core (repro/server/reactor) ------------------
SERVER_CONNECTIONS_OPEN = "server_connections_open"
SERVER_LOOP_LAG_MS = "server_loop_lag_ms"
SERVER_WORKER_QUEUE_DEPTH = "server_worker_queue_depth"

# --- wire protocols -----------------------------------------------------
QIPC_BYTES_TOTAL = "qipc_bytes_total"
QIPC_MESSAGES_TOTAL = "qipc_messages_total"
QIPC_COMPRESSION_RATIO = "qipc_compression_ratio"
PGWIRE_BYTES_TOTAL = "pgwire_bytes_total"
PGWIRE_MESSAGES_TOTAL = "pgwire_messages_total"

# --- session + translation pipeline -------------------------------------
HYPERQ_RUNS_TOTAL = "hyperq_runs_total"
HYPERQ_STAGE_SECONDS = "hyperq_stage_seconds"
TRANSLATION_CACHE_HITS_TOTAL = "hyperq_translation_cache_hits_total"
TRANSLATION_CACHE_MISSES_TOTAL = "hyperq_translation_cache_misses_total"
TRANSLATION_CACHE_EVICTIONS_TOTAL = "hyperq_translation_cache_evictions_total"
TRANSLATION_CACHE_ENTRIES = "hyperq_translation_cache_entries"
HYPERQ_MATERIALIZATIONS_TOTAL = "hyperq_materializations_total"

# --- metadata interface cache -------------------------------------------
MDI_CACHE_LOOKUPS_TOTAL = "mdi_cache_lookups_total"
MDI_CACHE_HITS_TOTAL = "mdi_cache_hits_total"
MDI_CACHE_MISSES_TOTAL = "mdi_cache_misses_total"
MDI_CACHE_INVALIDATIONS_TOTAL = "mdi_cache_invalidations_total"

# --- backend connection pool --------------------------------------------
BACKEND_POOL_CONNECTIONS = "backend_pool_connections"
BACKEND_POOL_IN_USE = "backend_pool_in_use"
BACKEND_POOL_CHECKOUT_TIMEOUTS_TOTAL = "backend_pool_checkout_timeouts_total"
BACKEND_POOL_REPLACEMENTS_TOTAL = "backend_pool_replacements_total"
BACKEND_POOL_CHECKOUT_SECONDS = "backend_pool_checkout_seconds"

# --- static analysis -----------------------------------------------------
ANALYSIS_FINDINGS_TOTAL = "analysis_findings_total"
ANALYSIS_INVARIANT_VIOLATIONS_TOTAL = "analysis_invariant_violations_total"

# --- concurrency lockcheck harness (repro/analysis/concurrency/locks) ----
CONCURRENCY_LOCK_ACQUISITIONS = "concurrency_lock_acquisitions"
CONCURRENCY_LOCK_ORDER_EDGES = "concurrency_lock_order_edges"
CONCURRENCY_LOCK_CYCLES = "concurrency_lock_cycles"
CONCURRENCY_REACTOR_LONG_HOLDS = "concurrency_reactor_long_holds"

# --- workload management & resilience (repro/wlm, docs/WLM.md) ----------
WLM_CLASSIFIED_TOTAL = "wlm_classified_total"
WLM_ADMITTED_TOTAL = "wlm_admitted_total"
WLM_SHED_TOTAL = "wlm_shed_total"
WLM_ACTIVE_QUERIES = "wlm_active_queries"
WLM_QUEUE_DEPTH = "wlm_queue_depth"
WLM_QUEUED_SECONDS = "wlm_queued_seconds"
WLM_DEADLINE_EXCEEDED_TOTAL = "wlm_deadline_exceeded_total"
WLM_RETRIES_TOTAL = "wlm_retries_total"
WLM_RETRY_GIVEUPS_TOTAL = "wlm_retry_giveups_total"
WLM_BREAKER_STATE = "wlm_breaker_state"
WLM_BREAKER_TRANSITIONS_TOTAL = "wlm_breaker_transitions_total"
WLM_BREAKER_REJECTIONS_TOTAL = "wlm_breaker_rejections_total"
WLM_FAULTS_INJECTED_TOTAL = "wlm_faults_injected_total"

# --- semantic result cache (repro/cache) --------------------------------
RCACHE_LOOKUPS_TOTAL = "rcache_lookups_total"
RCACHE_HITS_TOTAL = "rcache_hits_total"
RCACHE_MISSES_TOTAL = "rcache_misses_total"
RCACHE_EVICTIONS_TOTAL = "rcache_evictions_total"
RCACHE_INVALIDATIONS_TOTAL = "rcache_invalidations_total"
RCACHE_COALESCED_TOTAL = "rcache_coalesced_total"
RCACHE_BYPASS_TOTAL = "rcache_bypass_total"
RCACHE_SKIPPED_CHEAP_TOTAL = "rcache_skipped_cheap_total"
RCACHE_REPLY_HITS_TOTAL = "rcache_reply_hits_total"
RCACHE_BYTES = "rcache_bytes"
RCACHE_ENTRIES = "rcache_entries"

# --- sharded scatter-gather execution (repro/core/sharded) --------------
SHARD_PLANS_TOTAL = "shard_plans_total"
SHARD_FANOUT_TOTAL = "shard_fanout_total"
SHARD_QUERIES_TOTAL = "shard_queries_total"
SHARD_ERRORS_TOTAL = "shard_errors_total"
SHARD_LATENCY_SECONDS = "shard_latency_seconds"
SHARD_MERGE_ROWS_TOTAL = "shard_merge_rows_total"

# --- process shard workers (repro/core/procshard) -----------------------
SHARD_PROC_SPAWNS_TOTAL = "shard_proc_spawns_total"
SHARD_PROC_RESTARTS_TOTAL = "shard_proc_restarts_total"

#: every declared family name, for HQ003's membership check
ALL_METRIC_NAMES = frozenset(
    value for key, value in vars().items()
    if key.isupper() and isinstance(value, str)
)
