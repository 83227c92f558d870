"""The settable surface of ``HyperQConfig`` is pinned.

Every value a caller can set — nested dataclass fields and each entry of
the per-class WLM policy dict — is listed below.  Adding a knob (or
dropping one) is therefore a visible diff in this file: a new value
should arrive with the caller that sets it off its default.
"""

import dataclasses

from repro.config import HyperQConfig

SETTABLE = """
analysis.enabled
backend_pool.checkout_timeout
backend_pool.size
materialization
metadata_cache.enabled
metadata_cache.expiration_seconds
metadata_cache.invalidation
observability.enabled
result_cache.enabled
result_cache.flight_timeout
result_cache.max_bytes
result_cache.min_produce_ms
result_cache.ttl_seconds
server.heartbeat_seconds
server.max_message_bytes
server.recv_size
server.worker_threads
sharding.max_respawns
sharding.mode
translation_cache.enabled
translation_cache.max_entries
wlm.breaker.close_threshold
wlm.breaker.enabled
wlm.breaker.failure_threshold
wlm.breaker.reset_timeout
wlm.classes[admin].enqueue_timeout
wlm.classes[admin].max_concurrency
wlm.classes[admin].max_queue
wlm.classes[analytical].enqueue_timeout
wlm.classes[analytical].max_concurrency
wlm.classes[analytical].max_queue
wlm.classes[materializing].enqueue_timeout
wlm.classes[materializing].max_concurrency
wlm.classes[materializing].max_queue
wlm.classes[point_lookup].enqueue_timeout
wlm.classes[point_lookup].max_concurrency
wlm.classes[point_lookup].max_queue
wlm.connect_timeout
wlm.default_deadline
wlm.enabled
wlm.faults.drop_rate
wlm.faults.enabled
wlm.faults.error_rate
wlm.faults.latency_rate
wlm.faults.latency_seconds
wlm.faults.seed
wlm.faults.slow_read_rate
wlm.faults.slow_read_seconds
wlm.read_timeout
wlm.retry.base_delay
wlm.retry.budget_min_tokens
wlm.retry.enabled
wlm.retry.jitter_seed
wlm.retry.max_attempts
wlm.retry.max_delay
xformer.column_pruning
xformer.filter_merge
xformer.two_valued_logic
""".split()


def settable_paths(value, prefix=""):
    """Dotted paths of every leaf value reachable from ``value``."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            path = f"{prefix}.{f.name}" if prefix else f.name
            yield from settable_paths(getattr(value, f.name), path)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from settable_paths(item, f"{prefix}[{key}]")
    else:
        yield prefix


def test_settable_surface_is_pinned():
    assert len(SETTABLE) == 58
    assert sorted(settable_paths(HyperQConfig())) == sorted(SETTABLE)
