"""Configuration for the Hyper-Q platform.

Mirrors the knobs the paper describes: configurable metadata caching with
invalidation policies and expiration time (Section 6), the materialization
strategy for Q variable assignments (Section 4.3), and toggles for the
individual Xformer rules used by the ablation benchmarks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from enum import Enum


def _analysis_default_enabled() -> bool:
    """Analysis defaults off in production, on when ``REPRO_ANALYSIS`` is
    set (the test suite sets it so every translated statement is vetted)."""
    return os.environ.get("REPRO_ANALYSIS", "") not in ("", "0")


class MaterializationMode(Enum):
    """How Q variable assignments are materialized in the backend.

    ``LOGICAL`` keeps scalar definitions in Hyper-Q's variable store and
    maps table assignments to views; ``PHYSICAL`` creates temporary tables
    (required for correctness when assignments have side effects — the
    paper's Example 3 shows the temp-table translation).
    """

    LOGICAL = "logical"
    PHYSICAL = "physical"


class CacheInvalidation(Enum):
    """Metadata cache invalidation policy."""

    NONE = "none"  # trust the TTL only
    VERSION = "version"  # invalidate when the backend catalog version moves
    ALWAYS = "always"  # effectively disables the cache


@dataclass
class MetadataCacheConfig:
    enabled: bool = True
    expiration_seconds: float = 300.0
    invalidation: CacheInvalidation = CacheInvalidation.VERSION


@dataclass
class ObservabilityConfig:
    """Toggles for the :mod:`repro.obs` substrate.

    Metrics and tracing are on by default (the measured overhead on the
    Figure-6 translation workload is well under the 5% budget).  Disabling
    turns every registry update into a no-op, and keeps span wall-clock
    measurement (``StageTimings`` are part of the public API) but skips
    building and retaining the span tree.
    """

    enabled: bool = True


@dataclass
class XformerConfig:
    """Per-rule toggles; the ablation benches flip these.  Rules without
    a toggle here are always on."""

    two_valued_logic: bool = True
    column_pruning: bool = True
    filter_merge: bool = True

    def fingerprint(self) -> tuple:
        """Hashable digest of the toggles (translation-cache key part)."""
        return tuple(sorted(self.__dict__.items()))


@dataclass
class TranslationCacheConfig:
    """The translation cache: finished SQL keyed on (normalized Q source,
    scope fingerprint, catalog version, xformer config).  Repeat
    statements skip parse/bind/xform/serialize entirely; DDL invalidates
    through the backend catalog version (same plumbing as the MDI cache).
    """

    enabled: bool = True
    #: LRU bound on cached translations
    max_entries: int = 1024


@dataclass
class ResultCacheConfig:
    """The semantic result cache (docs/CACHING.md).

    Sits *above* the translation cache: where that cache skips
    parse/bind/xform/serialize, this one skips the backend entirely,
    serving the full ``ResultSet`` for a repeat read.  Keys combine the
    translated SQL with the catalog version, the per-table version
    vector of every referenced relation (so DML on ``trades`` never
    evicts results over ``quotes``), and the partition fingerprint.
    """

    enabled: bool = True
    #: byte budget for cached result payloads (LRU-evicted beyond it)
    max_bytes: int = 64 * 1024 * 1024
    #: seconds an entry may serve; a lookup drops an older one
    ttl_seconds: float = 300.0
    #: seconds a coalesced waiter blocks on the flight leader before
    #: giving up and executing on its own
    flight_timeout: float = 30.0
    #: size-aware admission floor: results produced faster than this many
    #: milliseconds are not cached (a probe costs about as much as
    #: re-executing, so caching them only churns the LRU); 0 admits all
    min_produce_ms: float = 0.0


@dataclass
class ServerConfig:
    """The event-loop connection core (docs/ARCHITECTURE.md).

    One reactor thread multiplexes every client connection through a
    ``selectors`` loop (the Erlang-actor stand-in at deployment scale);
    query execution runs on a bounded worker pool so a slow backend can
    never stall the accept/read loop.  Sizing the pool trades backend
    pressure against queueing: admission control (``WlmConfig.classes``)
    still bounds per-class concurrency inside the workers.
    """

    #: threads executing queries (the blocking boundary), hence the
    #: server-wide bound on concurrent queries; the loop itself never blocks
    worker_threads: int = 8
    #: bytes asked from the kernel per non-blocking recv
    recv_size: int = 64 * 1024
    #: cadence of the loop-lag heartbeat timer (server_loop_lag_ms)
    heartbeat_seconds: float = 0.5
    #: largest inbound frame a connection may buffer before it is dropped
    max_message_bytes: int = 64 * 1024 * 1024


@dataclass
class BackendPoolConfig:
    """Sizing for :class:`repro.core.backends.PooledBackend`."""

    #: maximum concurrently open backend connections
    size: int = 4
    #: seconds a session waits for a pooled connection before failing
    checkout_timeout: float = 5.0


@dataclass
class WlmClassPolicy:
    """Admission quota for one query class (docs/WLM.md).

    ``max_concurrency`` bounds in-flight queries of the class;
    ``max_queue`` bounds how many more may wait; ``enqueue_timeout``
    bounds how long a queued request waits for a slot before it is shed.
    """

    max_concurrency: int = 8
    max_queue: int = 64
    enqueue_timeout: float = 5.0


def _default_class_policies() -> dict:
    """Per-class defaults: cheap classes get wide quotas and short queue
    patience; materializing work is throttled hardest (it holds backend
    write locks and temp-table space)."""
    return {
        "admin": WlmClassPolicy(
            max_concurrency=8, max_queue=16, enqueue_timeout=1.0
        ),
        "point_lookup": WlmClassPolicy(
            max_concurrency=32, max_queue=128, enqueue_timeout=2.0
        ),
        "analytical": WlmClassPolicy(
            max_concurrency=16, max_queue=64, enqueue_timeout=5.0
        ),
        "materializing": WlmClassPolicy(
            max_concurrency=4, max_queue=32, enqueue_timeout=5.0
        ),
    }


@dataclass
class RetryConfig:
    """Backoff/retry policy for idempotent backend reads (repro/wlm/retry).

    Exponential backoff with full jitter, bounded attempts, and a global
    retry *budget* (token bucket refilled by successes) so a dying
    backend is not DDoS'd by its own clients.  Only idempotent reads are
    ever retried; writes surface their first failure.
    """

    enabled: bool = True
    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    #: tokens available before any success has been observed
    budget_min_tokens: float = 10.0
    #: deterministic jitter for tests; production leaves the default
    jitter_seed: int | None = None


@dataclass
class CircuitBreakerConfig:
    """Per-backend circuit breaker (closed -> open -> half-open)."""

    enabled: bool = True
    #: consecutive failures that trip the breaker open
    failure_threshold: int = 5
    #: seconds the breaker stays open before half-opening a probe
    reset_timeout: float = 5.0
    #: successful probes required to close again from half-open
    close_threshold: int = 1


def _parse_fault_spec(text: str) -> dict:
    """``seed=42,error_rate=0.3,latency_ms=200`` -> field dict."""
    values: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part or "=" not in part:
            continue
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            continue  # malformed part: ignore, never crash startup
        try:
            if key == "latency_ms":
                values["latency_seconds"] = float(raw) / 1000.0
            elif key == "slow_read_ms":
                values["slow_read_seconds"] = float(raw) / 1000.0
            elif key == "seed":
                values["seed"] = int(raw)
            else:
                values[key] = float(raw)
        except ValueError:
            continue
    if values:
        values["enabled"] = True
    return values


@dataclass
class FaultConfig:
    """Deterministic fault injection (repro/wlm/faults, docs/WLM.md).

    All rates are probabilities in [0, 1] drawn from one seeded RNG, so a
    fixed seed replays the same fault sequence.  Settable from the
    environment: ``REPRO_FAULTS="seed=42,error_rate=0.3,latency_rate=0.1,
    latency_ms=200"`` (``*_ms`` keys are milliseconds).
    """

    enabled: bool = False
    seed: int = 0
    #: inject added latency before the backend executes
    latency_rate: float = 0.0
    latency_seconds: float = 0.0
    #: drop the (simulated) backend connection: raises ConnectionError
    drop_rate: float = 0.0
    #: transient backend SQL error (SQLSTATE 53300, retryable)
    error_rate: float = 0.0
    #: slow down reading the result (the QIPC write-back stall)
    slow_read_rate: float = 0.0
    slow_read_seconds: float = 0.0

    @classmethod
    def from_env(cls, text: str | None = None) -> "FaultConfig":
        """Parse ``REPRO_FAULTS`` (or an explicit spec string)."""
        if text is None:
            text = os.environ.get("REPRO_FAULTS", "")
        if not text.strip():
            return cls()
        values = _parse_fault_spec(text)
        # unknown keys (typos like drop= for drop_rate=) are dropped, not
        # passed through: a malformed env var must never crash startup
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in values.items() if k in known})


@dataclass
class WlmConfig:
    """The workload-management & resilience subsystem (docs/WLM.md).

    Enabled by default: with no faults, no deadline and uncontended
    quotas the added cost is a few dict/lock operations per query (the
    ``bench_wlm_overhead`` budget is <5%).  Disabling restores the
    pre-WLM forward-everything behaviour.
    """

    enabled: bool = True
    #: per-class admission quotas, keyed by QueryClass value
    classes: dict = field(default_factory=_default_class_policies)
    #: default per-request deadline in seconds; 0 disables deadlines
    default_deadline: float = 0.0
    #: socket connect timeout for outbound gateways (client + PG wire)
    connect_timeout: float = 10.0
    #: socket read timeout for the PG gateway; 0 means no read timeout
    #: (a live deadline still caps every read)
    read_timeout: float = 0.0
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: CircuitBreakerConfig = field(
        default_factory=CircuitBreakerConfig
    )
    faults: FaultConfig = field(default_factory=FaultConfig.from_env)

    def gateway_timeouts(self) -> dict:
        """Keyword arguments for :class:`repro.server.gateway.NetworkGateway`
        (and :class:`repro.server.client.QConnection`) timeout plumbing."""
        return {
            "connect_timeout": self.connect_timeout,
            "read_timeout": self.read_timeout or None,
        }


@dataclass
class ShardingConfig:
    """The sharded scatter-gather backend (docs/ARCHITECTURE.md).

    Governs the shards under :class:`repro.core.sharded.ShardedBackend`:
    what hosts each shard and how often a crashed worker process is
    respawned.  Retries, breakers and fault injection per shard come from
    :class:`WlmConfig` through the deployment's one workload manager, not
    from here.  The partition layout itself lives in a
    :class:`repro.core.metadata.PartitionMap` — the map is part of the
    topology (and of the translation-cache key), the knobs below are
    deployment tuning.
    """

    #: shard execution substrate: ``"thread"`` hosts every shard engine
    #: in-process (one core, GIL-bound arithmetic); ``"process"`` spawns
    #: one worker process per shard, reached over an inherited socketpair
    #: (:mod:`repro.core.procshard`) for true multi-core scatter
    mode: str = "thread"
    #: crashed worker processes a shard may respawn before the failure is
    #: surfaced as permanent (SQLSTATE 58000, not retried)
    max_respawns: int = 3


@dataclass
class AnalysisConfig:
    """The :mod:`repro.analysis` static-analysis subsystem.

    When ``enabled``, the translation pipeline gains an ``analyze`` pass
    (pre-bind qcheck rules over the Q AST) and verifies XTRA invariants on
    the operator tree after every pass.  Findings are recorded in the
    ``analysis_findings_total`` metric; only QC004 (a construct that
    provably has no XTRA mapping) raises
    :class:`repro.errors.UntranslatableError`.
    """

    enabled: bool = field(default_factory=_analysis_default_enabled)


@dataclass
class HyperQConfig:
    metadata_cache: MetadataCacheConfig = field(default_factory=MetadataCacheConfig)
    translation_cache: TranslationCacheConfig = field(
        default_factory=TranslationCacheConfig
    )
    result_cache: ResultCacheConfig = field(default_factory=ResultCacheConfig)
    backend_pool: BackendPoolConfig = field(default_factory=BackendPoolConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    xformer: XformerConfig = field(default_factory=XformerConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    wlm: WlmConfig = field(default_factory=WlmConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    materialization: MaterializationMode = MaterializationMode.PHYSICAL
