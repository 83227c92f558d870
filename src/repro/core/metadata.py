"""Metadata interface (MDI) with configurable caching.

The binder resolves Q variable references "by looking up associated
metadata in the metadata store ... executing a query against PG catalog"
(paper Section 3.2.3).  The paper's evaluation runs with metadata caching
enabled and notes the cache has "configurable invalidation policies and
cache expiration time" (Section 6) — both are implemented here and
exercised by the metadata-cache ablation benchmark.
"""

from __future__ import annotations

import bisect
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.concurrency.locks import make_lock
from repro.config import CacheInvalidation, MetadataCacheConfig
from repro.errors import MetadataError
from repro.obs import metrics
from repro.sqlengine.types import SqlType, type_from_name

#: process-wide MDI cache telemetry (the per-instance ``CacheStats``
#: remain for programmatic access; these feed the metrics export)
CACHE_LOOKUPS = metrics.counter(
    "mdi_cache_lookups_total", "Metadata cache lookups"
)
CACHE_HITS = metrics.counter("mdi_cache_hits_total", "Metadata cache hits")
CACHE_MISSES = metrics.counter(
    "mdi_cache_misses_total", "Metadata cache misses (backend catalog round trip)"
)
CACHE_INVALIDATIONS = metrics.counter(
    "mdi_cache_invalidations_total", "Metadata cache invalidations"
)


@dataclass
class ColumnMeta:
    name: str
    sql_type: SqlType
    type_text: str = ""


@dataclass
class TableMeta:
    """Catalog description of a backend relation as seen by the binder."""

    name: str
    columns: list[ColumnMeta]
    #: key columns, when the relation backs a Q keyed table
    keys: list[str] = field(default_factory=list)
    #: name of the implicit order column, if the relation carries one
    ordcol: str | None = None
    schema: str = "public"

    def column(self, name: str) -> ColumnMeta:
        for col in self.columns:
            if col.name == name:
                return col
        raise MetadataError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    @property
    def data_columns(self) -> list[ColumnMeta]:
        return [c for c in self.columns if c.name != self.ordcol]

    @cached_property
    def scan_columns(self) -> tuple[list, dict]:
        """The XTRA output columns of a scan of this relation and their
        name map, built once per description: the binder scans the same
        500-column tables statement after statement."""
        from repro.core.xtra.ops import XtraColumn

        columns = [
            XtraColumn(c.name, c.sql_type, nullable=True,
                       implicit=(c.name == self.ordcol))
            for c in self.columns
        ]
        return columns, {c.name: c for c in columns}


@dataclass(frozen=True)
class TablePartitioning:
    """How one table is spread across shards.

    ``strategy`` is ``"hash"`` (stable CRC32 of the key value's text) or
    ``"range"`` (``bounds`` are the ascending upper-exclusive split
    points; shard *i* holds values below ``bounds[i]``, the last shard
    holds the rest).  Tables absent from the :class:`PartitionMap` are
    *replicated*: every shard holds a full copy (the "broadcast small
    dimension tables" strategy — replication happens at load/DDL time, so
    joins against them are always shard-local).
    """

    table: str
    key: str
    strategy: str = "hash"
    bounds: tuple = ()

    def shard_for(self, value, shard_count: int) -> int:
        """Deterministic, process-stable shard assignment for one key
        value.  NULL keys go to shard 0 by convention."""
        if value is None:
            return 0
        if self.strategy == "range":
            return min(bisect.bisect_right(self.bounds, value), shard_count - 1)
        # hash: CRC32 over the text form — stable across processes and
        # Python runs (unlike builtin hash(), which is salted)
        return zlib.crc32(str(value).encode("utf-8")) % shard_count

    def fingerprint(self) -> tuple:
        return (self.table, self.key, self.strategy, tuple(self.bounds))


class PartitionMap:
    """table -> partition key -> shard assignment, for one topology.

    Carried through :class:`MetadataInterface` so the translation cache
    keys on it (``partition_fingerprint``): the same Q text translates to
    a *different* distributed plan under a different topology, and a
    cached plan must never leak across topologies.

    Routing logic built on this class may only be used from the
    distributed-rewrite pass and ``ShardedBackend`` (lint rule HQ007).
    """

    def __init__(self, shard_count: int, tables: list[TablePartitioning] | None = None):
        if shard_count < 1:
            raise MetadataError("a partition map needs at least one shard")
        self.shard_count = shard_count
        self._tables: dict[str, TablePartitioning] = {}
        for spec in tables or []:
            self.add(spec)

    def add(self, spec: TablePartitioning) -> None:
        self._tables[spec.table] = spec

    def hash_table(self, table: str, key: str) -> "PartitionMap":
        """Declare ``table`` hash-partitioned on ``key`` (chainable)."""
        self.add(TablePartitioning(table, key, "hash"))
        return self

    def range_table(self, table: str, key: str, bounds) -> "PartitionMap":
        self.add(TablePartitioning(table, key, "range", tuple(bounds)))
        return self

    def lookup(self, table: str) -> TablePartitioning | None:
        """Partitioning for ``table``; None means replicated everywhere."""
        return self._tables.get(table)

    def is_partitioned(self, table: str) -> bool:
        return table in self._tables

    @property
    def tables(self) -> dict[str, TablePartitioning]:
        return dict(self._tables)

    def shard_for(self, table: str, value) -> int | None:
        spec = self._tables.get(table)
        if spec is None:
            return None
        return spec.shard_for(value, self.shard_count)

    def fingerprint(self) -> tuple:
        """Hashable topology digest (translation-cache key component)."""
        return (
            self.shard_count,
            tuple(sorted(s.fingerprint() for s in self._tables.values())),
        )


class BackendPort:
    """Minimal interface the MDI needs from the backend connection.

    Implemented by the in-process gateway (direct engine calls) and the
    PG-wire gateway (network round trips).
    """

    def run_sql(self, sql: str):
        """Execute SQL, returning an object with .columns/.rows."""
        raise NotImplementedError

    def catalog_version(self) -> int:
        """Monotonic DDL version for cache invalidation; -1 if unknown."""
        return -1


class TableVersions:
    """Per-table monotonic write counters (result-cache invalidation).

    The backend catalog version only moves on DDL; DML leaves it alone.
    The result cache therefore keys on this *per-table* vector as well:
    a write to ``trades`` bumps only ``trades``, so cached results over
    ``quotes`` stay servable.  Owned by the :class:`MetadataInterface`
    (one per deployment — platform and server share their MDI across
    sessions), mutated only through the cache layer's execution choke
    point (``repro.cache.executor.QueryExecutor``).
    """

    def __init__(self):
        self._lock = make_lock("core.table_versions")
        self._versions: dict[str, int] = {}

    def version(self, table: str) -> int:
        with self._lock:
            return self._versions.get(table, 0)

    def bump(self, table: str) -> int:
        """Advance ``table``'s version; returns the new value."""
        with self._lock:
            value = self._versions.get(table, 0) + 1
            self._versions[table] = value
            return value

    def vector(self, tables) -> tuple:
        """Hashable (table, version) vector over ``tables``, sorted."""
        with self._lock:
            return tuple(
                (name, self._versions.get(name, 0))
                for name in sorted(set(tables))
            )


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MetadataInterface:
    """Resolves table metadata through the backend catalog, with caching."""

    def __init__(
        self,
        port: BackendPort,
        config: MetadataCacheConfig | None = None,
        key_annotations: dict[str, list[str]] | None = None,
    ):
        self.port = port
        self.config = config or MetadataCacheConfig()
        self.stats = CacheStats()
        self._cache: dict[str, tuple[float, int, TableMeta | None]] = {}
        #: per-table DML version counters (result-cache key component)
        self.table_versions = TableVersions()
        #: key-column annotations Hyper-Q maintains itself (PG has no notion
        #: of Q keyed tables); populated by the session on xkey/load
        self._key_annotations: dict[str, list[str]] = dict(key_annotations or {})

    @property
    def key_annotations(self) -> dict[str, list[str]]:
        """Copy of the keyed-table annotations (for sharing across MDIs)."""
        return dict(self._key_annotations)

    @property
    def partition_map(self) -> PartitionMap | None:
        """The backend's partition topology, when it is sharded.

        Surfaced from the port (``ShardedBackend`` exposes one; every
        single-node backend returns None) so the distributed-rewrite pass
        and the translation-cache key see the topology through the same
        MDI they already depend on.
        """
        return getattr(self.port, "partition_map", None)

    def partition_fingerprint(self) -> tuple:
        """Topology digest for the translation-cache key; () unsharded."""
        pmap = self.partition_map
        return pmap.fingerprint() if pmap is not None else ()

    # -- public API -----------------------------------------------------------

    def lookup_table(self, name: str) -> TableMeta | None:
        """Metadata for a backend relation, or None if it does not exist."""
        self.stats.lookups += 1
        CACHE_LOOKUPS.inc()
        if self.config.enabled:
            cached = self._cache_get(name)
            if cached is not _MISS:
                self.stats.hits += 1
                CACHE_HITS.inc()
                return cached  # type: ignore[return-value]
        self.stats.misses += 1
        CACHE_MISSES.inc()
        # sample the catalog version BEFORE the fetch: a concurrent DDL
        # landing between the two port reads would otherwise stamp a
        # pre-DDL TableMeta with the post-DDL version — an entry the
        # VERSION invalidation policy can never tell is stale.  Stamping
        # the pre-fetch version errs the safe way (a DDL during the
        # fetch makes the entry *look* stale and re-fetch).
        version = self.port.catalog_version()
        meta = self._fetch(name)
        if self.config.enabled:
            self._cache[name] = (time.monotonic(), version, meta)
        return meta

    def require_table(self, name: str) -> TableMeta:
        meta = self.lookup_table(name)
        if meta is None:
            raise MetadataError(
                f"relation {name!r} does not exist in the backend catalog"
            )
        return meta

    def catalog_version(self) -> int:
        """The backend's monotonic DDL version (-1 if unknown).

        Shared plumbing for both caches: the metadata cache's VERSION
        invalidation policy and the translation-cache key both read it.
        """
        return self.port.catalog_version()

    def table_version(self, name: str) -> int:
        """Monotonic DML version for one table (0 = never written)."""
        return self.table_versions.version(name)

    def bump_table_version(self, name: str) -> int:
        """Record a write to ``name``: stale result-cache entries keyed
        on the old (table, version) pair become unreachable."""
        return self.table_versions.bump(name)

    def table_version_vector(self, tables) -> tuple:
        """Hashable per-table version vector (result-cache key part)."""
        return self.table_versions.vector(tables)

    def annotate_keys(self, table: str, keys: list[str]) -> None:
        """Record Q key columns for a backend table (kept Hyper-Q-side)."""
        self._key_annotations[table] = list(keys)
        self.invalidate(table)

    def invalidate(self, name: str | None = None) -> None:
        if name is None:
            self._cache.clear()
        else:
            self._cache.pop(name, None)
        self.stats.invalidations += 1
        CACHE_INVALIDATIONS.inc()

    # -- cache ------------------------------------------------------------------

    def _cache_get(self, name: str):
        entry = self._cache.get(name)
        if entry is None:
            return _MISS
        stamp, version, meta = entry
        if self.config.invalidation == CacheInvalidation.ALWAYS:
            return _MISS
        if time.monotonic() - stamp > self.config.expiration_seconds:
            del self._cache[name]
            return _MISS
        if self.config.invalidation == CacheInvalidation.VERSION:
            current = self.port.catalog_version()
            if current != -1 and current != version:
                del self._cache[name]
                return _MISS
        return meta

    # -- backend lookup ------------------------------------------------------------

    def _fetch(self, name: str) -> TableMeta | None:
        result = self.port.run_sql(
            "SELECT table_schema, column_name, data_type "
            "FROM information_schema.columns "
            f"WHERE table_name = '{name}' ORDER BY ordinal_position"
        )
        if not result.rows:
            return None
        schema = result.rows[0][0]
        columns = []
        ordcol = None
        for __, column_name, type_text in result.rows:
            columns.append(
                ColumnMeta(column_name, type_from_name(type_text), type_text)
            )
            if column_name == "ordcol":
                ordcol = column_name
        return TableMeta(
            name,
            columns,
            keys=list(self._key_annotations.get(name, [])),
            ordcol=ordcol,
            schema=schema,
        )


_MISS = object()
