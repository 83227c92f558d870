"""The semantic result cache (docs/CACHING.md).

At the paper's deployment position — always-on middleware between
thousands of dashboard clients and the warehouse — most traffic is the
*same* analytical statements re-issued verbatim.  The translation cache
(PR 2) already skips parse/bind/xform/serialize for those; this cache
skips the backend too, serving the buffered ``ResultSet`` straight from
memory.

Correctness comes from the key, not from eviction:

* the **catalog version** covers DDL (create/drop anywhere moves it);
* the **per-table version vector** covers DML — every write routed
  through :class:`repro.cache.executor.QueryExecutor` bumps the target
  table's counter on the MDI, which changes the key of every cached
  result that read the table.  A write to ``trades`` therefore makes
  results over ``trades`` unreachable while results over ``quotes``
  keep serving;
* the **partition fingerprint** keeps results from one shard topology
  out of another.

Stale entries made unreachable by a version bump are also dropped
*proactively* through a table -> keys index (memory, not correctness),
and a lookup that finds a TTL-expired entry drops it.  Memory is
byte-accounted: entries charge an estimate of their payload size against
``ResultCacheConfig.max_bytes`` and the least-recently-used entries are
evicted beyond it.

A thundering herd of identical queries is coalesced single-flight: the
first requester executes, the rest block on its flight and share the
snapshot.

An entry also memoises the framed QIPC reply it was first served as
(:meth:`ResultCache.store_reply`): a later hit on the server's wire path
answers with those bytes and skips the copy, pivot, encode and
compression that would rebuild them.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.analysis.concurrency.locks import make_lock
from repro.config import ResultCacheConfig
from repro.core.metadata import MetadataInterface
from repro.core.pipeline import TranslationResult
from repro.obs import metrics
from repro.sqlengine.executor import ResultSet

RCACHE_LOOKUPS = metrics.counter(
    "rcache_lookups_total", "Result-cache lookups"
)
RCACHE_HITS = metrics.counter(
    "rcache_hits_total", "Results served from the cache (no backend)"
)
RCACHE_MISSES = metrics.counter(
    "rcache_misses_total", "Result-cache misses (backend executed)"
)
RCACHE_EVICTIONS = metrics.counter(
    "rcache_evictions_total",
    "Entries evicted, labelled reason=bytes|ttl|invalidation",
)
RCACHE_INVALIDATIONS = metrics.counter(
    "rcache_invalidations_total", "Table write-throughs that dropped entries"
)
RCACHE_COALESCED = metrics.counter(
    "rcache_coalesced_total",
    "Requests that shared another request's in-flight execution",
)
RCACHE_SKIPPED_CHEAP = metrics.counter(
    "rcache_skipped_cheap_total",
    "Results not admitted because production was cheaper than min_produce_ms",
)
RCACHE_REPLY_HITS = metrics.counter(
    "rcache_reply_hits_total",
    "Hits answered with the entry's memoised QIPC reply frame",
)
RCACHE_BYTES = metrics.gauge(
    "rcache_bytes", "Estimated bytes of cached result payloads"
)
RCACHE_ENTRIES = metrics.gauge(
    "rcache_entries", "Entries currently held by the result cache"
)

#: per-object overhead charged per cached cell beyond the value estimate
_CELL_OVERHEAD = 8
#: values sampled per column when estimating payload bytes
_SAMPLE_VALUES = 16


def estimate_result_bytes(columns, column_data) -> int:
    """Cheap payload estimate: per-column sampled value size x rows.

    Exact accounting would getsizeof every cell; sampling the first few
    values per column keeps the fill path O(columns), which is what a
    byte *budget* needs — the estimate only has to be stable and
    monotone in the data volume.
    """
    total = 256  # entry + ResultSet + column metadata overhead
    for data in column_data:
        if not data:
            total += 64
            continue
        sample = data[:_SAMPLE_VALUES]
        avg = sum(sys.getsizeof(value) for value in sample) / len(sample)
        total += int((avg + _CELL_OVERHEAD) * len(data)) + 64
    return total


@dataclass
class _Entry:
    columns: list
    column_data: list[list]
    command: str
    nbytes: int
    tables: tuple[str, ...]
    stamp: float
    #: the framed QIPC RESPONSE this result was first served as; set
    #: once, charged to ``nbytes``, dropped with the entry
    reply: bytes | None = None


@dataclass
class Served:
    """One cacheable read's answer (:meth:`ResultCache.serve`).

    A memo hit carries the entry's ``reply`` frame and no ``result``.
    Otherwise ``result`` is set and ``memo`` names the entry a freshly
    framed reply may be stored on (None when nothing was cached).
    """

    result: ResultSet | None = None
    reply: bytes | None = None
    memo: tuple[tuple, _Entry] | None = None


class _Flight:
    """One in-flight execution other requesters may wait on."""

    __slots__ = ("done", "error", "filled")

    def __init__(self):
        self.done = threading.Event()
        self.error: Exception | None = None
        self.filled = False


@dataclass
class ResultCacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    coalesced: int = 0
    bypasses: int = 0
    skipped_cheap: int = 0
    expirations: int = 0
    reply_hits: int = 0
    entries: int = 0
    bytes: int = 0
    reply_bytes: int = 0

    def as_rows(self) -> list[tuple[str, int]]:
        return [(name, int(value)) for name, value in vars(self).items()]


class ResultCache:
    """Byte-bounded, version-keyed LRU over full query results.

    Shared across every session of a deployment (like the translation
    cache): :class:`repro.core.platform.HyperQ` and
    :class:`repro.server.hyperq_server.HyperQServer` build one and pass
    it to each session's :class:`~repro.cache.executor.QueryExecutor`.
    """

    def __init__(self, config: ResultCacheConfig | None = None):
        self.config = config or ResultCacheConfig()
        self._lock = make_lock("cache.result_cache")
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._flights: dict[tuple, _Flight] = {}
        #: table name -> keys of entries that read it (proactive drop)
        self._by_table: dict[str, set[tuple]] = {}
        self._bytes = 0
        self.stats = ResultCacheStats()

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    # -- the key ---------------------------------------------------------------

    @staticmethod
    def key_for(
        translation: TranslationResult, mdi: MetadataInterface
    ) -> tuple:
        """The semantic identity of one read's result.

        The translated SQL is the normalized query fingerprint (two Q
        spellings that translate identically share an entry); catalog
        version, the per-table version vector over the statement's read
        set, and the partition fingerprint pin it to the data state.
        """
        return (
            translation.sql,
            translation.shape,
            tuple(translation.keys),
            mdi.catalog_version(),
            mdi.table_version_vector(translation.tables),
            mdi.partition_fingerprint(),
        )

    # -- read path -------------------------------------------------------------

    def fetch(self, key: tuple) -> ResultSet | None:
        """A fresh ``ResultSet`` view of the cached payload, or None."""
        if not self.config.enabled:
            return None
        served = self._lookup(key, want_reply=False)
        return None if served is None else served.result

    def _lookup(self, key: tuple, want_reply: bool) -> Served | None:
        with self._lock:
            self.stats.lookups += 1
            RCACHE_LOOKUPS.inc()
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                self._drop(key, reason="ttl")
                self.stats.expirations += 1
                self._publish_gauges()
                entry = None
            if entry is None:
                self.stats.misses += 1
                RCACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            RCACHE_HITS.inc()
            if want_reply and entry.reply is not None:
                self.stats.reply_hits += 1
                RCACHE_REPLY_HITS.inc()
                return Served(reply=entry.reply)
            return Served(self._view(entry), memo=(key, entry))

    def serve(self, key: tuple, tables, producer,
              want_reply: bool = False) -> Served:
        """Serve ``key`` from cache, coalescing concurrent fills.

        The first requester of an absent key becomes the flight leader
        and runs ``producer()`` (the backend execution) *outside* the
        cache lock; concurrent requesters of the same key block on the
        flight and share the snapshot.  A failed leader wakes the
        waiters, and the first of them retries as the new leader (the
        error itself propagates only to the leader).  ``want_reply``
        lets a hit answer with the entry's memoised reply frame.
        """
        if not self.config.enabled:
            return Served(producer())
        while True:
            served = self._lookup(key, want_reply)
            if served is not None:
                return served
            with self._lock:
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.done.wait(self.config.flight_timeout)
                if flight.filled:
                    with self._lock:
                        self.stats.coalesced += 1
                    RCACHE_COALESCED.inc()
                # leader failed (or timed out): loop to retry as leader
                continue
            started = time.perf_counter()
            try:
                result = producer()
            except Exception as exc:
                with self._lock:
                    self._flights.pop(key, None)
                flight.error = exc
                flight.done.set()
                raise
            produce_ms = (time.perf_counter() - started) * 1000.0
            memo = None
            if self._admit(produce_ms):
                memo = self.fill(key, tables, result)
                flight.filled = True
            else:
                with self._lock:
                    self.stats.skipped_cheap += 1
                RCACHE_SKIPPED_CHEAP.inc()
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
            return Served(result, memo=memo)

    def _admit(self, produce_ms: float) -> bool:
        """Size-aware admission: a result cheaper to produce than a cache
        probe only churns the LRU, so productions under ``min_produce_ms``
        are served but not cached (0 admits everything)."""
        floor = self.config.min_produce_ms
        return floor <= 0 or produce_ms >= floor

    # -- fill path -------------------------------------------------------------

    def fill(self, key: tuple, tables, result: ResultSet):
        """Snapshot ``result`` under ``key``; returns the memo handle
        :meth:`store_reply` takes (None when the cache is off).

        The entry keeps the result's column lists: a result shares no
        list with stored table data, and no consumer writes into one.
        Hits hand out fresh views (:meth:`_view`), so a caller that edits
        its copy leaves the entry as it was.
        """
        if not self.config.enabled:
            return None
        columns = list(result.columns)
        column_data = result.column_data
        nbytes = estimate_result_bytes(columns, column_data)
        entry = _Entry(
            columns=columns,
            column_data=column_data,
            command=result.command,
            nbytes=nbytes,
            tables=tuple(tables),
            stamp=time.monotonic(),
        )
        with self._lock:
            if key in self._entries:
                self._drop(key, reason="bytes", count_eviction=False)
            self._entries[key] = entry
            self._bytes += nbytes
            for table in entry.tables:
                self._by_table.setdefault(table, set()).add(key)
            self._enforce_budget()
        return key, entry

    def store_reply(self, memo: tuple[tuple, _Entry], reply: bytes) -> None:
        """Memoise ``reply``, the framed QIPC RESPONSE just built from
        the memo's entry, so later wire-path hits answer with it.

        Charged to the entry's bytes exactly once; an entry that was
        dropped meanwhile (write, TTL, eviction, refill) is left alone.
        """
        key, entry = memo
        with self._lock:
            if entry.reply is not None or self._entries.get(key) is not entry:
                return
            entry.reply = reply
            entry.nbytes += len(reply)
            self._bytes += len(reply)
            self._enforce_budget()

    # -- invalidation ----------------------------------------------------------

    def on_write(self, tables) -> None:
        """Drop every entry that read any of ``tables``.

        The version bump on the MDI already made those keys unreachable
        (correctness); this reclaims their memory immediately.
        """
        dropped = 0
        with self._lock:
            for table in set(tables):
                for key in list(self._by_table.get(table, ())):
                    self._drop(key, reason="invalidation")
                    dropped += 1
            if dropped:
                self.stats.invalidations += dropped
                self._publish_gauges()
        if dropped:
            RCACHE_INVALIDATIONS.inc(dropped)

    def count_bypass(self) -> None:
        """One statement executed around the cache (executor gating)."""
        with self._lock:
            self.stats.bypasses += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_table.clear()
            self._bytes = 0
            self._publish_gauges()

    # -- admin snapshot --------------------------------------------------------

    def snapshot(self) -> ResultCacheStats:
        """A copy of the stats, for the ``rcache[]`` admin command / tests."""
        with self._lock:
            return replace(
                self.stats,
                entries=len(self._entries),
                bytes=self._bytes,
                reply_bytes=sum(
                    len(entry.reply) for entry in self._entries.values()
                    if entry.reply is not None
                ),
            )

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _view(entry: _Entry) -> ResultSet:
        """A fresh ResultSet over copied column lists: callers may sort,
        slice, or rebind rows without corrupting the cached payload."""
        return ResultSet.from_columns(
            list(entry.columns),
            [list(col) for col in entry.column_data],
            command=entry.command,
        )

    def _expired(self, entry: _Entry) -> bool:
        ttl = self.config.ttl_seconds
        return ttl > 0 and (time.monotonic() - entry.stamp) > ttl

    def _drop(self, key: tuple, reason: str, count_eviction: bool = True) -> None:
        """Remove one entry (caller holds the lock)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.nbytes
        for table in entry.tables:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]
        if count_eviction:
            self.stats.evictions += 1
            RCACHE_EVICTIONS.inc(reason=reason)

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until ``max_bytes`` holds —
        a single entry larger than the budget goes too (caller holds the
        lock)."""
        while self._bytes > self.config.max_bytes and self._entries:
            self._drop(next(iter(self._entries)), reason="bytes")
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        RCACHE_ENTRIES.set(len(self._entries))
        RCACHE_BYTES.set(self._bytes)
