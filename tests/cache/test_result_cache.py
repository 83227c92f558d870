"""The semantic result cache: version-keyed invalidation, byte-bounded
LRU, single-flight coalescing, admission of private relations, and the
``rcache[]`` admin command (docs/CACHING.md)."""

import sys
import threading

import pytest

from repro.cache import QueryExecutor, ResultCache
from repro.config import HyperQConfig, ResultCacheConfig
from repro.core.pipeline import StageTimings, TranslationResult
from repro.qlang.values import QTable
from repro.sqlengine.catalog import Column
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType

from tests.cache.conftest import make_platform


def rs(values, name="v"):
    return ResultSet.from_columns(
        [Column(name, SqlType.BIGINT)], [list(values)]
    )


def make_cache(**kwargs) -> ResultCache:
    return ResultCache(ResultCacheConfig(**kwargs))


class TestFillAndFetch:
    def test_roundtrip(self):
        cache = make_cache()
        cache.fill(("k",), ["trades"], rs([1, 2]))
        hit = cache.fetch(("k",))
        assert hit is not None
        assert [r[0] for r in hit.rows] == [1, 2]

    def test_miss_returns_none(self):
        assert make_cache().fetch(("absent",)) is None

    def test_disabled_cache_never_fills(self):
        cache = make_cache(enabled=False)
        cache.fill(("k",), ["trades"], rs([1]))
        assert cache.fetch(("k",)) is None

    def test_hits_are_isolated_views(self):
        """Callers rebind .rows (LIMIT/sort); the payload must not move."""
        cache = make_cache()
        cache.fill(("k",), [], rs([1, 2, 3]))
        first = cache.fetch(("k",))
        first.rows = [(99,)]
        first.column_data[0].append(98)
        second = cache.fetch(("k",))
        assert [r[0] for r in second.rows] == [1, 2, 3]

    def test_entry_survives_a_later_update_of_its_table(self):
        """The entry keeps the engine result's lists, and a result shares
        none with the table, so writes to the table leave it alone."""
        engine = Engine()
        engine.execute("CREATE TABLE t (a bigint)")
        engine.execute("INSERT INTO t VALUES (1), (2)")
        cache = make_cache()
        cache.fill(("k",), ["t"], engine.execute("SELECT a FROM t"))
        engine.execute("UPDATE t SET a = a + 10")
        engine.execute("INSERT INTO t VALUES (3)")
        assert [r[0] for r in cache.fetch(("k",)).rows] == [1, 2]


class TestInvalidation:
    def test_write_drops_only_dependent_entries(self):
        """The headline guarantee: a write to trades must not evict
        results over quotes."""
        cache = make_cache()
        cache.fill(("q-trades",), ["trades"], rs([1]))
        cache.fill(("q-quotes",), ["quotes"], rs([2]))
        cache.fill(("q-join",), ["trades", "quotes"], rs([3]))
        cache.on_write(["trades"])
        assert cache.fetch(("q-trades",)) is None
        assert cache.fetch(("q-join",)) is None
        assert cache.fetch(("q-quotes",)) is not None
        assert cache.stats.invalidations == 2

    def test_clear(self):
        cache = make_cache()
        cache.fill(("k",), ["t"], rs([1]))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_ttl_sweep_retires_expired(self):
        """A lookup that finds an expired entry drops it: not served,
        counted in ``expirations``, its bytes released."""
        cache = make_cache(ttl_seconds=0.0001)
        cache.fill(("k",), ["t"], rs([1]))
        import time

        time.sleep(0.01)
        assert cache.fetch(("k",)) is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0
        assert cache.total_bytes == 0
        cache.on_write(["t"])  # the table index forgot the key too
        assert cache.stats.invalidations == 0


class TestLifetime:
    """The cache owns no thread (TTL is checked on lookup): a platform
    that fills and serves it starts none, and a dropped one is
    collected together with its cache."""

    Q = "select from trades where Price > 40.0"

    def test_filling_and_serving_starts_no_thread(self):
        before = threading.active_count()
        hq, __ = make_platform()
        session = hq.create_session()
        try:
            session.execute(self.Q)
            session.execute(self.Q)
        finally:
            session.close()
        assert len(hq.result_cache) == 1
        assert hq.result_cache.stats.hits == 1
        assert threading.active_count() == before

    def test_a_dropped_platform_releases_its_cache(self):
        import gc
        import weakref

        hq, __ = make_platform()
        session = hq.create_session()
        session.execute(self.Q)
        session.close()
        assert len(hq.result_cache) == 1
        cache = weakref.ref(hq.result_cache)
        del hq, session
        gc.collect()
        assert cache() is None


class TestByteLru:
    def test_eviction_is_lru_ordered(self):
        cache = make_cache(max_bytes=1)  # everything over budget
        cache.fill(("a",), [], rs([1]))
        assert len(cache) == 0  # single oversized entry dropped outright

    def test_oldest_evicted_first(self):
        one = rs(list(range(100)))
        nbytes = ResultCache(ResultCacheConfig()).config  # noqa: F841
        cache = make_cache(max_bytes=10_000)
        cache.fill(("a",), [], rs(list(range(100))))
        cache.fill(("b",), [], rs(list(range(100))))
        cache.fetch(("a",))  # a is now most recently used
        for i in range(20):
            cache.fill((f"c{i}",), [], rs(list(range(100))))
        # b (least recently used) must have gone before a
        assert cache.fetch(("b",)) is None
        assert cache.total_bytes <= 10_000
        assert cache.stats.evictions > 0
        assert one is not None

    def test_bytes_accounting_returns_to_zero(self):
        cache = make_cache()
        cache.fill(("a",), ["t"], rs([1, 2, 3]))
        assert cache.total_bytes > 0
        cache.on_write(["t"])
        assert cache.total_bytes == 0


class TestSingleFlight:
    def test_concurrent_requests_coalesce(self):
        cache = make_cache(flight_timeout=5.0)
        release = threading.Event()
        produced = []

        def producer():
            release.wait(5.0)
            produced.append(1)
            return rs([42])

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.serve(("k",), [], producer).result
                )
            )
            for __ in range(6)
        ]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(10.0)
        assert len(produced) == 1, "only the leader may execute"
        assert len(results) == 6
        assert all([r[0] for r in res.rows] == [42] for res in results)
        assert cache.stats.coalesced >= 1

    def test_leader_failure_propagates_and_releases_waiters(self):
        cache = make_cache(flight_timeout=5.0)
        calls = []

        def failing_then_ok():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("backend down")
            return rs([7])

        with pytest.raises(RuntimeError):
            cache.serve(("k",), [], failing_then_ok)
        # the flight is gone: the next requester retries as leader
        result = cache.serve(("k",), [], failing_then_ok).result
        assert [r[0] for r in result.rows] == [7]


class TestSizeAwareAdmission:
    """``min_produce_ms``: productions cheaper than the floor are served
    but never cached — a probe costs as much as re-executing them."""

    def test_cheap_production_skips_the_cache(self):
        cache = make_cache(min_produce_ms=50.0)
        result = cache.serve(("k",), ["t"], lambda: rs([1])).result
        assert [r[0] for r in result.rows] == [1]
        assert cache.fetch(("k",)) is None
        assert cache.stats.skipped_cheap == 1

    def test_expensive_production_is_admitted(self):
        import time

        cache = make_cache(min_produce_ms=1.0)

        def slow():
            time.sleep(0.01)
            return rs([2])

        cache.serve(("k",), ["t"], slow)
        assert cache.fetch(("k",)) is not None
        assert cache.stats.skipped_cheap == 0

    def test_zero_floor_admits_everything(self):
        cache = make_cache(min_produce_ms=0.0)
        cache.serve(("k",), ["t"], lambda: rs([3]))
        assert cache.fetch(("k",)) is not None

    def test_skip_count_surfaces_in_rcache_rows(self):
        cache = make_cache(min_produce_ms=50.0)
        cache.serve(("k",), ["t"], lambda: rs([4]))
        rows = dict(cache.snapshot().as_rows())
        assert rows["skipped_cheap"] == 1


class TestExecutorGating:
    """WLM interaction: none.  Every translated read is cacheable unless
    it reads a session-private relation; only ``run_sql`` writes."""

    class FakeBackend:
        def __init__(self):
            self.calls = 0

        def run_sql(self, sql):
            self.calls += 1
            return rs([self.calls])

    class FakeMdi:
        def catalog_version(self):
            return 1

        def table_version_vector(self, tables):
            return tuple((t, 0) for t in sorted(set(tables)))

        def partition_fingerprint(self):
            return ()

        def bump_table_version(self, name):
            return 1

    def translation(self, sql="SELECT 1", qclass="analytical", tables=()):
        return TranslationResult(
            sql=sql, shape="table", keys=[], timings=StageTimings(),
            query_class=qclass, tables=list(tables),
        )

    def make_executor(self):
        backend = self.FakeBackend()
        cache = make_cache()
        executor = QueryExecutor(backend, self.FakeMdi(), cache)
        return executor, backend, cache

    def test_analytical_repeats_hit(self):
        executor, backend, cache = self.make_executor()
        t = self.translation(tables=["trades"])
        executor.execute(t)
        executor.execute(t)
        assert backend.calls == 1
        assert cache.stats.hits == 1

    def test_point_lookup_cacheable(self):
        executor, backend, __ = self.make_executor()
        t = self.translation(qclass="point_lookup", tables=["trades"])
        executor.execute(t)
        executor.execute(t)
        assert backend.calls == 1

    @pytest.mark.parametrize("qclass", ["admin", "materializing"])
    def test_billing_class_does_not_gate(self, qclass):
        """The class is a billing label: a translated statement is a read
        whatever it was billed, so it is cached and invalidates nothing
        (writes come through ``run_sql(invalidates=)``)."""
        executor, backend, cache = self.make_executor()
        read = self.translation(tables=["trades"])
        executor.execute(read)
        billed = self.translation(
            sql="SELECT 2", qclass=qclass, tables=["trades"]
        )
        executor.execute(billed)
        executor.execute(billed)
        executor.execute(read)
        assert backend.calls == 2
        assert cache.stats.hits == 2
        assert cache.stats.invalidations == 0
        assert cache.stats.bypasses == 0

    def test_session_private_relations_never_cached(self):
        executor, backend, cache = self.make_executor()
        t = self.translation(tables=["hq_temp_1"])
        executor.execute(t)
        executor.execute(t)
        assert backend.calls == 2
        assert len(cache) == 0

    def test_run_sql_bumps_versions_and_drops(self):
        executor, backend, cache = self.make_executor()
        read = self.translation(tables=["trades"])
        executor.execute(read)
        assert len(cache) == 1
        executor.run_sql("INSERT INTO trades VALUES (1)",
                         invalidates=["trades"])
        assert len(cache) == 0


class TestEndToEnd:
    def test_repeat_analytical_skips_backend(self):
        hq, gateway = make_platform()
        q = "select sum Size by Symbol from trades"
        first = hq.q(q)
        selects_after_first = gateway.count("SELECT")
        second = hq.q(q)
        assert second == first
        assert gateway.count("SELECT") == selects_after_first
        assert hq.result_cache.snapshot().hits >= 1

    def test_dml_invalidates_only_written_table(self):
        hq, gateway = make_platform()
        trades_q = "select sum Size by Symbol from trades"
        quotes_q = "select max Bid by Symbol from quotes"
        hq.q(trades_q)
        hq.q(quotes_q)
        hq.q(
            "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
            "Price: enlist 1.0; Size: enlist 7)"
        )
        hits_before = hq.result_cache.snapshot().hits
        fresh = hq.q(trades_q).unkey()  # must recompute: trades changed
        assert fresh.column("Size").items != []
        assert "Z" in fresh.column("Symbol").items
        hq.q(quotes_q)  # must still hit: quotes untouched
        assert hq.result_cache.snapshot().hits == hits_before + 1

    def test_ddl_moves_every_key(self):
        hq, gateway = make_platform()
        q = "select sum Size by Symbol from trades"
        hq.q(q)
        hq.engine.execute("CREATE TABLE unrelated (a bigint)")  # DDL
        before = gateway.count("SELECT")
        hq.q(q)  # catalog version moved: stale key unreachable
        assert gateway.count("SELECT") > before

    def test_cache_off_differential(self):
        from repro.qipc.encode import encode_value

        on, __ = make_platform()
        off, __ = make_platform(
            HyperQConfig(result_cache=ResultCacheConfig(enabled=False))
        )
        queries = [
            "select sum Size by Symbol from trades",
            "select from trades where Price > 40.0",
            "exec max Bid from quotes",
        ]
        for q in queries:
            for __ in range(2):  # second round exercises hits on `on`
                assert encode_value(on.q(q)) == encode_value(off.q(q))
        assert on.result_cache.snapshot().hits >= len(queries)

    def test_rcache_admin_command(self, session):
        session.execute("select sum Size by Symbol from trades")
        session.execute("select sum Size by Symbol from trades")
        table = session.execute("rcache[]")
        assert isinstance(table, QTable)
        assert table.columns == ["layer", "stat", "value"]
        stats = dict(
            zip(
                zip(table.column("layer").items, table.column("stat").items),
                table.column("value").items,
            )
        )
        assert stats[("rcache", "hits")] >= 1
        assert {layer for layer, __ in stats} == {"rcache"}

    def test_rcache_is_billed_as_admin(self):
        hq, __ = make_platform()
        session = hq.create_session()
        try:
            session.execute("rcache[]")
            table = session.execute("wlm[]")
            by_name = dict(
                zip(table.column("name").items,
                    table.column("admitted").items)
            )
            assert by_name.get("admin", 0) >= 1
        finally:
            session.close()


class TestCounters:
    def test_concurrent_fetches_lose_no_lookup(self):
        """Every counter moves under the cache lock: racing workers may
        never leave ``lookups < hits + misses`` in ``rcache[]``."""
        cache = make_cache()
        cache.fill(("hot",), [], rs([1]))
        start = threading.Barrier(8)

        def worker(index: int):
            start.wait(10.0)
            for i in range(500):
                cache.fetch(("hot",) if i % 2 else (f"cold{index}",))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = cache.snapshot()
        assert stats.lookups == 8 * 500
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hits == 8 * 250

    def test_snapshots_around_a_pass_differ(self):
        hq, __ = make_platform()
        q = "select sum Size by Symbol from trades"
        before = hq.result_cache.snapshot()
        hq.q(q)
        hq.q(q)
        after = hq.result_cache.snapshot()
        assert before is not after
        assert (before.lookups, before.hits, before.entries) == (0, 0, 0)
        assert after.hits >= 1 and after.entries >= 1
        assert after != before


class TestReplyMemo:
    """The memoised QIPC reply frame on a result-cache entry."""

    def test_reply_is_charged_once(self):
        cache = make_cache()
        memo = cache.fill(("k",), ["t"], rs([1, 2, 3]))
        payload_bytes = cache.total_bytes
        cache.store_reply(memo, b"r" * 500)
        cache.store_reply(memo, b"s" * 500)  # already set: no-op
        assert cache.total_bytes == payload_bytes + 500
        assert cache.snapshot().reply_bytes == 500
        served = cache.serve(("k",), ["t"], None, want_reply=True)
        assert served.reply == b"r" * 500 and served.result is None

    def test_reply_hit_skips_the_view(self, monkeypatch):
        cache = make_cache()
        cache.store_reply(cache.fill(("k",), [], rs([1])), b"frame")

        def no_view(entry):
            raise AssertionError("a reply hit must not copy the columns")

        monkeypatch.setattr(ResultCache, "_view", staticmethod(no_view))
        assert cache.serve(("k",), [], None, want_reply=True).reply == b"frame"
        stats = cache.snapshot()
        assert (stats.hits, stats.reply_hits) == (1, 1)

    def test_in_process_hits_never_see_the_reply(self):
        cache = make_cache()
        cache.store_reply(cache.fill(("k",), [], rs([1])), b"frame")
        assert [r[0] for r in cache.fetch(("k",)).rows] == [1]
        assert cache.snapshot().reply_hits == 0

    def test_reply_counts_against_the_byte_budget(self):
        payload_bytes = make_cache().fill(("k",), [], rs([1]))[1].nbytes
        cache = make_cache(max_bytes=payload_bytes + 100)
        memo = cache.fill(("k",), [], rs([1]))
        assert len(cache) == 1
        cache.store_reply(memo, b"r" * 500)
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.snapshot().reply_bytes == 0
        assert cache.stats.evictions == 1

    def test_store_on_a_dropped_entry_is_a_noop(self):
        cache = make_cache()
        stale = cache.fill(("k",), ["t"], rs([1]))
        cache.on_write(["t"])
        cache.store_reply(stale, b"r" * 100)
        assert cache.total_bytes == 0
        # a refill under the same key is a different entry
        fresh = cache.fill(("k",), ["t"], rs([2]))
        cache.store_reply(stale, b"old")
        assert cache.serve(("k",), ["t"], None, True).reply is None
        cache.store_reply(fresh, b"new")
        assert cache.serve(("k",), ["t"], None, True).reply == b"new"

    def test_two_threads_storing_charge_once(self):
        cache = make_cache()
        memo = cache.fill(("k",), [], rs(list(range(50))))
        payload_bytes = cache.total_bytes
        start = threading.Barrier(2)

        def store(reply: bytes):
            start.wait(10.0)
            cache.store_reply(memo, reply)

        threads = [
            threading.Thread(target=store, args=(b"a" * 300,)),
            threading.Thread(target=store, args=(b"b" * 300,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert cache.total_bytes == payload_bytes + 300
        assert cache.snapshot().reply_bytes == 300
        assert memo[1].nbytes == payload_bytes + 300


def rcache_stats(hq) -> tuple[int, int]:
    stats = hq.result_cache.snapshot()
    return stats.reply_hits, stats.reply_bytes


class TestReplyPath:
    """``HyperQSession.reply``: which messages may use the memo."""

    Q = "select from trades where Price > 40.0"

    def test_second_reply_is_the_memo(self):
        hq, __ = make_platform()
        session = hq.create_session()
        try:
            first = session.reply(self.Q)
            assert rcache_stats(hq) == (0, len(first))
            assert session.reply(self.Q) == first
            assert rcache_stats(hq) == (1, len(first))
        finally:
            session.close()

    def test_memo_hit_counts_like_a_fresh_frame(self):
        """``metrics[]`` must not tell a memo hit from a fresh frame."""
        from repro.obs.metrics import get_registry

        hq, __ = make_platform()
        session = hq.create_session()
        registry = get_registry()
        names = (
            "qipc_bytes_total{direction=out}",
            "qipc_messages_total{direction=out,type=response}",
        )

        def deltas(run) -> tuple[float, ...]:
            before = registry.flat()
            run()
            after = registry.flat()
            return tuple(after.get(n, 0.0) - before.get(n, 0.0) for n in names)

        try:
            fresh = deltas(lambda: session.reply(self.Q))
            memo = deltas(lambda: session.reply(self.Q))
            assert rcache_stats(hq)[0] == 1
            assert fresh == memo
            assert fresh[1] == 1 and fresh[0] > 0
        finally:
            session.close()

    def test_write_strands_the_reply_and_the_next_read_reframes(self):
        from repro.qipc.decode import decode_value
        from repro.qipc.messages import unframe

        hq, __ = make_platform()
        session = hq.create_session()
        try:
            stale = session.reply(self.Q)
            session.execute(
                "`trades insert ([] Symbol: enlist `Z; Time: enlist "
                "10:00:00; Price: enlist 99.0; Size: enlist 7)"
            )
            assert rcache_stats(hq) == (0, 0)
            fresh = session.reply(self.Q)
            assert fresh != stale
            table = decode_value(unframe(fresh).payload)
            assert "Z" in table.column("Symbol").items
            assert rcache_stats(hq) == (0, len(fresh))
        finally:
            session.close()

    def test_ttl_sweep_drops_the_reply(self):
        """A row the cache cannot see (written straight into the engine)
        shows up once the TTL expires the entry: the next lookup drops
        it with its reply and the read is framed afresh."""
        import time

        from repro.qipc.decode import decode_value
        from repro.qipc.messages import unframe

        hq, __ = make_platform(HyperQConfig(result_cache=ResultCacheConfig(
            ttl_seconds=0.05
        )))
        session = hq.create_session()
        try:
            stale = session.reply(self.Q)
            hq.engine.execute(
                "INSERT INTO trades VALUES "
                "('Z', CAST('10:00:00' AS time), 99.0, 7, 4)"
            )
            time.sleep(0.1)
            fresh = session.reply(self.Q)
            assert fresh != stale
            assert hq.result_cache.stats.expirations == 1
            # the only reply held is the fresh one, and it was not a hit
            assert rcache_stats(hq) == (0, len(fresh))
            table = decode_value(unframe(fresh).payload)
            assert "Z" in table.column("Symbol").items
        finally:
            session.close()

    @pytest.mark.parametrize("message", [
        "select from trades; select from quotes",
        "rcache[]",
        "tables[]",
        "cols trades",
        "x: select from trades",
        "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
        "Price: enlist 1.0; Size: enlist 7)",
    ])
    def test_messages_that_never_use_the_memo(self, message):
        hq, __ = make_platform()
        session = hq.create_session()
        try:
            for __ in range(3):
                session.reply(message)
            assert rcache_stats(hq) == (0, 0)
        finally:
            session.close()

    def test_function_calls_and_variable_reads_never_use_the_memo(self):
        hq, __ = make_platform()
        session = hq.create_session()
        try:
            session.reply("f: {[] select from trades where Price > 40.0}")
            session.reply("t: select from trades where Price > 40.0")
            for __ in range(3):
                session.reply("f[]")
                session.reply("select from t")
            assert rcache_stats(hq) == (0, 0)
            # the function's read filled the entry, but only a message
            # that *is* the read may store its frame there
            assert hq.result_cache.snapshot().hits >= 2
        finally:
            session.close()

    def test_errors_store_nothing(self):
        from repro.errors import ReproError

        hq, __ = make_platform()
        session = hq.create_session()
        try:
            for __ in range(2):
                with pytest.raises(ReproError):
                    session.reply("select from missing")
            assert rcache_stats(hq) == (0, 0)
        finally:
            session.close()

    def test_async_messages_never_fill_the_memo(self):
        from repro.qlang.interp import Interpreter
        from repro.server.client import QConnection
        from repro.server.hyperq_server import HyperQServer
        from repro.sqlengine.engine import Engine
        from repro.workload.loader import load_q_source

        from tests.cache.conftest import MARKET_SOURCE, MARKET_TABLES

        engine = Engine()
        with HyperQServer(engine=engine) as server:
            load_q_source(engine, Interpreter(), MARKET_SOURCE,
                          MARKET_TABLES, mdi=server.mdi)
            with QConnection(*server.address) as q:
                for __ in range(3):
                    q.query_async(self.Q)
                q.query("rcache[]")  # sync: the asyncs ran before it
                assert rcache_stats(server) == (0, 0)
                assert server.result_cache.snapshot().hits == 2
                q.query(self.Q)  # a view hit: frames and stores
                q.query(self.Q)  # the memo
                assert rcache_stats(server)[0] == 1
