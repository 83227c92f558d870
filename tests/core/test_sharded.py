"""Unit tests for sharded scatter-gather execution: the partition map,
the distributed-rewrite pass (locality analysis, plan modes, partial
aggregation) and the ShardedBackend (routing, merging, deadlines,
health, per-shard wrapping)."""

import threading
import time
import zlib

import pytest

from repro.config import HyperQConfig, WlmConfig
from repro.core.metadata import PartitionMap, TablePartitioning
from repro.core.platform import DirectGateway, HyperQ
from repro.core.sharded import ShardedBackend
from repro.core.xformer.distributed import extract_plan
from repro.errors import BackendSqlError, DeadlineExceededError
from repro.obs import get_tracer
from repro.qlang.interp import Interpreter
from repro.sqlengine.engine import Engine
from repro.wlm.deadline import Deadline, request_scope
from repro.wlm.retry import ResilientBackend
from repro.workload.loader import qtable_to_columns

MARKET_SOURCE = """
trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM`GOOG;
            Price:100.0 50.0 101.0 30.0 51.0 99.5;
            Size:10 20 30 40 50 60);
ratings: ([Symbol:`GOOG`IBM`MSFT] Rating:`buy`hold`sell)
"""


def market_partition_map(shard_count: int) -> PartitionMap:
    return PartitionMap(shard_count).hash_table("trades", "Symbol")


def build_sharded(shard_count=2, config=None, children=None):
    children = children or [
        DirectGateway(Engine()) for __ in range(shard_count)
    ]
    backend = ShardedBackend(children, market_partition_map(shard_count))
    platform = HyperQ(config=config, backend=backend)
    interp = Interpreter()
    interp.eval_text(MARKET_SOURCE)
    for name in ("trades", "ratings"):
        keys, columns, column_data = qtable_to_columns(interp.get_global(name))
        backend.load_columns(name, columns, column_data)
        if keys:
            platform.mdi.annotate_keys(name, keys)
    return platform, backend


@pytest.fixture()
def sharded():
    platform, backend = build_sharded(2)
    yield platform, backend
    backend.close()


def run_plan(platform, q_text):
    """Translate+execute one statement; return (value, plan dict|None)."""
    session = platform.create_session()
    try:
        outcome = session.run(q_text)
    finally:
        session.close()
    plans = [
        plan
        for plan, __ in (extract_plan(s) for s in outcome.sql_statements)
        if plan is not None
    ]
    return outcome.value, (plans[-1] if plans else None)


class TestPartitionMap:
    def test_hash_routing_is_stable_and_crc32_based(self):
        spec = TablePartitioning("t", "k")
        assert spec.shard_for("GOOG", 4) == zlib.crc32(b"GOOG") % 4
        assert spec.shard_for("GOOG", 4) == spec.shard_for("GOOG", 4)

    def test_null_keys_go_to_shard_zero(self):
        spec = TablePartitioning("t", "k")
        assert spec.shard_for(None, 8) == 0

    def test_range_routing_uses_bounds(self):
        spec = TablePartitioning("t", "k", strategy="range", bounds=(10, 20))
        assert spec.shard_for(5, 3) == 0
        assert spec.shard_for(10, 3) == 1
        assert spec.shard_for(25, 3) == 2

    def test_fingerprint_changes_with_topology(self):
        two = market_partition_map(2)
        four = market_partition_map(4)
        assert two.fingerprint() != four.fingerprint()
        other = PartitionMap(2).hash_table("trades", "Price")
        assert two.fingerprint() != other.fingerprint()

    def test_lookup_and_membership(self):
        pmap = market_partition_map(2)
        assert pmap.is_partitioned("trades")
        assert not pmap.is_partitioned("ratings")
        assert pmap.lookup("trades").key == "Symbol"


class TestPlanModes:
    def test_replicated_only_query_runs_single(self, sharded):
        platform, __ = sharded
        value, plan = run_plan(platform, "select from ratings")
        assert plan is not None and plan["mode"] == "single"
        assert len(value) == 3

    def test_point_lookup_routes_to_one_shard(self, sharded):
        platform, __ = sharded
        value, plan = run_plan(
            platform, "select from trades where Symbol = `GOOG"
        )
        assert plan is not None and plan["mode"] == "single"
        assert plan["shard"] == zlib.crc32(b"GOOG") % 2
        assert len(value) == 3

    def test_local_scan_scatters_with_ordcol_merge(self, sharded):
        platform, __ = sharded
        value, plan = run_plan(platform, "select from trades where Size > 15")
        assert plan is not None and plan["mode"] == "scatter"
        assert sorted(plan["targets"]) == [0, 1]
        assert plan["merge_keys"][-1][0] == "ordcol"
        assert list(value.column("Size").items) == [20, 30, 40, 50, 60]

    def test_group_aggregate_decomposes_into_partials(self, sharded):
        platform, __ = sharded
        value, plan = run_plan(
            platform, "select total: sum Size, mean: avg Price by Symbol from trades"
        )
        assert plan is not None and plan["mode"] == "partial"
        partial_sql = plan["tasks"][0]["sql"]
        assert "sum_exact" in partial_sql  # float sums merge exactly
        assert "hq_partials" in plan["merge_sql"]
        assert list(value.value.column("total").items) == [100, 70, 40]

    def test_union_of_disjoint_point_lookups_keeps_both_shards(self, sharded):
        # GOOG hashes to shard 0 and IBM to shard 1: intersecting both
        # branches' filter constraints into one global target set would
        # be empty (coerced to one shard) and silently drop a branch —
        # each gather task must derive targets from its own subtree
        platform, __ = sharded
        value, plan = run_plan(
            platform,
            "(select from trades where Symbol = `GOOG) uj"
            " (select from trades where Symbol = `IBM)",
        )
        assert plan is not None and plan["mode"] == "gather"
        task_targets = sorted(tuple(t["targets"]) for t in plan["tasks"])
        assert task_targets == [(0,), (1,)]
        assert list(value.column("Symbol").items) == [
            "GOOG", "GOOG", "GOOG", "IBM", "IBM"
        ]

    def test_join_gathers_the_unfiltered_side_from_every_shard(self, sharded):
        # non-co-partitioned join: the filtered side pins shard 0, but
        # the unfiltered side's rows live on every shard and must not
        # inherit the sibling subtree's constraint
        platform, __ = sharded
        value, plan = run_plan(
            platform,
            "ej[`Size; select Size, Sym:Symbol from trades"
            " where Symbol = `GOOG; select Size, Price from trades]",
        )
        assert plan is not None and plan["mode"] == "gather"
        task_targets = sorted(tuple(t["targets"]) for t in plan["tasks"])
        assert task_targets == [(0,), (0, 1)]
        assert len(value) == 3

    def test_top_level_sort_scatters_with_sort_key_merge(self, sharded):
        # a sorted read returned as-is needs no renumbered ordcol: it
        # stays a scatter merged on the sort keys, not a gather
        platform, __ = sharded
        value, plan = run_plan(platform, "`Price xdesc trades")
        assert plan is not None and plan["mode"] == "scatter"
        assert plan["merge_keys"][0] == ["Price", True]
        assert list(value.column("Price").items) == [
            101.0, 100.0, 99.5, 51.0, 50.0, 30.0
        ]

    def test_read_over_a_sort_keeps_the_sorted_order(self, sharded):
        platform, __ = sharded
        value, __ = run_plan(platform, "select[2] from `Price xdesc trades")
        assert list(value.column("Price").items) == [101.0, 100.0]
        value, __ = run_plan(
            platform, "select Size from `Price xasc trades where Size > 15"
        )
        assert list(value.column("Size").items) == [40, 20, 50, 60, 30]

    def test_window_not_partitioned_by_key_is_not_scattered(self, sharded):
        # running sums over the whole table cross shard boundaries: the
        # planner must not claim shard-locality for them
        platform, __ = sharded
        value, plan = run_plan(
            platform, "update cum: sums Size from trades"
        )
        assert plan is None or plan["mode"] in ("gather", "partial")
        assert list(value.column("cum").items) == [10, 30, 60, 100, 150, 210]


class TestShardedBackend:
    def test_route_rows_partitions_and_replicates(self, sharded):
        __, backend = sharded
        spec = backend.partition_map.lookup("trades")
        interp = Interpreter()
        interp.eval_text(MARKET_SOURCE)
        keys, columns, column_data = qtable_to_columns(
            interp.get_global("trades")
        )
        buckets = backend.route_rows("trades", columns, column_data)
        rows = list(zip(*column_data))
        bucket_rows = [list(zip(*bucket)) for bucket in buckets]
        assert sorted(r for b in bucket_rows for r in b) == sorted(rows)
        key_index = [c.name for c in columns].index("Symbol")
        for shard, bucket in enumerate(bucket_rows):
            assert all(
                spec.shard_for(r[key_index], 2) == shard for r in bucket
            )
        # unpartitioned tables replicate whole
        __, rcolumns, rdata = qtable_to_columns(interp.get_global("ratings"))
        rbuckets = backend.route_rows("ratings", rcolumns, rdata)
        assert all(b == rdata for b in rbuckets)

    def test_catalog_version_is_sum_of_children(self, sharded):
        __, backend = sharded
        before = backend.catalog_version()
        backend.run_sql("CREATE TABLE bump_one (x BIGINT)")
        # the broadcast DDL bumps every shard, so the summed version
        # moves by at least the shard count
        assert backend.catalog_version() >= before + 2

    def test_wlm_does_not_rewrap_sharded_backends(self, sharded):
        platform, backend = sharded
        # the deployment's manager wraps each shard, never the whole
        assert platform.backend is backend
        wrapped = [shard.backend for shard in backend._shards]
        assert [b.name for b in wrapped] == ["shard0", "shard1"]
        assert not any(isinstance(b.inner, ResilientBackend) for b in wrapped)
        assert set(platform.wlm.snapshot()["breakers"]) == {"shard0", "shard1"}
        # a second wrap changes nothing
        assert platform.wlm.wrap_backend(backend) is backend
        assert [shard.backend for shard in backend._shards] == wrapped

    def test_children_are_individually_resilient(self, sharded):
        __, backend = sharded
        names = set()
        for shard in backend._shards:
            assert isinstance(shard.backend, ResilientBackend)
            names.add(shard.backend.breaker.name)
        assert names == {"shard0", "shard1"}

    def test_disabled_wlm_runs_shards_unwrapped(self):
        platform, backend = build_sharded(
            2, config=HyperQConfig(wlm=WlmConfig(enabled=False))
        )
        try:
            assert platform.wlm is None
            assert not any(
                isinstance(shard.backend, ResilientBackend)
                for shard in backend._shards
            )
            platform.q("select from trades where Size > 15")
            table = platform.q("shards[]")
            assert list(table.column("state").items) == ["closed", "closed"]
            assert sum(table.column("queries").items) >= 2
        finally:
            backend.close()

    def test_shard_snapshot_reports_health(self, sharded):
        platform, backend = sharded
        platform.q("select from trades where Size > 15")
        rows = backend.shard_snapshot()
        assert [r["shard"] for r in rows] == [0, 1]
        assert all(r["state"] == "closed" for r in rows)
        assert sum(r["queries"] for r in rows) >= 2  # the scatter fanout

    def test_scatter_leaves_only_the_query_trace(self, sharded):
        # scatter-pool threads have no span stack: a span opened there
        # would be a detached root crowding the tracer's ring
        platform, __ = sharded
        get_tracer().reset()
        platform.q("select sum Size by Symbol from trades")
        roots = [span.name for span in get_tracer().traces()]
        assert roots == ["hyperq.run"]  # no detached shard.task roots
        assert get_tracer().last_trace().find("shard.scatter")

    def test_shards_admin_command(self, sharded):
        platform, __ = sharded
        platform.q("select from trades where Size > 15")
        table = platform.q("shards[]")
        assert list(table.column("shard").items) == [0, 1]
        assert sum(table.column("queries").items) >= 2

    def test_unsharded_platform_answers_shards_with_empty_table(self):
        platform = HyperQ()
        table = platform.q("shards[]")
        assert len(table) == 0


class TestUnplannedStatements:
    def test_catalog_probes_go_to_one_shard(self, sharded):
        __, backend = sharded
        result = backend.run_sql(
            "SELECT table_schema, column_name, data_type "
            "FROM information_schema.columns WHERE table_name = 'trades' "
            "ORDER BY ordinal_position"
        )
        assert len(result.rows) > 0

    def test_unplanned_read_of_partitioned_table_is_refused(self, sharded):
        __, backend = sharded
        with pytest.raises(BackendSqlError) as excinfo:
            backend.run_sql(
                'SELECT "Symbol", "Size" FROM "trades" ORDER BY "ordcol"'
            )
        assert excinfo.value.code == "0A000"

    def test_writes_not_touching_partitioned_tables_broadcast(self, sharded):
        __, backend = sharded
        backend.run_sql("CREATE TABLE side_note (x BIGINT)")
        for shard in backend._shards:
            result = shard.backend.run_sql("SELECT count(*) FROM side_note")
            assert result.rows[0][0] == 0

    def test_planned_join_sees_broadcast_dml_writes(self, sharded):
        # the join scatters, each shard joining its trades partition to
        # its own ratings copy: the DELETE must reach every copy
        platform, backend = sharded
        join = "select from trades ij ratings"
        assert len(platform.q(join)) == 6
        backend.run_sql('DELETE FROM "ratings" WHERE "Symbol" = \'GOOG\'')
        # the raw DELETE bypassed the executor, so the result cache
        # cannot know it happened
        platform.result_cache.clear()
        assert len(platform.q(join)) == 3

    def test_insert_into_partitioned_table_is_rejected(self, sharded):
        __, backend = sharded
        with pytest.raises(BackendSqlError):
            backend.run_sql('INSERT INTO "trades" VALUES (1)')

    def test_q_insert_into_partitioned_table_fails_before_any_work(
        self, sharded, monkeypatch
    ):
        platform, backend = sharded
        platform.q("select from trades")  # warm the metadata cache

        def counts():
            return [
                shard.backend.run_sql('SELECT count(*) FROM "trades"').scalar()
                for shard in backend._shards
            ]

        before = counts()
        arrived = []
        original = backend.run_sql

        def spy(sql):
            arrived.append(sql)
            return original(sql)

        monkeypatch.setattr(backend, "run_sql", spy)
        with pytest.raises(BackendSqlError) as excinfo:
            platform.q(
                "`trades insert ([] Symbol: enlist `GOOG; "
                "Price: enlist 1.0; Size: enlist 5)"
            )
        assert excinfo.value.code == "0A000"
        assert len(arrived) == 1
        monkeypatch.undo()
        assert counts() == before

    def test_ctas_over_partitioned_input_replicates_the_result(self, sharded):
        platform, backend = sharded
        select = platform.translate(
            "select from trades where Size > 25"
        ).sql_statements[-1]
        assert extract_plan(select)[0] is not None
        backend.run_sql(f"CREATE TABLE big_trades AS {select}")
        for shard in backend._shards:
            result = shard.backend.run_sql(
                'SELECT count(*) FROM big_trades'
            )
            assert result.rows[0][0] == 4


class _SlowGateway(DirectGateway):
    """A gateway with a settable pre-execution delay."""

    def __init__(self, engine):
        super().__init__(engine)
        self.delay = 0.0

    def run_sql(self, sql):
        if self.delay:
            time.sleep(self.delay)
        return super().run_sql(sql)


#: an annotated scatter of trades.Size over both shards
SCATTER_SIZES = (
    '/*hq-shard:v1 {"mode":"scatter","targets":[0,1],'
    '"sql":"SELECT \\"Size\\", \\"ordcol\\" FROM \\"trades\\"",'
    '"columns":[["Size","bigint",false],["ordcol","bigint",true]],'
    '"merge_keys":[["ordcol",false]]}*/ignored'
)


class TestHedgingAndDeadlines:
    def test_expired_deadline_names_the_laggard_shard(self):
        children = [_SlowGateway(Engine()) for __ in range(2)]
        platform, backend = build_sharded(2, children=children)
        try:
            children[0].delay = 1.0
            children[1].delay = 1.0
            with request_scope(deadline=Deadline.after(0.05)):
                with pytest.raises(DeadlineExceededError) as excinfo:
                    backend.run_sql(SCATTER_SIZES)
            assert "shard" in str(excinfo.value)
        finally:
            backend.close()

    def test_deadline_propagates_into_shard_workers(self):
        children = [_SlowGateway(Engine()) for __ in range(2)]
        platform, backend = build_sharded(2, children=children)
        try:
            seen = []

            original = DirectGateway.run_sql

            def spy(self, sql):
                from repro.wlm.deadline import current_context, current_deadline
                seen.append((current_deadline(), current_context()))
                return original(self, sql)

            children[0].__class__.run_sql = spy
            try:
                with request_scope(deadline=Deadline.after(30.0)) as context:
                    backend.run_sql('SELECT count(*) FROM "ratings"')
            finally:
                children[0].__class__.run_sql = original
            assert seen and all(d is not None for d, __ in seen)
            # the scatter thread runs under the caller's object itself
            assert all(c is context for __, c in seen)
        finally:
            backend.close()


class TestTopologyCacheKey:
    def test_translations_do_not_leak_across_topologies(self):
        platform2, backend2 = build_sharded(2)
        platform4, backend4 = build_sharded(4)
        try:
            q = "select from trades where Size > 15"
            __, plan2 = run_plan(platform2, q)
            __, plan4 = run_plan(platform4, q)
            assert sorted(plan2["targets"]) == [0, 1]
            assert sorted(plan4["targets"]) == [0, 1, 2, 3]
        finally:
            backend2.close()
            backend4.close()

    def test_partition_fingerprint_feeds_the_cache_key(self):
        platform, backend = build_sharded(2)
        try:
            fingerprint = platform.mdi.partition_fingerprint()
            assert fingerprint != ()
            assert fingerprint[0] == 2  # shard count leads the digest
        finally:
            backend.close()


def test_thread_safety_of_concurrent_scatters(sharded):
    platform, __ = sharded
    errors = []

    def worker():
        try:
            for __ in range(5):
                value = platform.q("select total: sum Size by Symbol from trades")
                assert list(value.value.column("total").items) == [100, 70, 40]
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=worker) for __ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
