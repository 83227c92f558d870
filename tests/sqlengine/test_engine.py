"""Integration tests for the SQL engine (executor + engine facade)."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.engine import Engine
from repro.sqlengine.executor import Executor
from repro.sqlengine.functions import AGGREGATES


@pytest.fixture()
def engine():
    e = Engine()
    e.execute(
        "CREATE TABLE trades (sym varchar, price double precision, "
        "size bigint, ordcol bigint)"
    )
    e.execute(
        "INSERT INTO trades VALUES "
        "('GOOG', 100.0, 10, 0), ('IBM', 50.0, 20, 1), "
        "('GOOG', 101.0, 30, 2), ('MSFT', NULL, 40, 3)"
    )
    return e


class TestBasics:
    def test_select_star(self, engine):
        result = engine.execute("SELECT * FROM trades")
        assert len(result.rows) == 4
        assert result.column_names == ["sym", "price", "size", "ordcol"]

    def test_projection_expression(self, engine):
        result = engine.execute("SELECT price * size AS n FROM trades WHERE sym='IBM'")
        assert result.rows == [(1000.0,)]

    def test_where_excludes_nulls(self, engine):
        result = engine.execute("SELECT sym FROM trades WHERE price > 0")
        assert len(result.rows) == 3  # NULL price row filtered

    def test_is_null(self, engine):
        result = engine.execute("SELECT sym FROM trades WHERE price IS NULL")
        assert result.rows == [("MSFT",)]

    def test_is_not_distinct_from_null(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades WHERE price IS NOT DISTINCT FROM NULL"
        )
        assert result.rows == [("MSFT",)]

    def test_order_by_nulls_last_by_default(self, engine):
        result = engine.execute("SELECT price FROM trades ORDER BY price")
        assert result.rows[-1] == (None,)

    def test_order_by_desc_nulls_first_by_default(self, engine):
        result = engine.execute("SELECT price FROM trades ORDER BY price DESC")
        assert result.rows[0] == (None,)

    def test_order_by_ordinal(self, engine):
        result = engine.execute("SELECT sym FROM trades ORDER BY 1")
        assert result.rows[0] == ("GOOG",)

    def test_limit_offset(self, engine):
        result = engine.execute(
            "SELECT ordcol FROM trades ORDER BY ordcol LIMIT 2 OFFSET 1"
        )
        assert result.rows == [(1,), (2,)]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT sym FROM trades ORDER BY sym")
        assert [r[0] for r in result.rows] == ["GOOG", "IBM", "MSFT"]

    def test_case(self, engine):
        result = engine.execute(
            "SELECT CASE WHEN size >= 20 THEN 'big' ELSE 'small' END "
            "FROM trades ORDER BY ordcol"
        )
        assert [r[0] for r in result.rows] == ["small", "big", "big", "big"]

    def test_integer_division_truncates(self, engine):
        assert engine.execute("SELECT 7 / 2").scalar() == 3

    def test_division_by_zero_raises(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT 1 / 0")


class TestAggregation:
    def test_count_star(self, engine):
        assert engine.execute("SELECT count(*) FROM trades").scalar() == 4

    def test_count_column_skips_nulls(self, engine):
        assert engine.execute("SELECT count(price) FROM trades").scalar() == 3

    def test_sum_avg(self, engine):
        assert engine.execute("SELECT sum(size) FROM trades").scalar() == 100
        assert engine.execute("SELECT avg(size) FROM trades").scalar() == 25.0

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT sym, sum(size) FROM trades GROUP BY sym ORDER BY sym"
        )
        assert result.rows == [("GOOG", 40), ("IBM", 20), ("MSFT", 40)]

    def test_group_preserves_first_appearance_before_order(self, engine):
        result = engine.execute("SELECT sym, count(*) FROM trades GROUP BY sym")
        assert [r[0] for r in result.rows] == ["GOOG", "IBM", "MSFT"]

    def test_having(self, engine):
        result = engine.execute(
            "SELECT sym, sum(size) s FROM trades GROUP BY sym HAVING sum(size) > 25"
        )
        assert {r[0] for r in result.rows} == {"GOOG", "MSFT"}

    def test_empty_scalar_aggregate(self, engine):
        result = engine.execute("SELECT max(price) FROM trades WHERE size > 999")
        assert result.rows == [(None,)]

    def test_first_last_keep_row_order(self, engine):
        assert engine.execute("SELECT first(sym) FROM trades").scalar() == "GOOG"
        assert engine.execute("SELECT last(sym) FROM trades").scalar() == "MSFT"

    def test_last_sees_nulls(self, engine):
        assert engine.execute("SELECT last(price) FROM trades").scalar() is None

    def test_stddev(self, engine):
        value = engine.execute("SELECT stddev_pop(size) FROM trades").scalar()
        assert value == pytest.approx(11.18033988749895)

    def test_aggregate_outside_group_raises(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT sym FROM trades WHERE sum(size) > 1")

    def test_avg_with_mixed_infinities_is_nan(self):
        # fsum raises on inf + -inf; the fallback must re-sum the whole
        # input, not resume the partially consumed generator
        assert math.isnan(
            AGGREGATES["avg"]([float("inf"), float("-inf"), 5.0])
        )
        assert math.isnan(
            AGGREGATES["stddev"]([float("inf"), float("-inf"), 5.0])
        )

    def test_sum_exact_with_non_binary_denominators(self):
        # Decimal/Fraction denominators are not powers of two: the
        # binary-shift accumulator must hand off to rational arithmetic
        assert AGGREGATES["sum_exact"]([Decimal("0.1")] * 3) == Fraction(3, 10)
        assert AGGREGATES["sum_exact"](
            [Fraction(1, 3), Fraction(1, 6)]
        ) == Fraction(1, 2)
        # non-finite values still degrade to float semantics
        assert AGGREGATES["sum_exact"](
            [Decimal("0.1"), float("inf")]
        ) == float("inf")


class TestJoins:
    @pytest.fixture(autouse=True)
    def quotes(self, engine):
        engine.execute("CREATE TABLE q (sym varchar, bid double precision)")
        engine.execute(
            "INSERT INTO q VALUES ('GOOG', 99.0), ('IBM', 49.0), ('TSLA', 1.0)"
        )

    def test_inner_join(self, engine):
        result = engine.execute(
            "SELECT t.sym, q.bid FROM trades t JOIN q ON t.sym = q.sym"
        )
        assert len(result.rows) == 3  # two GOOG + one IBM

    def test_left_join_null_fill(self, engine):
        result = engine.execute(
            "SELECT t.sym, q.bid FROM trades t LEFT JOIN q ON t.sym = q.sym "
            "ORDER BY t.ordcol"
        )
        assert result.rows[3] == ("MSFT", None)

    def test_right_join(self, engine):
        result = engine.execute(
            "SELECT t.sym, q.sym FROM trades t RIGHT JOIN q ON t.sym = q.sym"
        )
        assert ("TSLA",) in {(r[1],) for r in result.rows}

    def test_cross_join_count(self, engine):
        result = engine.execute("SELECT * FROM trades CROSS JOIN q")
        assert len(result.rows) == 12

    def test_join_with_range_residual(self, engine):
        # the shape Hyper-Q emits for aj: equality + range conjunct
        result = engine.execute(
            "SELECT t.sym FROM trades t JOIN q ON t.sym = q.sym "
            "AND t.price > q.bid"
        )
        assert len(result.rows) == 3

    def test_null_keys_never_match_equality(self, engine):
        engine.execute("INSERT INTO q VALUES (NULL, 0.0)")
        engine.execute("INSERT INTO trades VALUES (NULL, 1.0, 1, 4)")
        result = engine.execute(
            "SELECT * FROM trades t JOIN q ON t.sym = q.sym"
        )
        assert len(result.rows) == 3

    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN", "RIGHT JOIN"])
    def test_null_safe_keys_match_nulls(self, engine, kind):
        # every Q join's key arrives as IS NOT DISTINCT FROM (the
        # two-valued-logic rule), and Q matches null keys with each other
        engine.execute("INSERT INTO q VALUES (NULL, 0.0)")
        engine.execute("INSERT INTO trades VALUES (NULL, 1.0, 1, 4)")
        result = engine.execute(
            f"SELECT t.ordcol, q.bid FROM trades t {kind} q "
            "ON t.sym IS NOT DISTINCT FROM q.sym"
        )
        assert (4, 0.0) in result.rows
        # the nested loop, which no key reaches, agrees with the hash join
        nested = engine.execute(
            f"SELECT t.ordcol, q.bid FROM trades t {kind} q "
            "ON (t.sym IS NOT DISTINCT FROM q.sym) OR (1 = 0)"
        )
        assert nested.rows == result.rows

    def test_mixed_keys_null_safe_per_key(self, engine):
        engine.execute("INSERT INTO q VALUES (NULL, 0.0)")
        engine.execute("INSERT INTO trades VALUES (NULL, 0.0, 1, 4)")
        result = engine.execute(
            "SELECT t.ordcol FROM trades t JOIN q "
            "ON t.sym IS NOT DISTINCT FROM q.sym AND t.price = q.bid"
        )
        assert result.rows == [(4,)]
        result = engine.execute(
            "SELECT t.ordcol FROM trades t JOIN q "
            "ON t.sym = q.sym AND t.price IS NOT DISTINCT FROM q.bid"
        )
        assert result.rows == []


class TestWindows:
    def test_row_number(self, engine):
        result = engine.execute(
            "SELECT sym, row_number() OVER (ORDER BY ordcol) FROM trades"
        )
        assert [r[1] for r in result.rows] == [1, 2, 3, 4]

    def test_partitioned_lead(self, engine):
        result = engine.execute(
            "SELECT sym, lead(price) OVER (PARTITION BY sym ORDER BY ordcol) "
            "FROM trades ORDER BY ordcol"
        )
        by_row = [r[1] for r in result.rows]
        assert by_row == [101.0, None, None, None]

    def test_lag_with_offset_and_default(self, engine):
        result = engine.execute(
            "SELECT lag(size, 1, 0) OVER (ORDER BY ordcol) FROM trades"
        )
        assert [r[0] for r in result.rows] == [0, 10, 20, 30]

    def test_running_sum(self, engine):
        result = engine.execute(
            "SELECT sum(size) OVER (ORDER BY ordcol) FROM trades"
        )
        assert [r[0] for r in result.rows] == [10, 30, 60, 100]

    def test_full_frame_aggregate(self, engine):
        result = engine.execute(
            "SELECT max(size) OVER (ORDER BY ordcol ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND UNBOUNDED FOLLOWING) FROM trades"
        )
        assert all(r[0] == 40 for r in result.rows)

    def test_bounded_frame_moving_avg(self, engine):
        result = engine.execute(
            "SELECT avg(size) OVER (ORDER BY ordcol ROWS BETWEEN 1 PRECEDING "
            "AND CURRENT ROW) FROM trades"
        )
        assert [r[0] for r in result.rows] == [10.0, 15.0, 25.0, 35.0]

    def test_rank_with_ties(self, engine):
        engine.execute("INSERT INTO trades VALUES ('X', 100.0, 10, 4)")
        result = engine.execute(
            "SELECT size, rank() OVER (ORDER BY size) FROM trades ORDER BY size"
        )
        ranks = [r[1] for r in result.rows]
        assert ranks == [1, 1, 3, 4, 5]


class TestDdlDml:
    def test_create_table_as(self, engine):
        engine.execute("CREATE TABLE big AS SELECT * FROM trades WHERE size > 15")
        assert engine.execute("SELECT count(*) FROM big").scalar() == 3

    def test_temp_table_shadows_and_dies(self, engine):
        engine.execute("CREATE TEMPORARY TABLE trades AS SELECT 1 AS one")
        assert engine.execute("SELECT * FROM trades").column_names == ["one"]
        engine.end_session()
        assert len(engine.execute("SELECT * FROM trades").rows) == 4

    def test_view(self, engine):
        engine.execute("CREATE VIEW goog AS SELECT * FROM trades WHERE sym = 'GOOG'")
        assert engine.execute("SELECT count(*) FROM goog").scalar() == 2

    def test_update(self, engine):
        engine.execute("UPDATE trades SET size = 0 WHERE sym = 'IBM'")
        assert engine.execute(
            "SELECT size FROM trades WHERE sym='IBM'"
        ).scalar() == 0

    def test_delete_rows(self, engine):
        engine.execute("DELETE FROM trades WHERE sym = 'GOOG'")
        assert engine.execute("SELECT count(*) FROM trades").scalar() == 2

    def test_drop_missing_raises(self, engine):
        with pytest.raises(SqlCatalogError):
            engine.execute("DROP TABLE missing")

    def test_drop_if_exists_silent(self, engine):
        engine.execute("DROP TABLE IF EXISTS missing")

    def test_insert_casts_to_column_type(self, engine):
        engine.execute("INSERT INTO trades VALUES ('X', '1.5', '7', 9)")
        result = engine.execute("SELECT price, size FROM trades WHERE sym='X'")
        assert result.rows == [(1.5, 7)]

    def test_catalog_emulation(self, engine):
        result = engine.execute(
            "SELECT column_name FROM information_schema.columns "
            "WHERE table_name = 'trades' ORDER BY ordinal_position"
        )
        assert [r[0] for r in result.rows] == ["sym", "price", "size", "ordcol"]


class TestSetOps:
    def test_union_dedupes(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades UNION SELECT sym FROM trades"
        )
        assert len(result.rows) == 3

    def test_union_all_keeps_duplicates(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades UNION ALL SELECT sym FROM trades"
        )
        assert len(result.rows) == 8

    def test_except(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades EXCEPT SELECT 'GOOG'"
        )
        assert {r[0] for r in result.rows} == {"IBM", "MSFT"}

    def test_intersect(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades INTERSECT SELECT 'IBM'"
        )
        assert result.rows == [("IBM",)]


class TestSubqueries:
    def test_scalar_subquery(self, engine):
        result = engine.execute(
            "SELECT sym FROM trades WHERE size = (SELECT max(size) FROM trades)"
        )
        assert result.rows == [("MSFT",)]

    def test_correlated_exists(self, engine):
        engine.execute("CREATE TABLE q2 (sym varchar)")
        engine.execute("INSERT INTO q2 VALUES ('GOOG')")
        result = engine.execute(
            "SELECT DISTINCT sym FROM trades t WHERE EXISTS "
            "(SELECT 1 FROM q2 WHERE q2.sym = t.sym)"
        )
        assert result.rows == [("GOOG",)]

    def test_in_subquery(self, engine):
        result = engine.execute(
            "SELECT DISTINCT sym FROM trades WHERE sym IN "
            "(SELECT sym FROM trades WHERE size > 25)"
        )
        assert {r[0] for r in result.rows} == {"GOOG", "MSFT"}

    def test_correlated_scalar_subquery(self, engine):
        result = engine.execute(
            "SELECT t.ordcol, (SELECT max(u.size) FROM trades u "
            "WHERE u.sym = t.sym) FROM trades t ORDER BY t.ordcol"
        )
        assert result.rows == [(0, 30), (1, 20), (2, 30), (3, 40)]

    def test_correlated_in_subquery(self, engine):
        result = engine.execute(
            "SELECT ordcol FROM trades t WHERE size IN "
            "(SELECT u.size FROM trades u WHERE u.sym = t.sym AND u.ordcol > 0) "
            "ORDER BY ordcol"
        )
        assert result.rows == [(1,), (2,), (3,)]

    def test_correlated_reference_through_derived_table(self, engine):
        result = engine.execute(
            "SELECT ordcol FROM trades t WHERE EXISTS (SELECT 1 FROM "
            "(SELECT sym FROM trades WHERE sym = t.sym AND size > 25) s) "
            "ORDER BY ordcol"
        )
        assert result.rows == [(0,), (2,), (3,)]

    @pytest.mark.parametrize("predicate", [
        "size = (SELECT max(size) FROM trades)",
        "sym IN (SELECT sym FROM trades WHERE size > 25)",
        "EXISTS (SELECT 1 FROM trades WHERE size > 35)",
    ])
    def test_uncorrelated_subquery_runs_once(self, engine, monkeypatch, predicate):
        calls = []
        original = Executor.execute_select

        def counting(self, select, *args, **kwargs):
            calls.append(select)
            return original(self, select, *args, **kwargs)

        monkeypatch.setattr(Executor, "execute_select", counting)
        engine.execute(f"SELECT ordcol FROM trades WHERE {predicate}")
        assert len(calls) == 2  # the statement, then the subquery once

    def test_correlated_subquery_runs_per_outer_row(self, engine, monkeypatch):
        calls = []
        original = Executor.execute_select

        def counting(self, select, *args, **kwargs):
            calls.append(select)
            return original(self, select, *args, **kwargs)

        monkeypatch.setattr(Executor, "execute_select", counting)
        engine.execute(
            "SELECT ordcol FROM trades t WHERE EXISTS "
            "(SELECT 1 FROM trades u WHERE u.size > t.size)"
        )
        assert len(calls) == 1 + 4


class TestNameResolution:
    """Names resolve when the statement is compiled, so a bad one fails
    whether or not any row is read (as at plan time in PostgreSQL)."""

    @pytest.fixture()
    def empty(self, engine):
        engine.execute("CREATE TABLE e (a bigint, b bigint)")
        return engine

    @pytest.mark.parametrize("sql", [
        "SELECT x FROM e",
        "SELECT a FROM e WHERE x = 1",
        "SELECT a FROM e GROUP BY x",
        "SELECT count(*) FROM e HAVING max(x) > 1",
        "SELECT e.x FROM e",
    ])
    def test_unknown_column_fails_on_empty_table(self, empty, sql):
        with pytest.raises(SqlExecutionError, match='column "(e\\.)?x" does not exist'):
            empty.execute(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM e ORDER BY x",
        "SELECT a FROM e WHERE a IN (SELECT x FROM e)",
        "SELECT a FROM e WHERE EXISTS (SELECT 1 FROM e WHERE x = 1)",
    ])
    def test_unknown_column_fails_in_order_by_and_subqueries(self, empty, sql):
        # every clause and every subquery compiles before a row is read
        with pytest.raises(SqlExecutionError, match='column "x" does not exist'):
            empty.execute(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT sym FROM trades t JOIN trades u ON t.ordcol = u.ordcol",
        "SELECT t.sym FROM trades t JOIN trades u ON t.ordcol = u.ordcol "
        "WHERE size > 1",
    ])
    def test_ambiguous_unqualified_name_fails(self, engine, sql):
        with pytest.raises(SqlExecutionError, match="is ambiguous"):
            engine.execute(sql)

    def test_ambiguous_name_fails_on_empty_join(self, empty):
        with pytest.raises(SqlExecutionError, match='"a" is ambiguous'):
            empty.execute("SELECT a FROM e x CROSS JOIN e y")

    def test_qualified_names_disambiguate(self, engine):
        result = engine.execute(
            "SELECT t.sym, u.size FROM trades t JOIN trades u "
            "ON t.ordcol = u.ordcol WHERE t.ordcol = 1"
        )
        assert result.rows == [("IBM", 20)]

    def test_inner_name_shadows_outer(self, engine):
        result = engine.execute(
            "SELECT ordcol FROM trades t WHERE size = "
            "(SELECT max(size) FROM trades) ORDER BY ordcol"
        )
        assert result.rows == [(3,)]
