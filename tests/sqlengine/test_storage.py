"""Column-major storage: every writing statement reads the table as it was
before the statement, and no result shares a list with stored data."""

import math

import pytest

from repro.errors import SqlTypeError
from repro.sqlengine.engine import Engine


@pytest.fixture()
def engine():
    e = Engine()
    e.execute("CREATE TABLE t (a bigint, b bigint, s varchar)")
    e.execute("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'z')")
    return e


def rows(engine, sql="SELECT * FROM t"):
    return engine.execute(sql).rows


class TestWritesReadTheTableBeforeTheStatement:
    def test_insert_select_from_itself_doubles_exactly(self, engine):
        before = rows(engine)
        assert engine.execute("INSERT INTO t SELECT * FROM t").command \
            == "INSERT 0 3"
        assert rows(engine) == before + before

    def test_update_swaps_two_columns(self, engine):
        engine.execute("UPDATE t SET a = b, b = a")
        assert rows(engine) == [(10, 1, "x"), (20, 2, "y"), (30, 3, "z")]

    def test_update_with_where_swaps_only_matching_rows(self, engine):
        result = engine.execute("UPDATE t SET a = b, b = a WHERE s <> 'y'")
        assert result.command == "UPDATE 2"
        assert rows(engine) == [(10, 1, "x"), (2, 20, "y"), (30, 3, "z")]

    def test_delete_keeps_survivors_in_order(self, engine):
        engine.execute("INSERT INTO t VALUES (4, 40, 'w'), (5, 50, 'v')")
        assert engine.execute("DELETE FROM t WHERE a % 2 = 0").command \
            == "DELETE 2"
        assert rows(engine, "SELECT a FROM t") == [(1,), (3,), (5,)]

    def test_truncate_empties_the_table(self, engine):
        engine.execute("TRUNCATE t")
        assert rows(engine) == []
        engine.execute("INSERT INTO t VALUES (7, 70, 'q')")
        assert rows(engine) == [(7, 70, "q")]

    def test_ctas_does_not_follow_later_writes_to_its_source(self, engine):
        engine.execute("CREATE TABLE c AS SELECT a, a AS a2, s FROM t")
        engine.execute("UPDATE t SET a = 0")
        engine.execute("DELETE FROM t WHERE s = 'x'")
        engine.execute("INSERT INTO t VALUES (9, 90, 'n')")
        assert rows(engine, "SELECT * FROM c") == [
            (1, 1, "x"), (2, 2, "y"), (3, 3, "z"),
        ]
        # two columns made from one stay two columns
        engine.execute("UPDATE c SET a = 5")
        assert rows(engine, "SELECT a, a2 FROM c") == [(5, 1), (5, 2), (5, 3)]

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t",
        "SELECT a, s FROM t",
        "SELECT a, a + 0 AS b FROM t",
        "SELECT * FROM t WHERE a > 0",
        "SELECT * FROM (SELECT * FROM t) q ORDER BY a",
    ])
    def test_earlier_result_does_not_follow_later_writes(self, engine, sql):
        result = engine.execute(sql)
        before = [list(values) for values in result.column_data]
        engine.execute("UPDATE t SET a = 100")
        engine.execute("INSERT INTO t VALUES (4, 40, 'w')")
        engine.execute("DELETE FROM t WHERE a = 100")
        assert result.column_data == before


class TestColumnAtATime:
    def test_star_expands_by_position(self):
        # two output columns of one name stay two columns, as in PostgreSQL
        engine = Engine()
        assert rows(engine, "SELECT * FROM (SELECT 1 AS a, 2 AS a) s") \
            == [(1, 2)]

    def test_later_conjunct_runs_only_on_rows_the_earlier_kept(self, engine):
        engine.execute("INSERT INTO t VALUES (4, 0, 'w')")
        assert rows(engine, "SELECT a FROM t WHERE b <> 0 AND a / b = 0") \
            == [(1,), (2,), (3,)]

    def test_or_runs_its_right_side_only_where_the_left_is_open(self, engine):
        engine.execute("INSERT INTO t VALUES (4, 0, 'w')")
        assert rows(engine, "SELECT a FROM t WHERE b = 0 OR a / b > 1") \
            == [(4,)]

    def test_comparison_with_null_is_null_in_a_projection(self, engine):
        engine.execute("INSERT INTO t VALUES (NULL, 40, 'w')")
        assert rows(engine, "SELECT a = 1, a > 1, a + 1 FROM t") == [
            (True, False, 2), (False, True, 3), (False, True, 4),
            (None, None, None),
        ]

    def test_mismatched_comparison_raises_the_sql_error(self, engine):
        with pytest.raises(SqlTypeError, match="cannot compare"):
            engine.execute("SELECT a FROM t WHERE s > 1")

    def test_nan_group_keys_form_one_group(self):
        engine = Engine()
        engine.execute("CREATE TABLE f (k double precision, v bigint)")
        engine.execute("INSERT INTO f VALUES (1.0, 1), (2.0, 2), (3.0, 3)")
        engine.execute("UPDATE f SET k = 'NaN'::double precision WHERE v > 1")
        result = rows(engine, "SELECT k, sum(v) FROM f GROUP BY k")
        assert result[0] == (1.0, 1)
        assert math.isnan(result[1][0]) and result[1][1] == 5
        assert len(result) == 2
