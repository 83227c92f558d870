"""Unit tests for the XTRA -> SQL serializer."""

import pytest

from repro.core.serializer import Serializer, quote_ident, quote_string, sql_literal
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    XtraColumn,
    XtraConstTable,
    XtraFilter,
    XtraGet,
    XtraGroupAgg,
    XtraJoin,
    XtraLimit,
    XtraSort,
    XtraUnionAll,
    XtraWindow,
)
from repro.errors import TranslationError
from repro.sqlengine.engine import Engine
from repro.sqlengine.types import SqlType


@pytest.fixture()
def serializer():
    return Serializer()


def get_op():
    return XtraGet(
        "trades",
        [
            XtraColumn("Symbol", SqlType.VARCHAR),
            XtraColumn("Price", SqlType.DOUBLE),
            XtraColumn("ordcol", SqlType.BIGINT, False, implicit=True),
        ],
    )


class TestQuoting:
    def test_identifiers_always_quoted(self):
        assert quote_ident("Price") == '"Price"'

    def test_embedded_quote_doubled(self):
        assert quote_ident('we"ird') == '"we""ird"'

    def test_string_quotes(self):
        assert quote_string("O'Hare") == "'O''Hare'"


class TestRelational:
    def test_get(self, serializer):
        sql = serializer.serialize(get_op())
        assert sql == 'SELECT "Symbol", "Price", "ordcol" FROM "trades"'

    def test_filter_nests(self, serializer):
        op = XtraFilter(
            get_op(),
            sc.SCmp(
                "=",
                sc.SColRef("Symbol", SqlType.VARCHAR),
                sc.SConst("GOOG", SqlType.VARCHAR),
                null_safe=True,
            ),
        )
        sql = serializer.serialize(op)
        assert "WHERE" in sql
        assert "IS NOT DISTINCT FROM" in sql

    def test_strict_comparison(self, serializer):
        op = XtraFilter(
            get_op(),
            sc.SCmp(
                ">",
                sc.SColRef("Price", SqlType.DOUBLE),
                sc.SConst(5.0, SqlType.DOUBLE),
            ),
        )
        assert '("Price" > 5.0)' in serializer.serialize(op)

    def test_groupagg(self, serializer):
        op = XtraGroupAgg(
            get_op(),
            [("Symbol", sc.SColRef("Symbol", SqlType.VARCHAR))],
            [("m", sc.SAgg("max", sc.SColRef("Price", SqlType.DOUBLE)))],
        )
        sql = serializer.serialize(op)
        assert 'GROUP BY "Symbol"' in sql
        assert 'max("Price") AS "m"' in sql

    def test_scalar_agg_no_group_by(self, serializer):
        op = XtraGroupAgg(
            get_op(), [], [("c", sc.SAgg("count", None, type_=SqlType.BIGINT))]
        )
        sql = serializer.serialize(op)
        assert "GROUP BY" not in sql
        assert "count(*)" in sql

    def test_sort_nulls_first_on_asc(self, serializer):
        op = XtraSort(get_op(), [(sc.SColRef("Price", SqlType.DOUBLE), False)])
        assert 'ORDER BY "Price" NULLS FIRST' in serializer.serialize(op)

    def test_sort_desc_nulls_last(self, serializer):
        op = XtraSort(get_op(), [(sc.SColRef("Price", SqlType.DOUBLE), True)])
        assert "DESC NULLS LAST" in serializer.serialize(op)

    def test_limit(self, serializer):
        assert serializer.serialize(XtraLimit(get_op(), 5)).endswith("LIMIT 5")

    def test_left_join_on_condition(self, serializer):
        right = XtraGet("q", [XtraColumn("rsym", SqlType.VARCHAR)], ordcol=None)
        op = XtraJoin(
            "left",
            get_op(),
            right,
            sc.SCmp(
                "=",
                sc.SColRef("Symbol", SqlType.VARCHAR),
                sc.SColRef("rsym", SqlType.VARCHAR),
            ),
        )
        sql = serializer.serialize(op)
        assert "LEFT OUTER JOIN" in sql
        assert " ON " in sql

    def test_union_all(self, serializer):
        op = XtraUnionAll(get_op(), get_op())
        assert "UNION ALL" in serializer.serialize(op)

    def test_window_rendering(self, serializer):
        window = sc.SWindow(
            "lead",
            [sc.SColRef("Price", SqlType.DOUBLE)],
            partition_by=[sc.SColRef("Symbol", SqlType.VARCHAR)],
            order_by=[(sc.SColRef("Price", SqlType.DOUBLE), False)],
        )
        op = XtraWindow(get_op(), [("nxt", window)])
        sql = serializer.serialize(op)
        assert 'lead("Price") OVER (PARTITION BY "Symbol" ORDER BY "Price")' in sql

    def test_window_frame_uppercased(self, serializer):
        window = sc.SWindow(
            "sum",
            [sc.SColRef("Price", SqlType.DOUBLE)],
            order_by=[(sc.SColRef("ordcol", SqlType.BIGINT), False)],
            frame="rows between 2 preceding and current row",
        )
        op = XtraWindow(get_op(), [("s", window)])
        assert "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW" in serializer.serialize(op)

    def test_const_table_union_of_selects(self, serializer):
        op = XtraConstTable(
            [XtraColumn("a", SqlType.BIGINT), XtraColumn("b", SqlType.VARCHAR)],
            [[1, "x"], [2, "y"]],
        )
        sql = serializer.serialize(op)
        assert sql.count("SELECT") == 2
        assert "UNION ALL" in sql

    def test_empty_const_table(self, serializer):
        op = XtraConstTable([XtraColumn("a", SqlType.BIGINT)], [])
        sql = serializer.serialize(op)
        assert "LIMIT 0" in sql

    def test_unknown_op_raises(self, serializer):
        class Bogus:
            pass

        with pytest.raises(TranslationError):
            serializer.serialize(Bogus())


class TestConcurrentUse:
    def test_shared_instance_numbers_aliases_per_call(self, serializer):
        """One serializer serves every thread of a pipeline: each call
        numbers its aliases from hq_t1, however the calls interleave."""
        import re
        import sys
        import threading

        op = get_op()
        for depth in range(12):
            op = XtraLimit(XtraUnionAll(op, get_op()), depth + 1)
        expected = serializer.serialize(op)
        aliases = re.findall(r"AS hq_t(\d+)", expected)
        assert sorted(map(int, aliases)) == list(range(1, 25))
        mismatches = []

        def render():
            for __ in range(30):
                if serializer.serialize(op) != expected:
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestLiterals:
    def render(self, value, sql_type):
        return sql_literal(value, sql_type)

    def test_null_typed(self):
        assert self.render(None, SqlType.BIGINT) == "NULL::bigint"

    def test_booleans(self):
        assert self.render(True, SqlType.BOOLEAN) == "TRUE"
        assert self.render(False, SqlType.BOOLEAN) == "FALSE"

    def test_varchar(self):
        assert self.render("GOOG", SqlType.VARCHAR) == "'GOOG'::varchar"

    def test_string_escaping(self):
        assert self.render("O'Hare", SqlType.TEXT) == "'O''Hare'::text"

    def test_date(self):
        assert self.render(6021, SqlType.DATE) == "'2016-06-26'::date"

    def test_time(self):
        assert self.render(34_200_000, SqlType.TIME) == "'09:30:00.000'::time"

    def test_nan_becomes_null(self):
        assert self.render(float("nan"), SqlType.DOUBLE) == (
            "NULL::double precision"
        )

    def test_infinity(self):
        assert "Infinity" in self.render(float("inf"), SqlType.DOUBLE)


class TestRoundTripThroughEngine:
    """Serialized SQL must parse and execute on the engine substrate."""

    def test_every_shape_executes(self):
        engine = Engine()
        engine.execute(
            'CREATE TABLE "trades" ("Symbol" varchar, "Price" double precision,'
            ' "ordcol" bigint)'
        )
        engine.execute(
            "INSERT INTO \"trades\" VALUES ('GOOG', 1.0, 0), ('IBM', 2.0, 1)"
        )
        serializer = Serializer()
        shapes = [
            get_op(),
            XtraFilter(
                get_op(),
                sc.SCmp(
                    ">",
                    sc.SColRef("Price", SqlType.DOUBLE),
                    sc.SConst(0.0, SqlType.DOUBLE),
                ),
            ),
            XtraGroupAgg(
                get_op(),
                [("Symbol", sc.SColRef("Symbol", SqlType.VARCHAR))],
                [("m", sc.SAgg("max", sc.SColRef("Price", SqlType.DOUBLE),
                               type_=SqlType.DOUBLE))],
            ),
            XtraSort(get_op(), [(sc.SColRef("Price", SqlType.DOUBLE), True)]),
            XtraLimit(get_op(), 1),
        ]
        for op in shapes:
            result = engine.execute(serializer.serialize(op))
            assert result.rows is not None
