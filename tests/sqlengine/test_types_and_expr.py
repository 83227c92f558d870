"""Unit tests for SQL types, casts, and three-valued-logic evaluation."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlTypeError
from repro.sqlengine.engine import Engine
from repro.sqlengine.types import (
    SqlType,
    cast_value,
    promote,
    render_value,
    type_from_name,
)


class TestTypeNames:
    def test_aliases(self):
        assert type_from_name("int8") == SqlType.BIGINT
        assert type_from_name("float8") == SqlType.DOUBLE
        assert type_from_name("bool") == SqlType.BOOLEAN

    def test_length_arguments_ignored(self):
        assert type_from_name("varchar(255)") == SqlType.VARCHAR
        assert type_from_name("numeric(10,2)") == SqlType.NUMERIC

    def test_multiword(self):
        assert type_from_name("double precision") == SqlType.DOUBLE
        assert type_from_name("character varying") == SqlType.VARCHAR

    def test_unknown_raises(self):
        with pytest.raises(SqlTypeError):
            type_from_name("blob")


class TestPromotion:
    def test_numeric_widening(self):
        assert promote(SqlType.SMALLINT, SqlType.BIGINT) == SqlType.BIGINT
        assert promote(SqlType.BIGINT, SqlType.DOUBLE) == SqlType.DOUBLE

    def test_null_yields_other(self):
        assert promote(SqlType.NULL, SqlType.DATE) == SqlType.DATE

    def test_temporal_plus_numeric(self):
        assert promote(SqlType.DATE, SqlType.INTEGER) == SqlType.DATE

    def test_text_combines_to_text(self):
        assert promote(SqlType.VARCHAR, SqlType.CHAR) == SqlType.TEXT

    def test_incompatible(self):
        with pytest.raises(SqlTypeError):
            promote(SqlType.BOOLEAN, SqlType.DATE)


class TestCasts:
    def test_null_passthrough(self):
        assert cast_value(None, SqlType.BIGINT) is None

    def test_string_to_int(self):
        assert cast_value(" 42 ", SqlType.BIGINT) == 42

    def test_string_to_bool(self):
        assert cast_value("t", SqlType.BOOLEAN) is True
        assert cast_value("false", SqlType.BOOLEAN) is False
        with pytest.raises(SqlTypeError):
            cast_value("maybe", SqlType.BOOLEAN)

    def test_bool_to_text(self):
        assert cast_value(True, SqlType.TEXT) == "t"

    def test_date_text_roundtrip(self):
        days = cast_value("2016-06-26", SqlType.DATE)
        assert render_value(days, SqlType.DATE) == "2016-06-26"

    def test_time_text_roundtrip(self):
        millis = cast_value("09:30:00.123", SqlType.TIME)
        assert render_value(millis, SqlType.TIME) == "09:30:00.123"

    def test_timestamp_text_roundtrip(self):
        nanos = cast_value("2016-06-26 09:30:00.5", SqlType.TIMESTAMP)
        assert render_value(nanos, SqlType.TIMESTAMP).startswith(
            "2016-06-26 09:30:00.5"
        )


class TestThreeValuedLogic:
    @pytest.fixture()
    def engine(self):
        return Engine()

    def q(self, engine, expr):
        return engine.execute(f"SELECT {expr}").scalar()

    def test_null_comparisons_are_null(self, engine):
        assert self.q(engine, "NULL = 1") is None
        assert self.q(engine, "NULL <> 1") is None
        assert self.q(engine, "NULL < 1") is None

    def test_kleene_and(self, engine):
        assert self.q(engine, "FALSE AND NULL") is False
        assert self.q(engine, "TRUE AND NULL") is None
        assert self.q(engine, "NULL AND NULL") is None

    def test_kleene_or(self, engine):
        assert self.q(engine, "TRUE OR NULL") is True
        assert self.q(engine, "FALSE OR NULL") is None

    def test_not_null(self, engine):
        assert self.q(engine, "NOT NULL::boolean") is None

    def test_is_distinct_from(self, engine):
        assert self.q(engine, "NULL IS DISTINCT FROM 1") is True
        assert self.q(engine, "NULL IS DISTINCT FROM NULL") is False
        assert self.q(engine, "1 IS NOT DISTINCT FROM 1") is True

    def test_in_with_null_member(self, engine):
        assert self.q(engine, "1 IN (1, NULL)") is True
        assert self.q(engine, "2 IN (1, NULL)") is None

    def test_null_arithmetic(self, engine):
        assert self.q(engine, "1 + NULL") is None
        assert self.q(engine, "NULL * 0") is None

    def test_null_concat(self, engine):
        assert self.q(engine, "'a' || NULL") is None

    def test_between_with_null_bound(self, engine):
        assert self.q(engine, "1 BETWEEN NULL AND 2") is None

    def test_case_null_condition_not_taken(self, engine):
        assert self.q(engine, "CASE WHEN NULL THEN 1 ELSE 2 END") == 2

    def test_coalesce_chain(self, engine):
        assert self.q(engine, "coalesce(NULL, NULL, 3)") == 3

    def test_nullif(self, engine):
        assert self.q(engine, "nullif(5, 5)") is None
        assert self.q(engine, "nullif(5, 6)") == 5

    def test_like_null(self, engine):
        assert self.q(engine, "NULL LIKE 'a%'") is None

    def test_greatest_ignores_nulls(self, engine):
        assert self.q(engine, "greatest(1, NULL, 3)") == 3


# ---------------------------------------------------------------------------
# The same truth tables over columns that hold NULLs: literal-only
# expressions fold when a statement is compiled, so only column operands
# reach the per-row closures.
# ---------------------------------------------------------------------------

BOOLS = [True, False, None]
# (p, q) runs over every pair of truth values; x, y, s cycle through
# values with NULLs so every operator meets a NULL on either side
ROWS = [
    (i, p, q, [1, 2, None][i % 3], [1, None, 3][(i // 3) % 3],
     ["ab", None, "ba"][i % 3])
    for i, (p, q) in enumerate(itertools.product(BOOLS, BOOLS))
]


def _kleene_and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _kleene_or(a, b):
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def _strict(fn):
    return lambda *args: None if None in args else fn(*args)


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


@functools.lru_cache(maxsize=1)
def _null_table_engine() -> Engine:
    engine = Engine()
    engine.execute(
        "CREATE TABLE v (id bigint, p boolean, q boolean, x bigint, "
        "y bigint, s varchar)"
    )
    engine.execute(
        "INSERT INTO v VALUES "
        + ", ".join(
            "(" + ", ".join(_sql_literal(v) for v in row) + ")" for row in ROWS
        )
    )
    return engine


class TestThreeValuedLogicOverColumns:
    def column(self, expr):
        result = _null_table_engine().execute(f"SELECT {expr} FROM v ORDER BY id")
        return [row[0] for row in result.rows]

    def expect(self, expr, fn):
        expected = [fn(*row[1:]) for row in ROWS]
        assert self.column(expr) == expected

    def test_and_or_not(self):
        self.expect("p AND q", lambda p, q, x, y, s: _kleene_and(p, q))
        self.expect("p OR q", lambda p, q, x, y, s: _kleene_or(p, q))
        self.expect("NOT p", lambda p, q, x, y, s: None if p is None else not p)
        self.expect("p AND NULL", lambda p, q, x, y, s: _kleene_and(p, None))
        self.expect("p OR NULL", lambda p, q, x, y, s: _kleene_or(p, None))

    def test_comparisons(self):
        for op, fn in [("=", lambda a, b: a == b), ("<>", lambda a, b: a != b),
                       ("<", lambda a, b: a < b), (">=", lambda a, b: a >= b)]:
            self.expect(f"x {op} y", lambda p, q, x, y, s: _strict(fn)(x, y))
            self.expect(f"x {op} 2", lambda p, q, x, y, s: _strict(fn)(x, 2))

    def test_is_distinct_from(self):
        self.expect("x IS DISTINCT FROM y", lambda p, q, x, y, s: x != y)
        self.expect("x IS NOT DISTINCT FROM y", lambda p, q, x, y, s: x == y)
        self.expect("x IS NOT DISTINCT FROM NULL", lambda p, q, x, y, s: x is None)
        self.expect("p IS NULL", lambda p, q, x, y, s: p is None)
        self.expect("x IS NOT NULL", lambda p, q, x, y, s: x is not None)

    def test_in_with_null_item(self):
        def in_list(value, items):
            if value is None:
                return None
            if value in [i for i in items if i is not None]:
                return True
            return None if None in items else False

        self.expect("x IN (1, NULL)", lambda p, q, x, y, s: in_list(x, [1, None]))
        self.expect(
            "x NOT IN (1, NULL)",
            lambda p, q, x, y, s: None if in_list(x, [1, None]) is None
            else not in_list(x, [1, None]),
        )
        self.expect("x IN (y, 2)", lambda p, q, x, y, s: in_list(x, [y, 2]))

    def test_between_with_null_bound(self):
        self.expect(
            "x BETWEEN y AND 3", lambda p, q, x, y, s: _strict(
                lambda a, lo, hi: lo <= a <= hi)(x, y, 3),
        )
        self.expect(
            "x NOT BETWEEN 1 AND y", lambda p, q, x, y, s: _strict(
                lambda a, lo, hi: not lo <= a <= hi)(x, 1, y),
        )

    def test_like(self):
        self.expect("s LIKE 'a%'", lambda p, q, x, y, s: _strict(
            lambda t: t.startswith("a"))(s))
        self.expect("s NOT LIKE '_a'", lambda p, q, x, y, s: _strict(
            lambda t: not (len(t) == 2 and t[1] == "a"))(s))

    def test_case(self):
        self.expect(
            "CASE WHEN p THEN 1 WHEN q THEN 2 ELSE 3 END",
            lambda p, q, x, y, s: 1 if p is True else (2 if q is True else 3),
        )
        self.expect(
            "CASE x WHEN y THEN 'same' WHEN 2 THEN 'two' END",
            lambda p, q, x, y, s: "same" if x is not None and x == y
            else ("two" if x == 2 else None),
        )

    def test_arithmetic_and_concat(self):
        self.expect("x + y", lambda p, q, x, y, s: _strict(lambda a, b: a + b)(x, y))
        self.expect("x * 0", lambda p, q, x, y, s: _strict(lambda a: a * 0)(x))
        self.expect("-x", lambda p, q, x, y, s: _strict(lambda a: -a)(x))
        self.expect("s || 'z'", lambda p, q, x, y, s: _strict(lambda t: t + "z")(s))

    def test_where_keeps_only_true(self):
        engine = _null_table_engine()
        for predicate, fn in [("p", lambda p, q: p), ("NOT p", lambda p, q: (
                None if p is None else not p)), ("p AND q", _kleene_and)]:
            kept = engine.execute(f"SELECT id FROM v WHERE {predicate}").rows
            assert kept == [(row[0],) for row in ROWS if fn(row[1], row[2]) is True]


# ternary logic partitioning (Rigger & Su, OOPSLA 2020): every row makes a
# predicate exactly one of TRUE, FALSE (NOT p is TRUE) or NULL
_atoms = st.sampled_from([
    "p", "q", "TRUE", "FALSE", "NULL::boolean",
    "x = y", "x < 2", "y >= x", "x <> NULL", "x IS NULL", "y IS NOT NULL",
    "x IS DISTINCT FROM y", "x IS NOT DISTINCT FROM 2",
    "x IN (1, NULL)", "y NOT IN (3, x)", "x BETWEEN y AND 2",
    "s LIKE 'a%'", "s || 'z' = 'abz'", "x + y > 2",
    "CASE WHEN p THEN q ELSE x = 1 END", "coalesce(x, y) = 1",
])
_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a}) AND ({b})", inner, inner),
        st.builds(lambda a, b: f"({a}) OR ({b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_predicates)
def test_ternary_logic_partitioning(predicate):
    engine = _null_table_engine()

    def count(where: str) -> int:
        return engine.execute(f"SELECT count(*) FROM v WHERE {where}").scalar()

    total = engine.execute("SELECT count(*) FROM v").scalar()
    assert total == (
        count(predicate)
        + count(f"NOT ({predicate})")
        + count(f"({predicate}) IS NULL")
    )
