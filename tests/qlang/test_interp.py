"""Unit tests for the reference Q interpreter (the mini-kdb+ substrate)."""

import math

import pytest

from repro.errors import QError, QLengthError, QNameError
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import NULL_LONG, QType
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QTable,
    QVector,
    q_match,
)


@pytest.fixture()
def interp():
    return Interpreter()


@pytest.fixture()
def market(interp):
    interp.eval_text(
        "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT; "
        "Price:100.0 50.0 101.0 30.0; Size:10 20 30 40)"
    )
    interp.eval_text(
        "quotes: ([] Symbol:`GOOG`GOOG`IBM; "
        "Time:09:30:00 09:31:00 09:30:30; Bid:99.0 100.5 49.0; Ask:99.5 101.0 49.5)"
    )
    return interp


def atom(value):
    return QAtom(QType.LONG, value)


class TestBooleans:
    """q has no boolean null: ``0b`` is a value like ``1b``."""

    @pytest.mark.parametrize("query, expected", [
        ("not 0b", QAtom(QType.BOOLEAN, True)),
        ("not 1001b", QVector(QType.BOOLEAN, [False, True, True, False])),
        ("null 1001b", QVector(QType.BOOLEAN, [False] * 4)),
        ("where not 1001b", QVector(QType.LONG, [1, 2])),
        (
            "tt: ([] b:1001b; j:1 2 3 4); exec j from tt where not b",
            QVector(QType.LONG, [2, 3]),
        ),
    ])
    def test_zero_b_is_not_null(self, interp, query, expected):
        assert q_match(interp.eval_text(query), expected)


class TestScalars:
    def test_right_to_left(self, interp):
        assert interp.eval_text("2*3+4") == atom(14)

    def test_division_is_float(self, interp):
        result = interp.eval_text("7%2")
        assert result.qtype == QType.FLOAT
        assert result.value == 3.5

    def test_division_by_zero_is_inf(self, interp):
        assert interp.eval_text("1%0").value == float("inf")

    def test_null_propagates_through_arithmetic(self, interp):
        assert interp.eval_text("1+0N").value == NULL_LONG

    def test_two_nulls_compare_equal(self, interp):
        assert interp.eval_text("0N = 0N") == QAtom(QType.BOOLEAN, True)

    def test_float_nulls_compare_equal(self, interp):
        assert interp.eval_text("0n = 0n") == QAtom(QType.BOOLEAN, True)

    def test_null_not_equal_value(self, interp):
        assert interp.eval_text("0N = 5") == QAtom(QType.BOOLEAN, False)

    def test_and_is_min(self, interp):
        assert interp.eval_text("3 & 5") == atom(3)

    def test_or_is_max(self, interp):
        assert interp.eval_text("3 | 5") == atom(5)

    def test_fill_caret(self, interp):
        assert interp.eval_text("7 ^ 0N") == atom(7)
        assert interp.eval_text("7 ^ 3") == atom(3)

    def test_match_tilde(self, interp):
        assert interp.eval_text("1 2 3 ~ 1 2 3").value is True
        assert interp.eval_text("1 2 ~ 1 2 3").value is False

    def test_cast(self, interp):
        assert interp.eval_text("`float$3") == QAtom(QType.FLOAT, 3.0)

    def test_xbar(self, interp):
        assert interp.eval_text("5 xbar 13") == atom(10)

    def test_mod(self, interp):
        assert interp.eval_text("7 mod 3") == atom(1)

    def test_signum(self, interp):
        assert interp.eval_text("signum -5").value == -1


class TestBroadcasting:
    def test_atom_vector(self, interp):
        assert interp.eval_text("10 + 1 2 3") == QVector(QType.LONG, [11, 12, 13])

    def test_vector_vector(self, interp):
        assert interp.eval_text("1 2 3 * 4 5 6") == QVector(QType.LONG, [4, 10, 18])

    def test_length_error(self, interp):
        with pytest.raises(QLengthError):
            interp.eval_text("1 2 + 1 2 3")

    def test_comparison_vectorizes(self, interp):
        result = interp.eval_text("1 2 3 > 2")
        assert result == QVector(QType.BOOLEAN, [False, False, True])

    def test_dict_broadcast(self, interp):
        result = interp.eval_text("(`a`b!1 2) + 10")
        assert result.values == QVector(QType.LONG, [11, 12])


class TestListVerbs:
    def test_til(self, interp):
        assert interp.eval_text("til 4") == QVector(QType.LONG, [0, 1, 2, 3])

    def test_count(self, interp):
        assert interp.eval_text("count 1 2 3") == atom(3)

    def test_sum_skips_nulls(self, interp):
        assert interp.eval_text("sum 1 0N 2") == atom(3)

    def test_avg_skips_nulls(self, interp):
        assert interp.eval_text("avg 1 0N 3").value == 2.0

    def test_min_max(self, interp):
        assert interp.eval_text("min 3 1 2") == atom(1)
        assert interp.eval_text("max 3 1 2") == atom(3)

    def test_med(self, interp):
        assert interp.eval_text("med 1 2 3 4").value == 2.5

    def test_dev(self, interp):
        assert interp.eval_text("dev 2 2 2").value == 0.0

    def test_first_last(self, interp):
        assert interp.eval_text("first 5 6 7") == atom(5)
        assert interp.eval_text("last 5 6 7") == atom(7)

    def test_distinct_preserves_order(self, interp):
        assert interp.eval_text("distinct 3 1 3 2 1") == QVector(
            QType.LONG, [3, 1, 2]
        )

    def test_where_booleans(self, interp):
        assert interp.eval_text("where 101b") == QVector(QType.LONG, [0, 2])

    def test_where_counts(self, interp):
        assert interp.eval_text("where 0 2 1") == QVector(QType.LONG, [1, 1, 2])

    def test_iasc(self, interp):
        assert interp.eval_text("iasc 30 10 20") == QVector(QType.LONG, [1, 2, 0])

    def test_asc_desc(self, interp):
        assert interp.eval_text("asc 3 1 2") == QVector(QType.LONG, [1, 2, 3])
        assert interp.eval_text("desc 3 1 2") == QVector(QType.LONG, [3, 2, 1])

    def test_nulls_sort_first(self, interp):
        assert interp.eval_text("asc 2 0N 1") == QVector(
            QType.LONG, [NULL_LONG, 1, 2]
        )

    def test_sums(self, interp):
        assert interp.eval_text("sums 1 2 3") == QVector(QType.LONG, [1, 3, 6])

    def test_deltas(self, interp):
        assert interp.eval_text("deltas 1 3 6") == QVector(QType.LONG, [1, 2, 3])

    def test_fills(self, interp):
        assert interp.eval_text("fills 1 0N 0N 2") == QVector(
            QType.LONG, [1, 1, 1, 2]
        )

    def test_next_prev(self, interp):
        assert interp.eval_text("next 1 2 3") == QVector(
            QType.LONG, [2, 3, NULL_LONG]
        )
        assert interp.eval_text("prev 1 2 3") == QVector(
            QType.LONG, [NULL_LONG, 1, 2]
        )

    def test_take_cycles(self, interp):
        assert interp.eval_text("5#1 2") == QVector(QType.LONG, [1, 2, 1, 2, 1])

    def test_take_negative(self, interp):
        assert interp.eval_text("-2#1 2 3") == QVector(QType.LONG, [2, 3])

    def test_drop(self, interp):
        assert interp.eval_text("2_1 2 3 4") == QVector(QType.LONG, [3, 4])

    def test_sublist_does_not_cycle(self, interp):
        assert interp.eval_text("5 sublist 1 2") == QVector(QType.LONG, [1, 2])

    def test_concat(self, interp):
        assert interp.eval_text("1 2,3") == QVector(QType.LONG, [1, 2, 3])

    def test_reverse(self, interp):
        assert interp.eval_text("reverse 1 2 3") == QVector(QType.LONG, [3, 2, 1])

    def test_in(self, interp):
        assert interp.eval_text("2 in 1 2 3").value is True

    def test_within(self, interp):
        assert interp.eval_text("2 5 9 within 3 7") == QVector(
            QType.BOOLEAN, [False, True, False]
        )

    def test_except(self, interp):
        assert interp.eval_text("1 2 3 except 2") == QVector(QType.LONG, [1, 3])

    def test_inter(self, interp):
        assert interp.eval_text("1 2 3 inter 2 3 4") == QVector(QType.LONG, [2, 3])

    def test_find(self, interp):
        assert interp.eval_text("`a`b`c ? `b") == atom(1)

    def test_find_missing_returns_count(self, interp):
        assert interp.eval_text("`a`b ? `z") == atom(2)

    def test_group(self, interp):
        result = interp.eval_text("group `a`b`a")
        assert isinstance(result, QDict)
        assert result.keys == QVector(QType.SYMBOL, ["a", "b"])

    def test_mavg(self, interp):
        result = interp.eval_text("2 mavg 1.0 2 3")
        assert result.items == [1.0, 1.5, 2.5]

    def test_wavg(self, interp):
        assert interp.eval_text("1 2 wavg 10.0 20").value == pytest.approx(
            (10 + 40) / 3
        )

    def test_bin(self, interp):
        assert interp.eval_text("1 3 5 bin 4") == atom(1)

    def test_raze(self, interp):
        assert interp.eval_text("raze (1 2; 3)") == QVector(QType.LONG, [1, 2, 3])

    def test_vs_splits_strings(self, interp):
        result = interp.eval_text('"," vs "a,b"')
        assert len(result.items) == 2

    def test_sv_joins_strings(self, interp):
        result = interp.eval_text('"," sv ("a";"b")')
        assert "".join(result.items) == "a,b"


class TestVariables:
    def test_assign_and_read(self, interp):
        interp.eval_text("x: 42")
        assert interp.eval_text("x") == atom(42)

    def test_dynamic_retyping(self, interp):
        interp.eval_text("x: 1")
        interp.eval_text("x: 1 2 3")
        assert isinstance(interp.eval_text("x"), QVector)
        interp.eval_text("x: ([] a: 1 2)")
        assert isinstance(interp.eval_text("x"), QTable)

    def test_compound_assign(self, interp):
        interp.eval_text("x: 10")
        interp.eval_text("x+:5")
        assert interp.eval_text("x") == atom(15)

    def test_undefined_raises(self, interp):
        with pytest.raises(QNameError):
            interp.eval_text("nosuchvar")

    def test_indexed_amend(self, interp):
        interp.eval_text("x: 1 2 3")
        interp.eval_text("x[1]: 99")
        assert interp.eval_text("x") == QVector(QType.LONG, [1, 99, 3])

    def test_local_shadows_global(self, interp):
        interp.eval_text("v: 1")
        interp.eval_text("f: {[v] v+100}")
        assert interp.eval_text("f[5]") == atom(105)
        assert interp.eval_text("v") == atom(1)

    def test_local_assignment_stays_local(self, interp):
        interp.eval_text("g: {tmp: 42; tmp}")
        interp.eval_text("g[]")
        with pytest.raises(QNameError):
            interp.eval_text("tmp")

    def test_global_assign_from_function(self, interp):
        interp.eval_text("h: {gv:: x; 0}")
        interp.eval_text("h[7]")
        assert interp.eval_text("gv") == atom(7)


class TestFunctions:
    def test_explicit_params(self, interp):
        interp.eval_text("add: {[a;b] a+b}")
        assert interp.eval_text("add[3;4]") == atom(7)

    def test_implicit_params(self, interp):
        assert interp.eval_text("{x*y}[3;4]") == atom(12)

    def test_early_return(self, interp):
        interp.eval_text("f: {:x+1; 99}")
        assert interp.eval_text("f[1]") == atom(2)

    def test_partial_application_projection(self, interp):
        interp.eval_text("add: {[a;b] a+b}")
        interp.eval_text("inc: add[1]")
        assert interp.eval_text("inc[10]") == atom(11)

    def test_elided_projection(self, interp):
        interp.eval_text("sub: {[a;b] a-b}")
        interp.eval_text("dec: sub[;1]")
        assert interp.eval_text("dec[10]") == atom(9)

    def test_function_stored_and_reinvoked(self, interp):
        interp.eval_text("f: {x+1}")
        interp.eval_text("f: {x+2}")  # redefinition, as the paper notes
        assert interp.eval_text("f[1]") == atom(3)

    def test_signal(self, interp):
        with pytest.raises(QError):
            interp.eval_text("f: {'badinput}; f[]")

    def test_conditional(self, interp):
        assert interp.eval_text("$[1b; `yes; `no]").value == "yes"
        assert interp.eval_text("$[0b; `yes; `no]").value == "no"

    def test_conditional_chain(self, interp):
        assert interp.eval_text("$[0b; 1; 1b; 2; 3]") == atom(2)


class TestAdverbs:
    def test_over_fold(self, interp):
        assert interp.eval_text("+/ 1 2 3 4") == atom(10)

    def test_over_with_seed(self, interp):
        assert interp.eval_text("100 +/ 1 2 3") == atom(106)

    def test_scan(self, interp):
        assert interp.eval_text("+\\ 1 2 3") == QVector(QType.LONG, [1, 3, 6])

    def test_each_monadic(self, interp):
        assert interp.eval_text("{x*x} each 1 2 3") == QVector(QType.LONG, [1, 4, 9])

    def test_each_dyadic_pairwise(self, interp):
        assert interp.eval_text("1 2 {x+y}' 10 20") == QVector(QType.LONG, [11, 22])

    def test_each_right(self, interp):
        assert interp.eval_text("10 +/: 1 2 3") == QVector(QType.LONG, [11, 12, 13])

    def test_each_left(self, interp):
        assert interp.eval_text("1 2 3 +\\: 10") == QVector(QType.LONG, [11, 12, 13])

    def test_each_prior(self, interp):
        result = interp.eval_text("-': 1 3 6")
        assert result.items[1:] == [2, 3]

    def test_max_over(self, interp):
        assert interp.eval_text("|/ 3 9 4") == atom(9)


class TestTemplates:
    def test_select_all(self, market):
        result = market.eval_text("select from trades")
        assert isinstance(result, QTable)
        assert len(result) == 4

    def test_select_projection(self, market):
        result = market.eval_text("select Price from trades")
        assert result.columns == ["Price"]

    def test_where_filter(self, market):
        result = market.eval_text("select from trades where Symbol=`GOOG")
        assert len(result) == 2

    def test_where_sequential_conjuncts(self, market):
        result = market.eval_text(
            "select from trades where Price>40, Size>15"
        )
        assert len(result) == 2  # IBM(50,20) and GOOG(101,30)

    def test_aggregate_returns_single_row(self, market):
        result = market.eval_text("select max Price from trades")
        assert len(result) == 1
        assert result.column("Price").items == [101.0]

    def test_group_by(self, market):
        result = market.eval_text("select sum Size by Symbol from trades")
        assert isinstance(result, QKeyedTable)
        assert result.key.column("Symbol").items == ["GOOG", "IBM", "MSFT"]
        assert result.value.column("Size").items == [40, 20, 40]

    def test_named_column(self, market):
        result = market.eval_text("select notional: Price*Size from trades")
        assert result.columns == ["notional"]

    def test_select_limit(self, market):
        result = market.eval_text("select[2] from trades")
        assert len(result) == 2

    def test_exec_single_column_returns_vector(self, market):
        result = market.eval_text("exec Price from trades")
        assert isinstance(result, QVector)
        assert len(result) == 4

    def test_exec_multi_returns_dict(self, market):
        result = market.eval_text("exec Price, Size from trades")
        assert isinstance(result, QDict)

    def test_exec_by(self, market):
        result = market.eval_text("exec sum Size by Symbol from trades")
        assert isinstance(result, QDict)

    def test_update_adds_column(self, market):
        result = market.eval_text("update Notional: Price*Size from trades")
        assert "Notional" in result.columns
        assert result.column("Notional").items[0] == 1000.0

    def test_update_does_not_persist(self, market):
        market.eval_text("update Price: 0.0 from trades")
        original = market.eval_text("select from trades")
        assert original.column("Price").items[0] == 100.0

    def test_update_by_group(self, market):
        result = market.eval_text("update s: sums Size by Symbol from trades")
        assert result.column("s").items == [10, 20, 40, 40]

    @pytest.mark.xfail(strict=True, reason=(
        "_eval_template applies the where before _run_update, so the "
        "other rows are dropped; Hyper-Q's binder agrees (ROADMAP item 1)"
    ))
    def test_update_where_keeps_every_row(self, market):
        """kdb+: ``update … where`` returns every row, changes only the
        selected ones, and a new column is null on the rest."""
        result = market.eval_text("update Size: 0 from trades where Symbol=`GOOG")
        assert result.column("Size").items == [0, 20, 0, 40]
        added = market.eval_text("update New: 1 from trades where Symbol=`GOOG")
        assert added.column("New").items == [1, NULL_LONG, 1, NULL_LONG]

    def test_delete_rows(self, market):
        result = market.eval_text("delete from trades where Symbol=`GOOG")
        assert len(result) == 2

    def test_delete_columns(self, market):
        result = market.eval_text("delete Size from trades")
        assert "Size" not in result.columns

    def test_nested_template(self, market):
        result = market.eval_text(
            "select from (select from trades where Price>40) where Size>15"
        )
        assert len(result) == 2

    def test_virtual_row_index_i(self, market):
        result = market.eval_text("select from trades where i<2")
        assert len(result) == 2

    def test_select_by_without_columns_keeps_last(self, market):
        result = market.eval_text("select by Symbol from trades")
        assert isinstance(result, QKeyedTable)
        goog_row = result.value.column("Price").items[0]
        assert goog_row == 101.0


class TestJoins:
    def test_aj_prevailing_quote(self, market):
        market.eval_text(
            "t2: ([] Symbol:`GOOG`IBM; Time:09:30:30 09:31:00; Price:100.0 50.0)"
        )
        result = market.eval_text("aj[`Symbol`Time; t2; quotes]")
        assert result.column("Bid").items == [99.0, 49.0]

    def test_aj_no_match_gives_null(self, market):
        market.eval_text(
            "t3: ([] Symbol:`TSLA; Time:09:30:30; Price:1.0)"
        )
        result = market.eval_text("aj[`Symbol`Time; t3; quotes]")
        bid = result.column("Bid").items[0]
        assert math.isnan(bid)

    def test_aj_takes_latest_not_first(self, market):
        market.eval_text(
            "t4: ([] Symbol:`GOOG; Time:09:40:00; Price:1.0)"
        )
        result = market.eval_text("aj[`Symbol`Time; t4; quotes]")
        assert result.column("Bid").items == [100.5]

    def test_lj(self, market):
        market.eval_text("kt: ([Symbol:`GOOG`IBM] Rating:`buy`hold)")
        result = market.eval_text("trades lj kt")
        assert result.column("Rating").items == ["buy", "hold", "buy", ""]

    def test_ij_drops_unmatched(self, market):
        market.eval_text("kt: ([Symbol:`GOOG] Rating:`buy)")
        result = market.eval_text("trades ij kt")
        assert len(result) == 2

    def test_uj_unions_columns(self, market):
        market.eval_text("a: ([] x: 1 2)")
        market.eval_text("b: ([] y: 3 4)")
        result = market.eval_text("a uj b")
        assert result.columns == ["x", "y"]
        assert len(result) == 4

    def test_ej(self, market):
        market.eval_text("ref: ([] Symbol:`GOOG`GOOG; Venue:`N`B)")
        result = market.eval_text("ej[`Symbol; trades; ref]")
        # two GOOG trades x two venues
        assert len(result) == 4

    def test_xkey_and_unkey(self, market):
        result = market.eval_text("1!trades")
        assert isinstance(result, QKeyedTable)
        flat = market.eval_text("0!1!trades")
        assert isinstance(flat, QTable)


class TestTables:
    def test_table_literal(self, interp):
        t = interp.eval_text("([] a:1 2; b:`x`y)")
        assert t.columns == ["a", "b"]

    def test_atom_column_broadcast(self, interp):
        t = interp.eval_text("([] a:1 2 3; b:0)")
        assert t.column("b").items == [0, 0, 0]

    def test_cols(self, interp):
        interp.eval_text("t: ([] a:1 2; b:3 4)")
        assert interp.eval_text("cols t") == QVector(QType.SYMBOL, ["a", "b"])

    def test_meta_types(self, interp):
        interp.eval_text("t: ([] a:1 2; b:`x`y)")
        m = interp.eval_text("meta t")
        assert m.column("t").items == ["j", "s"]

    def test_flip_roundtrip(self, interp):
        interp.eval_text("t: ([] a:1 2; b:3 4)")
        assert q_match(interp.eval_text("flip flip t"), interp.eval_text("t"))

    def test_xasc(self, interp):
        interp.eval_text("t: ([] s:`b`a; v:1 2)")
        result = interp.eval_text("`s xasc t")
        assert result.column("s").items == ["a", "b"]

    def test_xcol_rename(self, interp):
        interp.eval_text("t: ([] a:1 2; b:3 4)")
        result = interp.eval_text("`x`y xcol t")
        assert result.columns == ["x", "y"]

    def test_insert_appends_to_global(self, interp):
        interp.eval_text("t: ([] a: 1 2)")
        interp.eval_text("`t insert ([] a: enlist 3)")
        assert len(interp.eval_text("t")) == 3

    def test_table_row_indexing(self, interp):
        interp.eval_text("t: ([] a:1 2; b:`x`y)")
        row = interp.eval_text("t[0]")
        assert isinstance(row, QDict)

    def test_dict_creation_and_lookup(self, interp):
        interp.eval_text("d: `a`b!1 2")
        assert interp.eval_text("d[`b]") == atom(2)

    def test_type_codes(self, interp):
        assert interp.eval_text("type 1 2 3").value == 7
        assert interp.eval_text("type `a").value == -11
        assert interp.eval_text("type ([] a: 1 2)").value == 98
