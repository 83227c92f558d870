"""Tests for the kdb+-style management utilities served from the MDI."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.admin import VERBS
from repro.qlang.parser import parse
from repro.qlang.qtypes import QType
from repro.qlang.values import QTable, QVector
from repro.wlm import QueryClass, classify_program
from tests.core.conftest import MARKET_TABLES


class TestTablesCommand:
    def test_lists_backend_tables(self, session):
        result = session.execute("tables[]")
        assert isinstance(result, QVector)
        assert set(result.items) >= {"trades", "quotes", "ratings"}

    def test_hides_internal_relations(self, session):
        session.execute("tmp: select from trades")
        result = session.execute("tables[]")
        assert not any(name.startswith("hq_") for name in result.items)

    def test_sorted(self, session):
        result = session.execute("tables[]")
        assert list(result.items) == sorted(result.items)


class TestColsCommand:
    def test_cols_of_backend_table(self, session):
        result = session.execute("cols trades")
        assert result == QVector(
            QType.SYMBOL, ["Symbol", "Time", "Price", "Size"]
        )

    def test_cols_excludes_ordcol(self, session):
        result = session.execute("cols trades")
        assert "ordcol" not in result.items

    def test_cols_of_session_variable(self, session):
        session.execute("dt: select Symbol, Price from trades")
        result = session.execute("cols dt")
        assert result.items == ["Symbol", "Price"]

    def test_cols_answered_from_metadata_cache(self, session):
        session.execute("cols trades")
        lookups_before = session.mdi.stats.lookups
        session.execute("cols trades")
        assert session.mdi.stats.hits >= 1
        assert session.mdi.stats.lookups == lookups_before + 1


class TestMetaCommand:
    def test_meta_shape(self, session):
        result = session.execute("meta trades")
        assert isinstance(result, QTable)
        assert result.columns == ["c", "t"]

    def test_meta_type_characters(self, session):
        result = session.execute("meta trades")
        by_name = dict(zip(result.column("c").items, result.column("t").items))
        assert by_name["Symbol"] == "s"
        assert by_name["Price"] == "f"
        assert by_name["Size"] == "j"
        assert by_name["Time"] == "t"

    def test_meta_matches_interpreter_modulo_temporal_width(self, session, interp):
        """The backend has a single `time` type, so second/minute columns
        come back as `t` — the expected (documented) type degradation."""
        left = interp.eval_text("meta trades")
        right = session.execute("meta trades")
        assert left.column("c") == right.column("c")
        intraday = set("uvt")
        for lchar, rchar in zip(
            left.column("t").items, right.column("t").items
        ):
            if lchar in intraday:
                assert rchar in intraday
            else:
                assert lchar == rchar

    def test_unknown_table_still_errors(self, session):
        from repro.errors import QNameError

        with pytest.raises(QNameError):
            session.execute("meta ghost_table")


class TestCheckCommand:
    """``check`` surfaces the qcheck analyzer on the session protocol."""

    def test_check_empty_lists_rule_catalog(self, session):
        result = session.execute("check[]")
        assert isinstance(result, QTable)
        assert result.columns == ["code", "name", "severity", "purpose"]
        codes = result.column("code").items
        assert len(codes) >= 5
        assert all(code.startswith("QC") for code in codes)

    def test_check_clean_query_reports_nothing(self, session):
        result = session.execute(
            'check "select Price from trades where Symbol=`GOOG"'
        )
        assert isinstance(result, QTable)
        assert result.columns == ["code", "severity", "rule", "pos", "message"]
        assert len(result.column("code").items) == 0

    def test_check_reports_unbound_name(self, session):
        result = session.execute('check "select frobnicate from trades"')
        codes = result.column("code").items
        assert "QC001" in codes
        severities = result.column("severity").items
        assert severities[codes.index("QC001")] == "error"

    def test_check_sees_session_variables(self, session):
        session.execute("vt: select from trades")
        clean = session.execute('check "select Symbol from vt"')
        assert len(clean.column("code").items) == 0

    def test_check_reports_parse_errors_as_qc000(self, session):
        result = session.execute('check "select from ("')
        assert "QC000" in result.column("code").items

    @pytest.mark.parametrize("query", ["shards[]", "tables[]"])
    def test_check_knows_every_admin_verb(self, session, query):
        result = session.execute(f'check "{query}"')
        assert len(result.column("code").items) == 0

    def test_check_does_not_shadow_user_function(self, session):
        """A user-defined ``check`` still wins over the admin command
        when applied to a non-string argument."""
        session.execute("check: {[x] select from trades where Size > x}")
        result = session.execute("check[25]")
        assert isinstance(result, QTable)
        assert "Symbol" in result.columns


@st.composite
def verb_applications(draw):
    """A registry verb or an ordinary name, applied to one argument
    shape: none, a table name, a char literal, a long literal, or two
    arguments; and the name of a stored function to define first, if
    any: the applied name or another verb, so a function may shadow the
    verb it is called as."""
    name = draw(st.sampled_from(sorted(VERBS) + ["count", "first", "foo"]))
    argument = draw(st.one_of(
        st.just("[]"),
        st.sampled_from(MARKET_TABLES).map(" {}".format),
        st.sampled_from(["1+1", "select from trades", "select from ("])
        .map(' "{}"'.format),
        st.integers(0, 9).map(" {}".format),
        st.integers(0, 9).map("[trades;{}]".format),
    ))
    shadow = draw(st.one_of(
        st.none(), st.just(name), st.sampled_from(sorted(VERBS))
    ))
    return shadow, name + argument


# one session serves every example: admin verbs and reads leave its state
# as it was, and a shadowing function is deleted again
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=verb_applications())
def test_billed_admin_iff_answered_by_the_registry(session, case):
    """The classifier, given the session scope, bills ``admin`` exactly
    the statements the session answers from the registry: no error and
    no backend SQL.  A stored function named like a verb is run, so its
    call is not billed ``admin``."""
    shadow, query = case
    scope = session.session_scope
    if shadow is not None:
        session.execute(f"{shadow}: {{[x] select from trades where Size > x}}")
    try:
        billed_admin = (
            classify_program(parse(query).statements, scope.lookup)
            is QueryClass.ADMIN
        )
        try:
            answered = not session.run(query).sql_statements
        except Exception:
            answered = False
    finally:
        if shadow is not None:
            scope.delete(shadow)
    assert billed_admin == answered, case
