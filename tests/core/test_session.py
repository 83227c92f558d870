"""Tests for the session layer: query life cycle, scopes, materialization."""

import pytest

from repro.config import HyperQConfig, MaterializationMode
from repro.core.scopes import VarKind
from repro.errors import QNameError, QNotSupportedError
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom, QTable, QVector


class TestQueryLifeCycle:
    def test_select_returns_qtable(self, session):
        result = session.execute("select from trades")
        assert isinstance(result, QTable)
        assert len(result) == 4

    def test_internal_columns_hidden(self, session):
        result = session.execute("select from trades")
        assert "ordcol" not in result.columns

    def test_scalar_statement(self, session):
        assert session.execute("1+2") == QAtom(QType.LONG, 3)

    def test_exec_returns_vector(self, session):
        result = session.execute("exec Size from trades")
        assert isinstance(result, QVector)

    def test_timings_recorded(self, session):
        outcome = session.run("select from trades where Price > 50")
        t = outcome.timings
        assert t.parse > 0
        assert t.algebrize > 0
        assert t.serialize > 0
        assert t.total < 1.0  # translation is cheap

    def test_rule_applications_reported(self, session):
        outcome = session.run("select Price from trades where Symbol=`GOOG")
        assert outcome.rule_applications.get("two_valued_logic", 0) >= 1
        assert outcome.rule_applications.get("column_pruning", 0) >= 1

    def test_translate_only_produces_sql_without_execution(self, session):
        outcome = session.translate("select from trades where Price > 50")
        assert outcome.value is None
        assert len(outcome.sql_statements) == 1
        assert "SELECT" in outcome.sql_statements[0]

    def test_translated_sql_quotes_case_sensitive_names(self, session):
        outcome = session.translate("select Price from trades")
        assert '"Price"' in outcome.sql_statements[0]

    def test_two_valued_logic_in_emitted_sql(self, session):
        outcome = session.translate("select from trades where Symbol=`GOOG")
        assert "IS NOT DISTINCT FROM" in outcome.sql_statements[0]

    def test_final_order_by_in_emitted_sql(self, session):
        outcome = session.translate("select Price from trades")
        assert 'ORDER BY "ordcol"' in outcome.sql_statements[0]

    @pytest.mark.xfail(strict=True, reason=(
        "bind_template filters before _bind_update, so the where drops "
        "the other rows; the reference interpreter agrees (ROADMAP item 1)"
    ))
    def test_update_where_keeps_every_row(self, session):
        """kdb+: ``update … where`` returns every row and changes only
        the rows the where selects."""
        result = session.execute("update Size: 0 from trades where Symbol=`GOOG")
        assert result.column("Symbol").items == ["GOOG", "IBM", "GOOG", "MSFT"]
        assert result.column("Size").items == [0, 20, 0, 40]


class TestVariables:
    def test_scalar_assignment_stays_in_variable_store(self, session):
        session.execute("x: 42")
        definition = session.session_scope.lookup("x")
        assert definition.kind == VarKind.SCALAR
        assert session.execute("x + 1") == QAtom(QType.LONG, 43)

    def test_scalar_used_in_where(self, session):
        session.execute("threshold: 60.0")
        result = session.execute("select from trades where Price > threshold")
        assert len(result) == 2

    def test_table_assignment_materializes(self, session):
        session.execute("goog: select from trades where Symbol=`GOOG")
        definition = session.session_scope.lookup("goog")
        assert definition.kind == VarKind.TABLE
        assert definition.relation.startswith("hq_temp_")
        result = session.execute("select from goog")
        assert len(result) == 2

    def test_dynamic_retyping(self, session):
        session.execute("x: 1")
        session.execute("x: select from trades")
        definition = session.session_scope.lookup("x")
        assert definition.kind == VarKind.TABLE

    def test_function_stored_as_text(self, session):
        session.execute("f: {[s] select from trades where Symbol=s}")
        definition = session.session_scope.lookup("f")
        assert definition.kind == VarKind.FUNCTION
        assert definition.source.startswith("{")

    def test_undefined_variable_verbose_error(self, session):
        with pytest.raises(QNameError) as excinfo:
            session.execute("select from missing_table")
        assert "scope" in str(excinfo.value) or "catalog" in str(excinfo.value)


class TestFunctionUnrolling:
    def test_papers_example_3(self, session):
        """The paper's Example 3: function with local table variable."""
        session.execute(
            "f: {[Sym] dt: select Price from trades where Symbol=Sym; "
            ":exec max Price from dt}"
        )
        result = session.execute("f[`GOOG]")
        assert result.value == 101.0

    def test_example_3_generates_temp_table_sql(self, session):
        session.execute(
            "f: {[Sym] dt: select Price from trades where Symbol=Sym; "
            ":exec max Price from dt}"
        )
        outcome = session.run("f[`GOOG]")
        create = [
            s for s in outcome.sql_statements if "CREATE TEMPORARY TABLE" in s
        ]
        assert create, "local table variable must materialize physically"
        assert "IS NOT DISTINCT FROM" in create[0]

    def test_local_variable_does_not_leak(self, session):
        session.execute(
            "f: {[Sym] dt: select from trades where Symbol=Sym; :count select from dt}"
        )
        session.execute("f[`GOOG]")
        with pytest.raises(QNameError):
            session.execute("select from dt")

    def test_function_redefinition_wins(self, session):
        session.execute("f: {[s] 1}")
        session.execute("f: {[s] 2}")
        assert session.execute("f[`x]").value == 2

    def test_scalar_param_shadows_session_variable(self, session):
        session.execute("v: 100")
        session.execute("g: {[v] select from trades where Size=v}")
        result = session.execute("g[20]")
        assert len(result) == 1


class TestSessionScopes:
    def test_promotion_on_close(self, hyperq):
        s1 = hyperq.create_session()
        s1.execute("promoted_var: 7")
        s1.close()
        s2 = hyperq.create_session()
        assert s2.execute("promoted_var") == QAtom(QType.LONG, 7)
        s2.close()

    def test_promoted_table_survives_sessions(self, hyperq):
        s1 = hyperq.create_session()
        s1.execute("big: select from trades where Size > 15")
        s1.close()
        s2 = hyperq.create_session()
        result = s2.execute("count select from big")
        assert result.value == 3
        s2.close()

    def test_temp_tables_dropped_on_close(self, hyperq):
        s1 = hyperq.create_session()
        s1.execute("tmp_only: select from trades")
        relation = s1.session_scope.lookup("tmp_only").relation
        s1.close()
        # the temp relation itself is gone (promoted copy lives elsewhere)
        assert relation not in hyperq.engine.catalog.temp_tables

    def test_close_is_idempotent(self, session):
        session.execute("x: 1")
        first = session.close()
        assert "x" in first
        assert session.close() == []

    def test_close_promotes_temp_table_to_hq_global_relation(self, hyperq):
        """Figure 3: a session temp table promoted at close becomes an
        ``hq_global_<name>`` permanent relation in the backend."""
        s1 = hyperq.create_session()
        s1.execute("promo: select from trades where Price > 50")
        temp_relation = s1.session_scope.lookup("promo").relation
        assert temp_relation.startswith("hq_temp_")
        promoted = s1.close()
        assert "promo" in promoted

        # the server-scope definition now points at the permanent relation
        definition = hyperq.server_scope.lookup("promo")
        assert definition.relation == "hq_global_promo"
        assert definition.meta is not None
        assert definition.meta.name == "hq_global_promo"
        assert definition.meta.schema == "public"

        # permanent relation exists in the backend with the rows; the
        # pg_temp relation it was copied from is gone
        rows = hyperq.engine.execute(
            'SELECT count(*) FROM "hq_global_promo"'
        ).scalar()
        assert rows == 2
        assert temp_relation not in hyperq.engine.catalog.temp_tables

    def test_promoted_relation_visible_in_new_session_sql(self, hyperq):
        s1 = hyperq.create_session()
        s1.execute("keepme: select Symbol, Price from trades")
        s1.close()
        s2 = hyperq.create_session()
        outcome = s2.run("select from keepme")
        assert '"hq_global_keepme"' in outcome.sql_statements[0]
        assert len(outcome.value) == 4
        s2.close()


class TestMaterializationModes:
    def test_logical_mode_creates_view(self, hyperq):
        config = HyperQConfig(materialization=MaterializationMode.LOGICAL)
        session = hyperq.create_session()
        session.config = config
        session.materializer.config = config
        session.execute("v: select from trades where Price > 50")
        definition = session.session_scope.lookup("v")
        assert definition.kind == VarKind.VIEW
        assert definition.relation.startswith("hq_view_")
        assert len(session.execute("select from v")) == 2
        session.close()

    def test_function_locals_always_physical(self, hyperq):
        config = HyperQConfig(materialization=MaterializationMode.LOGICAL)
        session = hyperq.create_session()
        session.config = config
        session.materializer.config = config
        session.execute(
            "f: {[s] dt: select from trades where Symbol=s; "
            ":count select from dt}"
        )
        outcome = session.run("f[`GOOG]")
        assert any("CREATE TEMPORARY TABLE" in s for s in outcome.sql_statements)
        session.close()


class TestUnsupportedSurface:
    def test_compound_assignment_rejected(self, session):
        session.execute("x: 1")
        with pytest.raises(QNotSupportedError):
            session.execute("x+:1")

    def test_indexed_amend_rejected(self, session):
        session.execute("x: 1")
        with pytest.raises(QNotSupportedError):
            session.execute("x[0]: 2")
