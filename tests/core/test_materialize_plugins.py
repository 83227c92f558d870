"""Tests for the materializer."""

import pytest

from repro.config import MaterializationMode
from repro.core.materialize import Materializer
from repro.core.scopes import VarKind
from repro.qlang.parser import parse_expression
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom


@pytest.fixture()
def setup(hyperq):
    session = hyperq.create_session()
    materializer = Materializer(hyperq.config)
    return hyperq, session, materializer


class TestMaterializer:
    @staticmethod
    def translate(session, text):
        """The unit an assignment's value hands the materializer."""
        return session.pipeline.translate(
            parse_expression(text), session.session_scope, result=False
        )

    def test_physical_emits_create_temp_table(self, setup):
        hq, session, materializer = setup
        unit = self.translate(session, "select from trades where Price > 50")
        step = materializer.materialize_table(
            "dt", unit, session.session_scope, MaterializationMode.PHYSICAL
        )
        assert step.kind == "temp_table"
        assert step.sql.startswith('CREATE TEMPORARY TABLE "hq_temp_')
        assert step.sql.endswith(unit.sql)
        assert session.session_scope.lookup("dt").kind == VarKind.TABLE

    def test_logical_emits_create_view(self, setup):
        hq, session, materializer = setup
        unit = self.translate(session, "select from trades")
        step = materializer.materialize_table(
            "v", unit, session.session_scope, MaterializationMode.LOGICAL
        )
        assert step.kind == "view"
        assert "CREATE OR REPLACE VIEW" in step.sql
        assert session.session_scope.lookup("v").kind == VarKind.VIEW

    def test_temp_names_increment(self, setup):
        hq, session, materializer = setup
        unit = self.translate(session, "select from trades")
        first = materializer.materialize_table(
            "a", unit, session.session_scope, MaterializationMode.PHYSICAL
        )
        second = materializer.materialize_table(
            "b", unit, session.session_scope, MaterializationMode.PHYSICAL
        )
        assert first.relation != second.relation

    def test_meta_recorded_from_bound_plan(self, setup):
        hq, session, materializer = setup
        unit = self.translate(session, "select Price from trades")
        materializer.materialize_table(
            "dt", unit, session.session_scope, MaterializationMode.PHYSICAL
        )
        meta = session.session_scope.lookup("dt").meta
        assert meta.has_column("Price")
        assert meta.ordcol == "ordcol"

    def test_scalar_store(self, setup):
        hq, session, materializer = setup
        materializer.store_scalar(
            "x", QAtom(QType.LONG, 5), session.session_scope
        )
        definition = session.session_scope.lookup("x")
        assert definition.kind == VarKind.SCALAR
        assert definition.value == QAtom(QType.LONG, 5)

    def test_function_stored_as_text(self, setup):
        hq, session, materializer = setup
        materializer.store_function("f", "{x+1}", session.session_scope)
        assert session.session_scope.lookup("f").source == "{x+1}"
