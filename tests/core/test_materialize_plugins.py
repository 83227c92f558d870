"""Tests for the materializer and the plugin registry."""

import pytest

from repro.config import MaterializationMode
from repro.core.materialize import Materializer
from repro.core.plugins import PluginError, PluginRegistry
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
        assert step.translation.tables == ["trades"]
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


class TestPluginRegistry:
    def test_register_and_resolve_exact(self):
        registry = PluginRegistry()
        registry.register("kdb", "3.0", "endpoint", lambda: "v3")
        assert registry.create("kdb", "3.0", "endpoint") == "v3"

    def test_wildcard_fallback(self):
        registry = PluginRegistry()
        registry.register("postgres", "*", "gateway", lambda: "any")
        assert registry.create("postgres", "9.2", "gateway") == "any"

    def test_exact_beats_wildcard(self):
        registry = PluginRegistry()
        registry.register("kdb", "*", "endpoint", lambda: "any")
        registry.register("kdb", "3.0", "endpoint", lambda: "v3")
        assert registry.create("kdb", "3.0", "endpoint") == "v3"
        assert registry.create("kdb", "2.8", "endpoint") == "any"

    def test_duplicate_rejected(self):
        registry = PluginRegistry()
        registry.register("kdb", "3.0", "endpoint", lambda: 1)
        with pytest.raises(PluginError):
            registry.register("kdb", "3.0", "endpoint", lambda: 2)

    def test_missing_raises(self):
        registry = PluginRegistry()
        with pytest.raises(PluginError):
            registry.resolve("oracle", "12c", "gateway")

    def test_default_registry_has_kdb_and_pg(self):
        import repro.server.hyperq_server  # noqa: F401 — registers plugins
        from repro.core.plugins import default_registry

        systems = {(s, r) for s, __, r in default_registry.systems()}
        assert ("kdb", "endpoint") in systems
        assert ("postgres", "gateway") in systems
