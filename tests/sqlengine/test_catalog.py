"""Unit tests for the engine catalog (DDL semantics, temp shadowing,
version bumps, pg_catalog emulation)."""

import pytest

from repro.errors import SqlCatalogError
from repro.sqlengine.catalog import Catalog, Column, Table
from repro.sqlengine.engine import Engine
from repro.sqlengine.types import SqlType


def col(name, sql_type=SqlType.BIGINT):
    return Column(name, sql_type)


class TestCatalogDdl:
    def test_create_and_resolve(self):
        catalog = Catalog()
        catalog.create_table("t", [col("a")])
        assert isinstance(catalog.resolve("t"), Table)

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", [col("a")])
        with pytest.raises(SqlCatalogError):
            catalog.create_table("t", [col("a")])

    def test_if_not_exists_idempotent(self):
        catalog = Catalog()
        first = catalog.create_table("t", [col("a")])
        again = catalog.create_table("t", [col("b")], if_not_exists=True)
        assert again is first

    def test_temp_shadows_permanent(self):
        catalog = Catalog()
        catalog.create_table("t", [col("perm")])
        catalog.create_table("t", [col("temp")], temporary=True)
        assert catalog.resolve("t").columns[0].name == "temp"
        catalog.drop_temp_tables()
        assert catalog.resolve("t").columns[0].name == "perm"

    def test_drop_unknown_raises(self):
        catalog = Catalog()
        with pytest.raises(SqlCatalogError):
            catalog.drop("missing")

    def test_drop_if_exists(self):
        Catalog().drop("missing", if_exists=True)

    def test_version_bumps_on_ddl(self):
        catalog = Catalog()
        v0 = catalog.version
        catalog.create_table("t", [col("a")])
        v1 = catalog.version
        catalog.drop("t")
        v2 = catalog.version
        assert v0 < v1 < v2

    def test_view_name_conflicts_with_table(self):
        catalog = Catalog()
        catalog.create_table("t", [col("a")])
        with pytest.raises(SqlCatalogError):
            catalog.create_view("t", query=None)

    def test_or_replace_view(self):
        catalog = Catalog()
        catalog.create_view("v", query="q1")
        catalog.create_view("v", query="q2", or_replace=True)
        assert catalog.resolve("v").query == "q2"

    def test_column_index(self):
        table = Table("t", [col("a"), col("b")])
        assert table.column_index("b") == 1
        with pytest.raises(SqlCatalogError):
            table.column_index("z")


class TestSystemCatalog:
    def test_pg_tables_lists_both_namespaces(self):
        catalog = Catalog()
        catalog.create_table("perm", [col("a")])
        catalog.create_table("tmp", [col("a")], temporary=True)
        rows = Engine(catalog).execute(
            "SELECT schemaname, tablename FROM pg_tables"
        ).rows
        assert ("public", "perm") in rows
        assert ("pg_temp", "tmp") in rows

    def test_information_schema_columns(self):
        catalog = Catalog()
        catalog.create_table(
            "t", [col("a", SqlType.BIGINT), col("b", SqlType.VARCHAR)]
        )
        rows = Engine(catalog).execute(
            "SELECT * FROM information_schema.columns"
        ).rows
        mine = [r for r in rows if r[1] == "t"]
        assert [(r[2], r[4]) for r in mine] == [
            ("a", "bigint"), ("b", "varchar"),
        ]
        assert [r[3] for r in mine] == [1, 2]  # ordinal positions

    def test_pg_views(self):
        catalog = Catalog()
        catalog.create_view("v", query=None, sql="SELECT 1")
        rows = Engine(catalog).execute("SELECT * FROM pg_views").rows
        assert rows == [("public", "v", "SELECT 1")]

    def test_unknown_system_relation(self):
        with pytest.raises(SqlCatalogError):
            Catalog().resolve("pg_shadow")
