"""Tests for the query classifier: which admission quota a statement
bills, decided syntactically over the Q AST."""

from repro.qlang.parser import parse
from repro.wlm.classifier import (
    QueryClass,
    classify_program,
    classify_statement,
)


def classify(q_text: str) -> QueryClass:
    statements = parse(q_text).statements
    assert len(statements) == 1
    return classify_statement(statements[0])


class TestAdminClass:
    def test_admin_verbs(self):
        assert classify("tables[]") is QueryClass.ADMIN
        assert classify("metrics[]") is QueryClass.ADMIN
        assert classify("wlm[]") is QueryClass.ADMIN
        assert classify("cols trades") is QueryClass.ADMIN
        assert classify("meta trades") is QueryClass.ADMIN
        assert classify("shards[]") is QueryClass.ADMIN
        assert classify("rcache[]") is QueryClass.ADMIN
        assert classify("check[]") is QueryClass.ADMIN
        assert classify('check "1+1"') is QueryClass.ADMIN

    def test_function_definition_is_scope_bookkeeping(self):
        assert classify("f: {x + 1}") is QueryClass.ADMIN


class TestPointLookup:
    def test_literal_pinned_select(self):
        assert (
            classify("select from trades where Symbol = `GOOG")
            is QueryClass.POINT_LOOKUP
        )

    def test_literal_pinned_exec(self):
        assert (
            classify("exec Price from trades where Symbol = `IBM")
            is QueryClass.POINT_LOOKUP
        )

    def test_scalar_expression(self):
        assert classify("1 + 1") is QueryClass.POINT_LOOKUP

    def test_grouped_query_is_not_a_lookup(self):
        assert (
            classify("select sum Size by Symbol from trades "
                     "where Symbol = `GOOG")
            is QueryClass.ANALYTICAL
        )


class TestAnalytical:
    def test_unfiltered_select(self):
        assert classify("select from trades") is QueryClass.ANALYTICAL

    def test_aggregating_prefix_unwrapped(self):
        assert classify("count select from trades") is QueryClass.ANALYTICAL

    def test_non_literal_filter(self):
        assert (
            classify("select from trades where Price > 50.0")
            is QueryClass.ANALYTICAL
        )


class TestMaterializing:
    def test_data_assignment(self):
        assert classify("t: select from trades") is QueryClass.MATERIALIZING

    def test_update_template(self):
        assert (
            classify("update Price: 0.0 from trades")
            is QueryClass.MATERIALIZING
        )

    def test_delete_template(self):
        assert (
            classify("delete from trades where Symbol = `GOOG")
            is QueryClass.MATERIALIZING
        )


class TestProgramClassification:
    def test_heaviest_statement_wins(self):
        statements = parse(
            "tables[]; t: select from trades; 1 + 1"
        ).statements
        assert classify_program(statements) is QueryClass.MATERIALIZING

    def test_empty_program_is_admin(self):
        assert classify_program([]) is QueryClass.ADMIN

    def test_weights_are_ordered(self):
        weights = [
            QueryClass.ADMIN.weight,
            QueryClass.POINT_LOOKUP.weight,
            QueryClass.ANALYTICAL.weight,
            QueryClass.MATERIALIZING.weight,
        ]
        assert weights == sorted(weights)
