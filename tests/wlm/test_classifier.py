"""Tests for the query classifier: which admission quota a statement
bills, decided syntactically over the Q AST."""

from repro.core.scopes import Scope, VarKind, VariableDef
from repro.qlang.parser import parse
from repro.wlm.classifier import (
    QueryClass,
    classify_program,
    classify_statement,
)


def classify(q_text: str, scope: Scope | None = None) -> QueryClass:
    statements = parse(q_text).statements
    assert len(statements) == 1
    lookup = scope.lookup if scope is not None else None
    return classify_statement(statements[0], lookup)


def scope_with(**functions: str) -> Scope:
    """A scope holding each keyword as a stored function of that source."""
    scope = Scope()
    for name, source in functions.items():
        scope.upsert(VariableDef(name, VarKind.FUNCTION, source=source))
    return scope


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
        """Q's ``update`` is functional: it returns a modified copy and
        writes nothing, so it bills by shape like a ``select``."""
        assert (
            classify("update Price: 0.0 from trades")
            is QueryClass.ANALYTICAL
        )

    def test_delete_template(self):
        """``delete`` too: even a literal-pinned one returns every other
        row, so it is no point lookup."""
        assert (
            classify("delete from trades where Symbol = `GOOG")
            is QueryClass.ANALYTICAL
        )


class TestStoredFunctionCalls:
    """With the session scope's ``lookup``, a call the session would run
    as a stored function bills as the heaviest statement of its body."""

    def test_assigning_body_bills_materializing(self):
        scope = scope_with(f="{[x] t: select from trades where Size > x; t}")
        assert classify("f[15]") is QueryClass.POINT_LOOKUP  # scope-blind
        assert classify("f[15]", scope) is QueryClass.MATERIALIZING

    def test_reading_body_bills_its_read(self):
        scope = scope_with(f="{[x] select from trades where Size > x}")
        assert classify("f[15]", scope) is QueryClass.ANALYTICAL

    def test_function_named_like_a_verb_is_never_admin(self):
        scope = scope_with(tables="{[] 1 + 1}", check="{[x] x}")
        assert classify("tables[]") is QueryClass.ADMIN  # scope-blind
        assert classify("tables[]", scope) is QueryClass.POINT_LOOKUP
        assert classify('check "1+1"', scope) is QueryClass.POINT_LOOKUP

    def test_admin_body_is_not_admin(self):
        scope = scope_with(f="{[] tables[]}")
        assert classify("f[]", scope) is QueryClass.POINT_LOOKUP

    def test_arguments_count(self):
        scope = scope_with(f="{[x] 1 + 1}")
        assert classify("f[select from trades]", scope) is QueryClass.ANALYTICAL

    def test_calls_nest_and_cycles_bill_analytical(self):
        scope = scope_with(
            f="{[x] g[x]}",
            g="{[x] t: select from trades; t}",
            h="{[x] h[x]}",
        )
        assert classify("f[1]", scope) is QueryClass.MATERIALIZING
        assert classify("h[1]", scope) is QueryClass.ANALYTICAL

    def test_function_defined_earlier_in_the_message(self):
        statements = parse(
            "f: {[x] select from trades where Size > x}; f[1]"
        ).statements
        assert classify_program(statements) is QueryClass.ANALYTICAL
        assert (
            classify_program(statements, Scope().lookup)
            is QueryClass.ANALYTICAL
        )

    def test_program_takes_the_lookup(self):
        scope = scope_with(tables="{[] select from trades}")
        statements = parse("tables[]").statements
        assert classify_program(statements) is QueryClass.ADMIN
        assert (
            classify_program(statements, scope.lookup)
            is QueryClass.ANALYTICAL
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
