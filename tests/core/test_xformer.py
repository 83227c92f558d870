"""Unit tests for the Xformer rules (paper Section 3.3)."""

import pytest

from repro.config import XformerConfig
from repro.core.algebrizer.binder import Binder
from repro.core.xformer.framework import Xformer
from repro.core.xformer.rules import default_rules
from repro.core.xtra import scalars as sc
from repro.core.xtra.ops import (
    XtraFilter,
    XtraGet,
    XtraGroupAgg,
    XtraProject,
    XtraSort,
    XtraWindow,
    walk,
)
from repro.qlang.parser import parse_expression


@pytest.fixture()
def binder(hyperq):
    session = hyperq.create_session()
    return Binder(session.mdi, session.session_scope, hyperq.config)


def bound_op(binder, text):
    return binder.bind(parse_expression(text)).op


def transformed(binder, text, config=None):
    op = bound_op(binder, text)
    xformer = Xformer(config or XformerConfig())
    return xformer.transform(op)


def scalars_in(op):
    out = []

    def collect(scalar):
        out.append(scalar)
        for child in scalar.children():
            collect(child)

    for node in walk(op):
        if isinstance(node, XtraFilter):
            collect(node.predicate)
        if hasattr(node, "projections"):
            for __, s in node.projections:
                collect(s)
        if hasattr(node, "condition") and node.condition is not None:
            collect(node.condition)
    return out


class TestTwoValuedLogic:
    def test_nullable_equality_upgraded(self, binder):
        op, ctx = transformed(binder, "select from trades where Symbol=`GOOG")
        cmps = [s for s in scalars_in(op) if isinstance(s, sc.SCmp)]
        assert any(c.null_safe for c in cmps)
        assert ctx.applications.get("two_valued_logic", 0) >= 1

    def test_join_condition_upgraded(self, binder):
        op, __ = transformed(binder, "aj[`Symbol`Time; trades; quotes]")
        cmps = [
            s for s in scalars_in(op)
            if isinstance(s, sc.SCmp) and s.op == "="
        ]
        assert cmps and all(c.null_safe for c in cmps)

    def test_range_comparisons_not_touched(self, binder):
        op, __ = transformed(binder, "select from trades where Price>40")
        cmps = [s for s in scalars_in(op) if isinstance(s, sc.SCmp)]
        assert all(not c.null_safe for c in cmps if c.op == ">")

    def test_rule_can_be_disabled(self, binder):
        config = XformerConfig(two_valued_logic=False)
        op, ctx = transformed(
            binder, "select from trades where Symbol=`GOOG", config
        )
        cmps = [s for s in scalars_in(op) if isinstance(s, sc.SCmp)]
        assert all(not c.null_safe for c in cmps)


class TestColumnPruning:
    def test_unused_columns_pruned_from_get(self, binder):
        op, ctx = transformed(binder, "select Price from trades")
        get = [n for n in walk(op) if isinstance(n, XtraGet)][0]
        names = {c.name for c in get.output}
        assert "Size" not in names
        assert "Price" in names
        assert ctx.applications.get("column_pruning", 0) >= 1

    def test_filter_columns_kept(self, binder):
        op, __ = transformed(
            binder, "select Price from trades where Symbol=`GOOG"
        )
        get = [n for n in walk(op) if isinstance(n, XtraGet)][0]
        assert "Symbol" in {c.name for c in get.output}

    def test_pruning_disabled_keeps_all(self, binder):
        config = XformerConfig(column_pruning=False)
        op, __ = transformed(binder, "select Price from trades", config)
        get = [n for n in walk(op) if isinstance(n, XtraGet)][0]
        assert "Size" in {c.name for c in get.output}

    def test_select_star_keeps_everything(self, binder):
        op, __ = transformed(binder, "select from trades")
        get = [n for n in walk(op) if isinstance(n, XtraGet)][0]
        assert {c.name for c in get.output} >= {
            "Symbol", "Time", "Price", "Size", "ordcol",
        }


class TestOrderRules:
    def test_final_plan_is_sorted(self, binder):
        op, __ = transformed(binder, "select Price from trades")
        assert isinstance(op, XtraSort)

    def test_scalar_agg_not_wrapped_in_extra_sort(self, binder):
        # the Project adds a constant ordcol; sorting by it is trivial
        op, __ = transformed(binder, "select max Price from trades")
        assert isinstance(op, XtraSort)

    def test_order_elision_under_scalar_agg(self, binder):
        # aggregation over a sorted table: the inner sort is dropped
        op, ctx = transformed(binder, "avg exec Price from `Price xasc trades")
        aggs = [n for n in walk(op) if isinstance(n, XtraGroupAgg)]
        assert aggs
        assert not any(
            isinstance(child, XtraSort)
            for agg in aggs
            for child in agg.children()
        )
        assert ctx.applications.get("order_elision", 0) >= 1

    def test_order_sensitive_agg_keeps_sort(self, binder):
        op, __ = transformed(binder, "last exec Price from `Price xasc trades")
        aggs = [n for n in walk(op) if isinstance(n, XtraGroupAgg)]
        assert aggs
        assert any(
            isinstance(node, XtraSort)
            for agg in aggs
            for node in walk(agg.child)
        )


class TestFilterMerge:
    def test_adjacent_filters_merged(self, binder):
        op, ctx = transformed(
            binder, "select from trades where Price>40, Size>15, Symbol=`GOOG"
        )
        filters = [n for n in walk(op) if isinstance(n, XtraFilter)]
        assert len(filters) == 1
        assert ctx.applications.get("filter_merge", 0) >= 2

    def test_merged_predicate_is_conjunction(self, binder):
        op, __ = transformed(
            binder, "select from trades where Price>40, Size>15"
        )
        predicate = [n for n in walk(op) if isinstance(n, XtraFilter)][0].predicate
        assert isinstance(predicate, sc.SBool)
        assert predicate.op == "AND"

    def test_disabled_keeps_chain(self, binder):
        config = XformerConfig(filter_merge=False)
        op, __ = transformed(
            binder, "select from trades where Price>40, Size>15", config
        )
        filters = [n for n in walk(op) if isinstance(n, XtraFilter)]
        assert len(filters) == 2

    def test_merge_shrinks_sql(self, binder, hyperq):
        from repro.config import HyperQConfig

        merged = hyperq.translate(
            "select Price from trades where Price>40, Size>15, Size<100"
        ).sql_statements[0]
        session = hyperq.create_session()
        session.config = HyperQConfig(
            xformer=XformerConfig(filter_merge=False)
        )
        session.xformer = type(session.xformer)(session.config.xformer)
        unmerged = session.translate(
            "select Price from trades where Price>40, Size>15, Size<100"
        ).sql_statements[0]
        session.close()
        assert len(merged) < len(unmerged)


class TestConstantFolding:
    def test_literal_arith_folded(self, binder):
        op, ctx = transformed(binder, "select p: Price * 2 + 3 from trades")
        # 2+3 is not foldable here (right-to-left gives Price*(2+3))
        consts = [
            s for s in scalars_in(op)
            if isinstance(s, sc.SConst) and s.value == 5
        ]
        assert consts
        assert ctx.applications.get("constant_folding", 0) >= 1


def _quotes_filters(op):
    """Filters with the quotes scan somewhere below them."""
    return [
        node for node in walk(op)
        if isinstance(node, XtraFilter) and any(
            isinstance(n, XtraGet) and n.table == "quotes" for n in walk(node)
        )
    ]


class TestKeyFilterTransfer:
    AJ = "aj[`Symbol`Time; select from trades where Symbol=`GOOG; {}]"

    def test_symbol_filter_moves_under_the_lead_window(self, binder):
        op, ctx = transformed(binder, self.AJ.format("quotes"))
        assert ctx.applications["key_filter_transfer"] == 1
        (pushed,) = _quotes_filters(op)
        assert isinstance(pushed.child, XtraGet)
        assert isinstance(pushed.predicate, sc.SCmp) and pushed.predicate.null_safe
        assert pushed.predicate.right == sc.SConst("GOOG", pushed.predicate.right.type_)
        (window,) = [n for n in walk(op) if isinstance(n, XtraWindow)]
        assert any(n is pushed for n in walk(window))

    def test_a_window_not_partitioned_by_the_key_stays_below(self, binder):
        op, ctx = transformed(
            binder, self.AJ.format("update cb: sums Bid from quotes")
        )
        assert ctx.applications["key_filter_transfer"] == 1
        (held,) = _quotes_filters(op)
        assert isinstance(held.child, XtraProject)
        assert any(isinstance(s, sc.SWindow) for __, s in held.child.projections)

    def test_non_key_and_or_filters_stay_on_the_left(self, binder):
        for where in ("Price>60.0", "(Symbol=`GOOG) or Size>15"):
            text = f"aj[`Symbol`Time; select from trades where {where}; quotes]"
            op, ctx = transformed(binder, text)
            assert "key_filter_transfer" not in ctx.applications
            assert not _quotes_filters(op)

    def test_lj_filters_the_keyed_table(self, binder):
        text = "(select from trades where Symbol=`IBM) lj ratings"
        op, ctx = transformed(binder, text)
        assert ctx.applications["key_filter_transfer"] == 1
        ratings = [
            n for n in walk(op)
            if isinstance(n, XtraFilter) and isinstance(n.child, XtraGet)
            and n.child.table == "ratings"
        ]
        assert len(ratings) == 1


class TestFramework:
    def test_default_rule_order(self):
        names = [rule.name for rule in default_rules()]
        assert names.index("two_valued_logic") < names.index("column_pruning")
        assert names[-1] == "order_injection"

    def test_each_rule_declares_purpose(self):
        purposes = {rule.purpose for rule in default_rules()}
        assert purposes >= {"correctness", "performance", "transparency"}
