"""Q variables under the default PHYSICAL mode: an assignment is a
backend temp table holding its defining SELECT's result at assignment
time (docs/CACHING.md).  Each read must give the reference
interpreter's value."""

from repro.qlang.interp import Interpreter
from repro.testing.comparators import compare_values

from tests.cache.conftest import MARKET_SOURCE, make_platform


class TestVariableSnapshots:
    def run_both(self, texts):
        """Run ``texts`` in a fresh session and in the interpreter;
        return the session, its gateway and the interpreter."""
        hq, gateway = make_platform()
        interp = Interpreter()
        interp.eval_text(MARKET_SOURCE)
        s = hq.create_session()
        for text in texts:
            s.execute(text)
            interp.eval_text(text)
        return hq, s, gateway, interp

    def agree(self, s, interp, read):
        comparison = compare_values(interp.eval_text(read), s.execute(read))
        assert comparison, f"{read}: {comparison.reason}"

    def test_snapshot_isolated_from_later_dml(self):
        """DML on the source table after the assignment must not leak
        into the variable."""
        insert = (
            "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
            "Price: enlist 500.0; Size: enlist 7)"
        )
        hq, s, gateway, interp = self.run_both(
            ["dt: select from trades", insert]
        )
        try:
            assert gateway.count("CREATE TEMPORARY TABLE") == 1
            assert s.execute("count select from dt").value == 4
            for q in ("select from dt",
                      "select sum Size by Symbol from dt",
                      "select max Price from dt"):
                self.agree(s, interp, q)
            # the source table did take the write
            assert s.execute("count select from trades").value == 5
        finally:
            s.close()

    def test_insert_into_variable(self):
        insert = (
            "`dt insert ([] Symbol: enlist `Q; Time: enlist 11:00:00; "
            "Price: enlist 9.0; Size: enlist 1)"
        )
        hq, s, __, interp = self.run_both(["dt: select from trades", insert])
        try:
            assert s.execute("count select from dt").value == 5
            self.agree(s, interp, "select from dt")
            assert s.execute("count select from trades").value == 4
        finally:
            s.close()

    def test_promotion_at_session_close(self):
        hq, __ = make_platform()
        s1 = hq.create_session()
        s1.execute("promo: select from trades where Price > 50")
        relation = s1.session_scope.lookup("promo").relation
        s1.close()
        rows = hq.engine.execute(
            'SELECT count(*) FROM "hq_global_promo"'
        ).scalar()
        assert rows == 2
        assert relation not in hq.engine.catalog.temp_tables
        s2 = hq.create_session()
        try:
            assert s2.execute("count select from promo").value == 2
        finally:
            s2.close()

    def test_chained_variables(self):
        """A second assignment whose defining SELECT reads the first
        variable's temp table."""
        hq, s, __, interp = self.run_both([
            "dt: select from trades where Size > 5",
            "dt2: select from dt where Price > 40.0",
        ])
        try:
            self.agree(s, interp, "select from dt2")
            assert s.execute("count select from dt2").value == 3
        finally:
            s.close()
