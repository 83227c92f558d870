"""Dedicated tests for window-function semantics."""

import random

import pytest

from repro.sqlengine.engine import Engine
from repro.sqlengine.functions import compute_aggregate
from repro.sqlengine.window import _running_aggregate


@pytest.fixture()
def engine():
    e = Engine()
    e.execute("CREATE TABLE t (g varchar, v bigint, ordcol bigint)")
    e.execute(
        "INSERT INTO t VALUES "
        "('a', 10, 0), ('a', 20, 1), ('a', 20, 2), ('a', 30, 3), "
        "('b', 5, 4), ('b', NULL, 5)"
    )
    return e


def col(engine, sql):
    return [r[0] for r in engine.execute(sql).rows]


class TestRanking:
    def test_rank_vs_dense_rank_on_ties(self, engine):
        ranks = col(
            engine,
            "SELECT rank() OVER (ORDER BY v) FROM t WHERE g='a' ORDER BY ordcol",
        )
        dense = col(
            engine,
            "SELECT dense_rank() OVER (ORDER BY v) FROM t WHERE g='a' "
            "ORDER BY ordcol",
        )
        assert ranks == [1, 2, 2, 4]
        assert dense == [1, 2, 2, 3]

    def test_ntile(self, engine):
        buckets = col(
            engine,
            "SELECT ntile(2) OVER (ORDER BY ordcol) FROM t ORDER BY ordcol",
        )
        assert buckets == [1, 1, 1, 2, 2, 2]

    def test_row_number_without_order_is_input_order(self, engine):
        rows = col(engine, "SELECT row_number() OVER () FROM t")
        assert rows == [1, 2, 3, 4, 5, 6]


class TestValueFunctions:
    def test_first_value(self, engine):
        values = col(
            engine,
            "SELECT first_value(v) OVER (PARTITION BY g ORDER BY ordcol) "
            "FROM t ORDER BY ordcol",
        )
        assert values == [10, 10, 10, 10, 5, 5]

    def test_last_value_default_frame_is_current_peer_group(self, engine):
        values = col(
            engine,
            "SELECT last_value(v) OVER (PARTITION BY g ORDER BY v) "
            "FROM t WHERE g='a' ORDER BY ordcol",
        )
        # peers (the two 20s) share a frame end
        assert values == [10, 20, 20, 30]

    def test_last_value_unbounded_following(self, engine):
        values = col(
            engine,
            "SELECT last_value(v) OVER (PARTITION BY g ORDER BY v ROWS "
            "BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) "
            "FROM t WHERE g='a' ORDER BY ordcol",
        )
        assert values == [30, 30, 30, 30]

    def test_nth_value(self, engine):
        values = col(
            engine,
            "SELECT nth_value(v, 2) OVER (ORDER BY ordcol ROWS BETWEEN "
            "UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) FROM t "
            "WHERE g='a' ORDER BY ordcol",
        )
        assert values == [20, 20, 20, 20]

    def test_lead_lag_defaults(self, engine):
        leads = col(
            engine,
            "SELECT lead(v) OVER (PARTITION BY g ORDER BY ordcol) FROM t "
            "ORDER BY ordcol",
        )
        assert leads == [20, 20, 30, None, None, None]


class TestWindowAggregates:
    def test_running_sum_includes_peers(self, engine):
        sums = col(
            engine,
            "SELECT sum(v) OVER (ORDER BY v) FROM t WHERE g='a' "
            "ORDER BY ordcol",
        )
        # ORDER BY v: peers 20,20 share the running total 50
        assert sums == [10, 50, 50, 80]

    def test_rows_frame_excludes_peers(self, engine):
        sums = col(
            engine,
            "SELECT sum(v) OVER (ORDER BY ordcol ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND CURRENT ROW) FROM t WHERE g='a' ORDER BY ordcol",
        )
        assert sums == [10, 30, 50, 80]

    def test_count_star_over_window(self, engine):
        counts = col(
            engine,
            "SELECT count(*) OVER (PARTITION BY g) FROM t ORDER BY ordcol",
        )
        assert counts == [4, 4, 4, 4, 2, 2]

    def test_window_aggregate_skips_nulls(self, engine):
        sums = col(
            engine,
            "SELECT sum(v) OVER (PARTITION BY g) FROM t WHERE g='b' "
            "ORDER BY ordcol",
        )
        assert sums == [5, 5]

    def test_bounded_lookback(self, engine):
        avgs = col(
            engine,
            "SELECT avg(v) OVER (ORDER BY ordcol ROWS BETWEEN 1 PRECEDING "
            "AND CURRENT ROW) FROM t WHERE g='a' ORDER BY ordcol",
        )
        assert avgs == [10.0, 15.0, 20.0, 25.0]

    def test_nulls_order_within_window(self, engine):
        values = col(
            engine,
            "SELECT v FROM (SELECT v, row_number() OVER (ORDER BY v) rn "
            "FROM t WHERE g='b') s ORDER BY rn",
        )
        # default asc: null sorts last
        assert values == [5, None]


class TestRunningAggregates:
    """A running aggregate folds each value in once; every prefix must
    equal recomputing the aggregate over it (``compute_aggregate``, the
    reference), bit for bit: float sums as ``math.fsum`` rounds them."""

    @staticmethod
    def _value(rng):
        draw = rng.random()
        if draw < 0.1:
            return None
        if draw < 0.2:
            return rng.choice([0.0, -0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 5e-324])
        if draw < 0.4:
            return rng.randint(-10**6, 10**6)
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20)

    @pytest.mark.parametrize("name", ["sum", "avg", "count", "min", "max",
                                      "first", "last", "stddev_pop"])
    def test_every_prefix_matches_recomputing_it(self, name):
        rng = random.Random(f"running:{name}")
        keep_nulls = name in ("first", "last")
        for __ in range(300):
            values = [self._value(rng) for __ in range(rng.randint(0, 25))]
            if rng.random() < 0.25:  # an int-only or a negative-zero column
                values = [v if v is None else (int(v) if rng.random() < 0.5
                                               else -0.0) for v in values]
            ends = sorted(rng.randint(0, len(values)) for __ in values)
            expected = [
                compute_aggregate(name, [v for v in values[:end]
                                         if v is not None or keep_nulls])
                for end in ends
            ]
            got = _running_aggregate(name, values, ends, keep_nulls)
            assert [repr(v) for v in got] == [repr(v) for v in expected]
            assert [type(v) for v in got] == [type(v) for v in expected]

    def test_inf_and_nan_sums_take_the_naive_path(self):
        values = [1.0, float("inf"), -float("inf"), 2.0]
        got = _running_aggregate("sum", values, [1, 2, 3, 4], False)
        assert got[:2] == [1.0, float("inf")]
        assert all(v != v for v in got[2:])  # inf - inf is nan, as sum() says
