"""The interactive temp-data tier: which reads a lazy variable's
snapshot answers, positional maps with zone pruning, lazy handles, and
the materialization fallback (docs/CACHING.md)."""

from repro.cache.temptier import PositionalMap
from repro.config import HyperQConfig, TempTierConfig
from repro.qipc.encode import encode_value

from tests.cache.conftest import make_platform, tier_counts


def tier_answers(read, assign="dt: select from trades"):
    """True when the tier serves ``read`` of a fresh lazy variable,
    False when the read materializes it; either way the answer must be
    the eager CTAS's, byte for byte."""
    answers = []
    for tier_on in (True, False):
        hq, __ = make_platform(
            HyperQConfig(temp_tier=TempTierConfig(enabled=tier_on))
        )
        s = hq.create_session()
        try:
            s.execute(assign)
            before = tier_counts()
            answers.append(encode_value(s.execute(read)))
            if tier_on:
                served, fallbacks = tier_counts(before)
        finally:
            s.close()
    assert answers[0] == answers[1], read
    assert (served, fallbacks) in ((1, 0), (0, 1)), read
    return served == 1


class TestMatcher:
    """The pipeline's ``ScanShape`` decides what the tier serves: a sort
    by the order column over an optional identity projection, an
    optional AND of column-vs-literal comparisons and the relation, or
    an unfiltered/filtered ``count``.  Anything else materializes."""

    def test_plain_scan(self):
        assert tier_answers("select from dt")

    def test_count_shape(self):
        assert tier_answers("count select from dt")

    def test_single_predicate(self):
        assert tier_answers("select from dt where Price > 40.0")

    def test_and_chain(self):
        assert tier_answers("select from dt where Size >= 20, Symbol=`GOOG")

    def test_left_nested_and_chain(self):
        assert tier_answers(
            "select from dt where Price > 1.0, Price < 200.0, Size <> 30"
        )

    def test_identity_projection(self):
        assert tier_answers("select Price from dt")

    def test_rename_is_not_our_shape(self):
        assert not tier_answers("select p: Price from dt")

    def test_string_literal_escapes(self):
        # a symbol reaches the tier as its value, not its SQL spelling
        assert tier_answers("select from dt where Symbol=`IBM")

    def test_boolean_and_float_literals(self):
        assert tier_answers(
            "select from dt where big=1b, Price <= 100.5",
            assign="dt: select Symbol, Price, big: Size > 15 from trades",
        )

    def test_unsupported_literal_rejected(self):
        assert not tier_answers("select from dt where Time > 09:31:00")

    def test_or_predicate_rejected(self):
        assert not tier_answers(
            "select from dt where (Price > 100.0) or Price < 40.0"
        )

    def test_join_rejected(self):
        assert not tier_answers("aj[`Symbol; dt; quotes]")

    def test_aggregate_rejected(self):
        assert not tier_answers("select sum Size by Symbol from dt")

    def test_arbitrary_sql_rejected(self):
        assert not tier_answers("select max Price from dt")
        assert not tier_answers("select[2] from dt")


class TestPositionalMap:
    def make_map(self):
        # one column, monotone, 3 blocks of 2: [1,2], [3,4], [5,6]
        return PositionalMap([[1, 2, 3, 4, 5, 6]], block_rows=2)

    def test_equality_prunes_to_one_block(self):
        assert self.make_map().candidate_blocks(0, "=", 3) == {1}

    def test_range_prunes_prefix(self):
        assert self.make_map().candidate_blocks(0, ">", 4) == {2}
        assert self.make_map().candidate_blocks(0, ">=", 4) == {1, 2}

    def test_range_prunes_suffix(self):
        assert self.make_map().candidate_blocks(0, "<", 3) == {0}
        assert self.make_map().candidate_blocks(0, "<=", 3) == {0, 1}

    def test_inequality_cannot_prune(self):
        assert self.make_map().candidate_blocks(0, "<>", 3) == {0, 1, 2}

    def test_all_null_block_skipped(self):
        pmap = PositionalMap([[None, None, 1, 2]], block_rows=2)
        assert pmap.candidate_blocks(0, "=", 1) == {1}
        # ...unless nulls match: NULL IS DISTINCT FROM 1 is true
        assert pmap.candidate_blocks(0, "IS DISTINCT FROM", 1) == {0, 1}

    def test_cross_type_comparison_never_prunes(self):
        pmap = PositionalMap([["x", "y"]], block_rows=2)
        assert pmap.candidate_blocks(0, ">", 5) == {0}

    def test_nulls_excluded_from_zones(self):
        pmap = PositionalMap([[None, 9, 1, None]], block_rows=2)
        assert pmap.candidate_blocks(0, ">", 5) == {0}
        assert pmap.zones[0][0].has_null


def lazy_platform(config=None):
    return make_platform(config)


def eager_platform():
    return make_platform(
        HyperQConfig(temp_tier=TempTierConfig(enabled=False))
    )


class TestLazyHandles:
    def test_assignment_defers_backend_write(self):
        hq, gateway = lazy_platform()
        s = hq.create_session()
        try:
            s.execute("dt: select from trades where Price > 40.0")
            relation = s.session_scope.lookup("dt").relation
            assert s.temp_tier.lazy_relations([relation])
            assert relation not in hq.engine.catalog.temp_tables
            assert gateway.count("CREATE TEMPORARY TABLE") == 0
        finally:
            s.close()

    def test_scan_served_without_materializing(self):
        hq, __ = lazy_platform()
        s = hq.create_session()
        try:
            s.execute("dt: select from trades where Price > 40.0")
            result = s.execute("select from dt")
            assert len(result) == 3
            relation = s.session_scope.lookup("dt").relation
            assert s.temp_tier.lazy_relations([relation])
            assert s.temp_tier.served >= 1
        finally:
            s.close()

    def test_count_served_from_row_count(self):
        hq, __ = lazy_platform()
        s = hq.create_session()
        try:
            s.execute("dt: select from trades")
            assert s.execute("count select from dt").value == 4
            assert s.temp_tier.lazy_relations(
                [s.session_scope.lookup("dt").relation]
            )
        finally:
            s.close()

    def test_aggregate_triggers_materialization(self):
        hq, __ = lazy_platform()
        s = hq.create_session()
        try:
            s.execute("dt: select from trades")
            s.execute("select sum Size by Symbol from dt")
            relation = s.session_scope.lookup("dt").relation
            assert not s.temp_tier.lazy_relations([relation])
            assert relation in hq.engine.catalog.temp_tables
            assert s.temp_tier.fallbacks == 1
        finally:
            s.close()

    def test_zone_pruning_skips_blocks(self):
        hq, __ = lazy_platform(
            HyperQConfig(temp_tier=TempTierConfig(block_rows=1))
        )
        s = hq.create_session()
        try:
            s.execute("dt: select from trades")
            result = s.execute("select from dt where Price > 100.0")
            assert len(result) == 1
            assert s.temp_tier.blocks_pruned > 0
        finally:
            s.close()

    def test_untouched_lazy_local_never_reaches_backend(self):
        """A function-local variable served entirely from the tier:
        no CREATE, no DROP — the backend never hears about it.
        (Session-level variables do materialize at close: promotion
        copies them into an ``hq_global_`` relation.)"""
        hq, gateway = lazy_platform()
        s = hq.create_session()
        s.execute(
            "f: {[s] dt: select from trades where Symbol=s; "
            ":count select from dt}"
        )
        assert s.execute("f[`GOOG]").value == 2
        s.close()
        temp_statements = [
            stmt for stmt in gateway.statements if "hq_temp_" in stmt
        ]
        assert temp_statements == []


class TestDifferentialAgainstEager:
    QUERIES = [
        "select from dt",
        "select from dt where Price > 40.0",
        "select from dt where Symbol=`GOOG",
        "select Price from dt",
        "count select from dt",
        "select sum Size by Symbol from dt",  # forces the fallback
        "select from dt",  # passthrough after materialization
    ]

    def test_byte_identical_to_eager_ctas(self):
        lazy_hq, __ = lazy_platform()
        eager_hq, __ = eager_platform()
        lazy_s = lazy_hq.create_session()
        eager_s = eager_hq.create_session()
        try:
            for s in (lazy_s, eager_s):
                s.execute("dt: select from trades where Size > 5")
            for q in self.QUERIES:
                assert encode_value(lazy_s.execute(q)) == encode_value(
                    eager_s.execute(q)
                ), q
        finally:
            lazy_s.close()
            eager_s.close()

    def test_snapshot_isolated_from_later_dml(self):
        """Eager CTAS semantics: DML on the source table after the
        assignment must not leak into the variable — on either the
        snapshot read path or the materialization fallback."""
        lazy_hq, __ = lazy_platform()
        eager_hq, __ = eager_platform()
        lazy_s = lazy_hq.create_session()
        eager_s = eager_hq.create_session()
        insert = (
            "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
            "Price: enlist 500.0; Size: enlist 7)"
        )
        try:
            for s in (lazy_s, eager_s):
                s.execute("dt: select from trades")
                s.execute(insert)
            assert lazy_s.execute("count select from dt").value == 4
            for q in ("select from dt",
                      "select sum Size by Symbol from dt",
                      "select from dt"):
                assert encode_value(lazy_s.execute(q)) == encode_value(
                    eager_s.execute(q)
                ), q
            # the source table did take the write
            assert lazy_s.execute("count select from trades").value == 5
        finally:
            lazy_s.close()
            eager_s.close()

    def test_insert_into_lazy_variable_materializes_first(self):
        lazy_hq, __ = lazy_platform()
        eager_hq, __ = eager_platform()
        lazy_s = lazy_hq.create_session()
        eager_s = eager_hq.create_session()
        insert = (
            "`dt insert ([] Symbol: enlist `Q; Time: enlist 11:00:00; "
            "Price: enlist 9.0; Size: enlist 1)"
        )
        try:
            for s in (lazy_s, eager_s):
                s.execute("dt: select from trades")
                s.execute(insert)
            assert lazy_s.execute("count select from dt").value == 5
            assert encode_value(lazy_s.execute("select from dt")) == \
                encode_value(eager_s.execute("select from dt"))
        finally:
            lazy_s.close()
            eager_s.close()

    def test_promotion_materializes_lazy_variable(self):
        hq, __ = lazy_platform()
        s1 = hq.create_session()
        s1.execute("promo: select from trades where Price > 50")
        s1.close()
        rows = hq.engine.execute(
            'SELECT count(*) FROM "hq_global_promo"'
        ).scalar()
        assert rows == 2
        s2 = hq.create_session()
        try:
            assert s2.execute("count select from promo").value == 2
        finally:
            s2.close()

    def test_chained_lazy_variables(self):
        """A second assignment whose defining SELECT reads an earlier
        lazy handle: the tier serves the inner scan when it can."""
        lazy_hq, __ = lazy_platform()
        eager_hq, __ = eager_platform()
        lazy_s = lazy_hq.create_session()
        eager_s = eager_hq.create_session()
        try:
            for s in (lazy_s, eager_s):
                s.execute("dt: select from trades where Size > 5")
                s.execute("dt2: select from dt where Price > 40.0")
            assert encode_value(lazy_s.execute("select from dt2")) == \
                encode_value(eager_s.execute("select from dt2"))
            assert lazy_s.execute("count select from dt2").value == 3
        finally:
            lazy_s.close()
            eager_s.close()


class TestDisabledTier:
    def test_disabled_tier_registers_nothing(self):
        hq, __ = eager_platform()
        s = hq.create_session()
        try:
            s.execute("dt: select from trades")
            relation = s.session_scope.lookup("dt").relation
            assert len(s.temp_tier) == 0
            assert relation in hq.engine.catalog.temp_tables
        finally:
            s.close()
