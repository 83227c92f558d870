"""Tests for the pass pipeline, TranslationUnit IR, and translation cache."""

import pytest

from repro.config import (
    HyperQConfig,
    TranslationCacheConfig,
    XformerConfig,
)
from repro.core.pipeline import (
    Pass,
    TranslationCache,
    TranslationPipeline,
    normalize_q_source,
    scope_fingerprint,
)
from repro.core.xformer.framework import Xformer
from repro.errors import InvariantError, TranslationError
from repro.qlang.parser import parse_expression


@pytest.fixture()
def pipeline(hyperq):
    session = hyperq.create_session()
    return session, session.pipeline


class TestPassManager:
    def test_default_pass_order(self, pipeline):
        # the test env enables analysis (REPRO_ANALYSIS), so the qcheck
        # pass leads the paper's bind -> xform -> serialize order; the
        # distribute pass trails (it annotates the serialized SQL)
        __, pl = pipeline
        assert pl.pass_names == [
            "analyze", "bind", "xform", "serialize", "distribute",
        ]

    def test_translate_fills_the_unit(self, pipeline):
        session, pl = pipeline
        unit = pl.translate(
            parse_expression("select from trades where Price > 50"),
            session.session_scope,
        )
        assert unit.sql is not None and "SELECT" in unit.sql
        assert unit.shape == "table"
        assert unit.bound is not None
        assert [s.name for s in unit.stages] == [
            "analyze", "bind", "xform", "serialize", "distribute",
        ]
        assert all(s.seconds >= 0.0 for s in unit.stages)

    def test_unit_records_rule_applications(self, pipeline):
        session, pl = pipeline
        unit = pl.translate(
            parse_expression("select Price from trades where Symbol=`GOOG"),
            session.session_scope,
        )
        assert unit.rule_applications.get("two_valued_logic", 0) >= 1

    def test_custom_pass_registration_and_order(self, pipeline):
        session, pl = pipeline

        class NotePass(Pass):
            name = "note"
            stage = "optimize"

            def run(self, unit, pipeline):
                unit.diagnostics.append("saw the unit")

        pl.register_pass(NotePass(), after="bind")
        assert pl.pass_names == [
            "analyze", "bind", "note", "xform", "serialize", "distribute",
        ]
        unit = pl.translate(
            parse_expression("select from trades"), session.session_scope
        )
        assert unit.diagnostics == ["saw the unit"]
        assert [s.name for s in unit.stages][2] == "note"

    def test_duplicate_pass_name_rejected(self, pipeline):
        __, pl = pipeline

        class Dup(Pass):
            name = "bind"

        with pytest.raises(TranslationError):
            pl.register_pass(Dup())

    def test_unknown_anchor_rejected(self, pipeline):
        __, pl = pipeline

        class P(Pass):
            name = "p"

        with pytest.raises(TranslationError):
            pl.register_pass(P(), before="no-such-pass")

    def test_to_result_requires_serialize(self, pipeline):
        session, pl = pipeline
        bare = TranslationPipeline(pl.mdi, pl.config, passes=[])
        unit = bare.translate(
            parse_expression("select from trades"), session.session_scope
        )
        with pytest.raises(TranslationError):
            unit.to_result()


class TestNormalizeQSource:
    def test_whitespace_collapses(self):
        assert normalize_q_source("select   from\n  trades") == (
            "select from trades"
        )

    def test_leading_trailing_stripped(self):
        assert normalize_q_source("  1+2  ") == "1+2"

    def test_string_literals_preserved(self):
        a = normalize_q_source('select from t where s="a  b"')
        b = normalize_q_source('select from t where s="a b"')
        assert a != b
        assert '"a  b"' in a

    def test_escaped_quote_inside_string(self):
        text = 'x: "he said \\"hi\\"  there"'
        assert '\\"hi\\"  there' in normalize_q_source(text)

    def test_equivalent_sources_normalize_equal(self):
        assert normalize_q_source("select  from trades ") == (
            normalize_q_source("select from\ttrades")
        )


class TestScopeFingerprint:
    def test_changes_when_variable_defined(self, hyperq):
        session = hyperq.create_session()
        before = scope_fingerprint(session.session_scope)
        session.execute("fp_x: 41")
        after = scope_fingerprint(session.session_scope)
        assert before != after
        session.close()

    def test_scalar_value_participates(self, hyperq):
        session = hyperq.create_session()
        session.execute("fp_y: 1")
        one = scope_fingerprint(session.session_scope)
        session.execute("fp_y: 2")
        two = scope_fingerprint(session.session_scope)
        assert one != two
        session.close()


class TestTranslationCache:
    def test_repeat_statement_hits(self, hyperq):
        session = hyperq.create_session()
        q = "select Price from trades where Symbol=`GOOG"
        cold = session.run(q)
        warm = session.run(q)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 1
        assert warm.sql_statements == cold.sql_statements
        assert warm.value == cold.value
        # cache hits skip the pipeline: no bind/serialize time accrues
        assert warm.timings.algebrize == 0.0
        assert warm.timings.serialize == 0.0
        # rule applications are replayed from the cached entry
        assert warm.rule_applications == cold.rule_applications
        session.close()

    def test_shared_across_sessions(self, hyperq):
        q = "select from trades where Price > 50"
        s1 = hyperq.create_session()
        s1.run(q)
        s1.close()
        s2 = hyperq.create_session()
        warm = s2.run(q)
        assert warm.cache_hits == 1
        s2.close()

    def test_whitespace_variants_share_an_entry(self, hyperq):
        session = hyperq.create_session()
        session.run("select from trades")
        warm = session.run("select   from \n trades")
        assert warm.cache_hits == 1
        session.close()

    def test_invalidated_on_catalog_version_change(self, hyperq):
        session = hyperq.create_session()
        q = "select from trades"
        session.run(q)
        assert session.run(q).cache_hits == 1
        # DDL bumps the engine catalog version -> the key changes
        hyperq.engine.execute("CREATE TABLE cache_bump (x BIGINT)")
        missed = session.run(q)
        assert missed.cache_hits == 0
        # and the re-translation re-primes the cache at the new version
        assert session.run(q).cache_hits == 1
        session.close()

    def test_invalidated_on_scope_change(self, hyperq):
        session = hyperq.create_session()
        q = "select from trades where Price > threshold"
        session.execute("threshold: 50")
        first = session.run(q)
        session.execute("threshold: 100")
        second = session.run(q)
        assert second.cache_hits == 0
        assert first.sql_statements != second.sql_statements
        session.close()

    def test_xformer_config_participates_in_key(self, hyperq):
        session = hyperq.create_session()
        q = "select Price from trades where Symbol=`GOOG"
        session.run(q)
        session.xformer = Xformer(XformerConfig(two_valued_logic=False))
        missed = session.run(q)
        assert missed.cache_hits == 0
        assert "IS NOT DISTINCT FROM" not in missed.sql_statements[0]
        session.close()

    def test_side_effecting_statements_not_cached(self, hyperq):
        session = hyperq.create_session()
        session.execute("sv: 1")
        assert len(session.translation_cache) == 0
        session.run("sv: 2")
        assert len(session.translation_cache) == 0
        session.close()

    def test_admin_commands_not_cached(self, hyperq):
        session = hyperq.create_session()
        session.execute("tables[]")
        assert len(session.translation_cache) == 0
        session.close()

    def test_disabled_cache_never_hits(self, hyperq):
        config = HyperQConfig(
            translation_cache=TranslationCacheConfig(enabled=False)
        )
        session = hyperq.create_session()
        session.translation_cache = TranslationCache(config.translation_cache)
        q = "select from trades"
        session.run(q)
        assert session.run(q).cache_hits == 0
        session.close()

    def test_lru_eviction_bounds_entries(self, hyperq):
        session = hyperq.create_session()
        session.translation_cache = TranslationCache(
            TranslationCacheConfig(max_entries=2)
        )
        session.run("select from trades")
        session.run("select Price from trades")
        session.run("select Size from trades")
        assert len(session.translation_cache) == 2
        # the oldest entry was evicted: translating it again misses
        assert session.run("select from trades").cache_hits == 0
        session.close()

    def test_hit_miss_counters_exported(self, hyperq):
        from repro.core.pipeline import (
            TRANSLATION_CACHE_HITS,
            TRANSLATION_CACHE_MISSES,
        )

        hits_before = TRANSLATION_CACHE_HITS.value()
        misses_before = TRANSLATION_CACHE_MISSES.value()
        session = hyperq.create_session()
        q = "select Size from trades where Price > 99"
        session.run(q)
        session.run(q)
        session.close()
        assert TRANSLATION_CACHE_HITS.value() == hits_before + 1
        assert TRANSLATION_CACHE_MISSES.value() >= misses_before + 1

    def test_translate_mode_also_served_from_cache(self, hyperq):
        session = hyperq.create_session()
        q = "select from trades where Size > 15"
        executed = session.run(q)
        translated = session.translate(q)
        assert translated.cache_hits == 1
        assert translated.value is None
        assert translated.sql_statements == executed.sql_statements
        session.close()


class TestInvariantChecking:
    """The pipeline verifies XTRA invariants after every pass and blames
    the pass that produced the broken tree (not a later stage)."""

    def _corrupt_pass(self):
        from repro.core.xtra import scalars as sc
        from repro.core.xtra.ops import XtraFilter

        class CorruptPass(Pass):
            """Deliberately wraps the tree in a filter on a column that
            no input produces — a stand-in for a buggy rewrite rule."""

            name = "corrupt"
            stage = "optimize"

            def run(self, unit, pipeline):
                unit.bound.op = XtraFilter(
                    unit.bound.op,
                    sc.SCmp(
                        "=",
                        sc.SColRef("no_such_column"),
                        sc.SConst(1, None),
                    ),
                )

        return CorruptPass()

    def test_mutated_pass_is_caught_and_named(self, pipeline):
        session, pl = pipeline
        pl.register_pass(self._corrupt_pass(), after="xform")
        with pytest.raises(InvariantError) as excinfo:
            pl.translate(
                parse_expression("select from trades"),
                session.session_scope,
            )
        # attribution: the corrupting pass, not serialize
        assert excinfo.value.pass_name == "corrupt"
        assert "corrupt" in str(excinfo.value)
        assert "serialize" not in str(excinfo.value)
        codes = {v.code for v in excinfo.value.violations}
        assert "XI003" in codes  # unresolvable column reference

    def test_violating_pass_recorded_on_trace_span(self, hyperq):
        from repro.obs import tracing

        session = hyperq.create_session()
        session.pipeline.register_pass(self._corrupt_pass(), after="xform")
        with tracing.span("test.root") as root:
            with pytest.raises(InvariantError):
                session.pipeline.translate(
                    parse_expression("select from trades"),
                    session.session_scope,
                )
        spans = [s for s in root.children if s.name == "pass.corrupt"]
        assert spans and spans[0].attrs.get("violating_pass") == "corrupt"
        assert spans[0].attrs.get("invariant_violations", 0) >= 1
        session.close()

    @pytest.mark.parametrize(
        "message",
        [
            "x: select from trades",
            "f:{[t] count t}; f[select from trades]",
            "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
            "Price: enlist 1.0; Size: enlist 9)",
        ],
        ids=["assignment", "function-argument", "insert-source"],
    )
    def test_every_compiled_expression_is_checked(self, hyperq, message):
        """Assignment values, function arguments and insert sources go
        through the same passes, and the same checks, as a read: the
        broken tree is caught before anything is materialized (a bound
        argument would otherwise reach the function body first)."""
        from repro.core.materialize import MATERIALIZATIONS

        session = hyperq.create_session()
        session.pipeline.register_pass(self._corrupt_pass(), after="xform")
        before = MATERIALIZATIONS.value(kind="temp_table")
        with pytest.raises(InvariantError) as excinfo:
            session.execute(message)
        assert excinfo.value.pass_name == "corrupt"
        assert MATERIALIZATIONS.value(kind="temp_table") == before
        session.close()

    def test_clean_translations_pass_the_checker(self, pipeline):
        session, pl = pipeline
        unit = pl.translate(
            parse_expression("select Price from trades where Symbol=`GOOG"),
            session.session_scope,
        )
        assert unit.sql is not None

    def test_checks_disabled_ship_broken_sql_to_the_backend(self, hyperq):
        """Without the checker the corrupt tree serializes fine — the
        bogus column reference only explodes at the backend.  This is
        the late-failure mode the invariant checker exists to prevent."""
        from repro.config import AnalysisConfig, HyperQConfig

        config = HyperQConfig(analysis=AnalysisConfig(enabled=False))
        pl = TranslationPipeline(hyperq.mdi, config)
        pl.register_pass(self._corrupt_pass(), after="xform")
        session = hyperq.create_session()
        unit = pl.translate(
            parse_expression("select from trades"),
            session.session_scope,
        )
        assert "no_such_column" in unit.sql
        session.close()


class TestOneTranslationPath:
    """An assignment's value and an insert's rows are translated by the
    same pipeline run as a read: analysis, stage billing, rule counts."""

    def test_untranslatable_assignment_value_fails_analysis(self, session):
        from repro.errors import UntranslatableError

        with pytest.raises(UntranslatableError) as excinfo:
            session.execute("x: select fills Price from trades")
        assert excinfo.value.code == "QC004"

    def test_insert_bills_optimize_and_serialize(self, session):
        outcome = session.run(
            "`trades insert ([] Symbol: enlist `Z; Time: enlist 10:00:00; "
            "Price: enlist 1.0; Size: enlist 9)"
        )
        assert outcome.timings.optimize > 0
        assert outcome.timings.serialize > 0

    def test_assignment_reports_rule_applications(self, session):
        outcome = session.run("x: select Price from trades where Price>40")
        assert outcome.rule_applications.get("column_pruning", 0) >= 1
