"""Golden Q snippets for every qcheck rule: one known-bad, one known-clean.

The acceptance bar for the analyzer: each ``QC0xx`` code fires on its bad
snippet and stays silent on its clean twin (no false positives on
supported Q — the corpus sweep in ``test_corpus_sweep.py`` extends that
guarantee to every shipped query).
"""

import pytest

from repro.analysis import Severity

#: (code, known-bad snippet, known-clean twin)
GOLDEN = [
    (
        "QC001",
        "select frobnicate from trades",
        "select Price from trades",
    ),
    (
        "QC001",
        "select from mystery_table where x > 1",
        "select from trades where Price > 1",
    ),
    (
        "QC002",
        "select from trades where Price = 0n",
        "select from trades where null Price",
    ),
    (
        "QC003",
        "select sums Size by Symbol from trades",
        "select sum Size by Symbol from trades",
    ),
    (
        "QC004",
        "+/[1 2 3]",
        "sum 1 2 3",
    ),
    (
        "QC004",
        "select fills Price from trades",
        "select Price from trades",
    ),
    (
        "QC005",
        "select Price, Price: Size from trades",
        "select Price, Notional: Size from trades",
    ),
    (
        "QC006",
        "trades: 42",
        "threshold: 42",
    ),
]


class TestGoldenSnippets:
    @pytest.mark.parametrize(
        "code,bad,clean", GOLDEN,
        ids=[f"{c}-{i}" for i, (c, __, ___) in enumerate(GOLDEN)],
    )
    def test_bad_snippet_fires_and_clean_twin_does_not(
        self, analyzer, session, code, bad, clean
    ):
        bad_codes = {
            f.code
            for f in analyzer.analyze_source(bad, session.session_scope)
        }
        assert code in bad_codes, f"{code} must fire on {bad!r}"
        clean_codes = {
            f.code
            for f in analyzer.analyze_source(clean, session.session_scope)
        }
        assert code not in clean_codes, (
            f"{code} false positive on {clean!r}"
        )

    def test_at_least_five_distinct_codes_fire(self, analyzer, session):
        fired = set()
        for __, bad, ___ in GOLDEN:
            fired |= {
                f.code
                for f in analyzer.analyze_source(bad, session.session_scope)
            }
        assert len({c for c in fired if c.startswith("QC")}) >= 5


class TestRuleDetails:
    def test_qc001_message_mirrors_the_binder(self, analyzer, session):
        findings = analyzer.analyze_source(
            "select frobnicate from trades", session.session_scope
        )
        [finding] = [f for f in findings if f.code == "QC001"]
        assert finding.severity is Severity.ERROR
        assert "searched local, session and server scopes" in finding.message

    def test_qc001_respects_lambda_parameters(self, analyzer, session):
        findings = analyzer.analyze_source(
            "f: {[lo] select from trades where Price > lo}",
            session.session_scope,
        )
        assert [f for f in findings if f.code == "QC001"] == []

    def test_qc002_three_valued_logic_mode(self, hyperq, session):
        from repro.analysis import QueryAnalyzer
        from repro.config import HyperQConfig, XformerConfig

        config = HyperQConfig(xformer=XformerConfig(two_valued_logic=False))
        analyzer = QueryAnalyzer(mdi=hyperq.mdi, config=config)
        findings = analyzer.analyze_source(
            "select from trades where Symbol = `GOOG",
            session.session_scope,
        )
        assert any(f.code == "QC002" for f in findings)

    def test_qc003_only_on_grouped_templates(self, analyzer, session):
        findings = analyzer.analyze_source(
            "select sums Price from trades", session.session_scope
        )
        assert [f for f in findings if f.code == "QC003"] == []

    def test_qc004_findings_are_fatal(self, analyzer, session):
        findings = analyzer.analyze_source(
            "select fills Price from trades", session.session_scope
        )
        fills = [f for f in findings if f.code == "QC004"]
        assert fills and all(f.fatal for f in fills)
        assert all(f.category == "missing-feature" for f in fills)

    def test_qc006_names_the_shadowed_relation(self, analyzer, session):
        findings = analyzer.analyze_source(
            "quotes: 1", session.session_scope
        )
        [finding] = [f for f in findings if f.code == "QC006"]
        assert "quotes" in finding.message


class TestPipelineEscalation:
    """The analyze pass turns fatal findings into UntranslatableError
    before bind runs (whenever config.analysis.enabled is on)."""

    def test_fatal_finding_raises_untranslatable(self, session):
        from repro.errors import QNotSupportedError, UntranslatableError

        with pytest.raises(UntranslatableError) as excinfo:
            session.execute("select fills Price from trades")
        # still a QNotSupportedError: existing supported-surface
        # handling (and its category) keeps working
        assert isinstance(excinfo.value, QNotSupportedError)
        assert excinfo.value.category == "missing-feature"
        assert excinfo.value.code == "QC004"

    def test_warnings_do_not_block_translation(self, session):
        outcome = session.run("select from trades where Price = 0n")
        assert outcome.sql_statements

    def test_findings_land_in_unit_diagnostics(self, session):
        from repro.qlang.parser import parse_expression

        unit = session.pipeline.translate(
            parse_expression("select from trades where Price = 0n"),
            session.session_scope,
        )
        assert any("QC002" in line for line in unit.diagnostics)

    def test_findings_counted_in_metrics(self, session):
        from repro.core.pipeline import ANALYSIS_FINDINGS

        before = ANALYSIS_FINDINGS.value(rule="QC002")
        session.run("select from trades where Price = 0n")
        assert ANALYSIS_FINDINGS.value(rule="QC002") == before + 1


class TestShardOrderRule:
    """QC007: order-dependent takes over sharded sources.

    Needs a platform whose backend actually partitions ``trades`` —
    the distribute pass then scatters it, and gathered row order is
    nondeterministic.  ``ratings`` stays replicated (every shard holds
    a full copy), so takes from it keep single-node semantics.
    """

    #: (known-bad snippet, known-clean twin)
    SHARDED_GOLDEN = [
        ("first select from trades", "first `Price xasc select from trades"),
        ("2#select from trades", "2#`Price xasc select from trades"),
        ("trades[til 3]", "ratings[til 3]"),
        (
            "select first Price by Symbol from trades",
            "select max Price by Symbol from trades",
        ),
    ]

    @pytest.fixture()
    def sharded_analyzer(self):
        from tests.core.test_sharded import build_sharded

        from repro.analysis import QueryAnalyzer

        platform, backend = build_sharded(2)
        analyzer = QueryAnalyzer(mdi=platform.mdi, config=platform.config)
        session = platform.create_session()
        yield analyzer, session
        session.close()
        backend.close()

    @pytest.mark.parametrize(
        "bad,clean", SHARDED_GOLDEN,
        ids=["first", "take", "til-index", "grouped-first"],
    )
    def test_fires_on_bad_and_not_on_sorted_twin(
        self, sharded_analyzer, bad, clean
    ):
        analyzer, session = sharded_analyzer
        bad_codes = {
            f.code
            for f in analyzer.analyze_source(bad, session.session_scope)
        }
        assert "QC007" in bad_codes, f"QC007 must fire on {bad!r}"
        clean_codes = {
            f.code
            for f in analyzer.analyze_source(clean, session.session_scope)
        }
        assert "QC007" not in clean_codes, (
            f"QC007 false positive on {clean!r}"
        )

    def test_silent_without_a_partition_map(self, analyzer, session):
        findings = analyzer.analyze_source(
            "first select from trades", session.session_scope
        )
        assert [f for f in findings if f.code == "QC007"] == []

    def test_message_names_table_and_shard_count(self, sharded_analyzer):
        analyzer, session = sharded_analyzer
        findings = analyzer.analyze_source(
            "first select from trades", session.session_scope
        )
        [finding] = [f for f in findings if f.code == "QC007"]
        assert "trades" in finding.message
        assert "2 shards" in finding.message
        assert "xasc" in finding.message
