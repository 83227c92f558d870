"""Tests for the write path: `` `t insert rows`` through Hyper-Q."""

import pytest

from repro.errors import QNotSupportedError, QTypeError
from repro.qlang.qtypes import QType
from repro.qlang.values import QVector

from tests.cache.conftest import make_platform


class TestInsert:
    def test_insert_returns_new_row_indices(self, session):
        result = session.execute(
            "`trades insert ([] Symbol:`AAPL`TSLA; "
            "Time:09:40:00 09:41:00; Price:90.0 700.0; Size:5 6)"
        )
        assert result == QVector(QType.LONG, [4, 5])

    def test_inserted_rows_visible_and_ordered_last(self, session):
        session.execute(
            "`trades insert ([] Symbol:`AAPL`TSLA; "
            "Time:09:40:00 09:41:00; Price:90.0 700.0; Size:5 6)"
        )
        result = session.execute("select from trades")
        assert len(result) == 6
        assert result.column("Symbol").items[-2:] == ["AAPL", "TSLA"]

    def test_insert_issues_two_backend_statements(self):
        """A ``count(*)`` for the first index, then the INSERT; its
        command tag (``INSERT 0 n``) gives the row count."""
        hq, gateway = make_platform()
        session = hq.create_session()
        rows = (
            "([] Symbol:`A`B; Time:10:00:00 10:01:00; Price:1.0 2.0; "
            "Size:1 2)"
        )
        try:
            session.execute("select from trades")  # warm the metadata
            results = []
            for __ in range(2):
                gateway.statements.clear()
                results.append(session.execute(f"`trades insert {rows}"))
                assert len(gateway.statements) == 2, gateway.statements
        finally:
            session.close()
        assert results == [
            QVector(QType.LONG, [4, 5]), QVector(QType.LONG, [6, 7])
        ]

    def test_insert_column_order_independent(self, session):
        session.execute(
            "`trades insert ([] Size: enlist 9; Price: enlist 1.0; "
            "Time: enlist 10:00:00; Symbol: enlist `Z)"
        )
        result = session.execute("select from trades where Symbol=`Z")
        assert result.column("Size").items == [9]
        assert result.column("Price").items == [1.0]

    def test_insert_from_query(self, session):
        """Append a filtered selection of the table back into itself."""
        result = session.execute(
            "`trades insert select from trades where Symbol=`GOOG"
        )
        assert len(result) == 2
        assert session.execute("count select from trades").value == 6

    def test_insert_column_mismatch_rejected(self, session):
        with pytest.raises(QTypeError):
            session.execute("`trades insert ([] wrong: enlist 1)")

    def test_insert_needs_literal_target(self, session):
        with pytest.raises((QNotSupportedError, QTypeError)):
            session.execute("trades insert ([] Symbol: enlist `X)")

    def test_upsert_behaves_like_insert_on_plain_table(self, session):
        result = session.execute(
            "`trades upsert ([] Symbol: enlist `U; Time: enlist 11:00:00; "
            "Price: enlist 2.0; Size: enlist 3)"
        )
        assert result == QVector(QType.LONG, [4])

    def test_insert_into_session_variable(self, session):
        session.execute("mine: select from trades where Size > 15")
        before = session.execute("count select from mine").value
        session.execute(
            "`mine insert select from trades where Symbol=`GOOG"
        )
        after = session.execute("count select from mine").value
        assert after == before + 2

    def test_translate_only_emits_insert_sql(self, session):
        outcome = session.translate(
            "`trades insert ([] Symbol: enlist `X; Time: enlist 09:00:00; "
            "Price: enlist 1.0; Size: enlist 1)"
        )
        assert any(s.startswith("INSERT INTO") for s in outcome.sql_statements)

    def test_insert_matches_interpreter(self, session, interp):
        from repro.testing.comparators import compare_values

        text = (
            "`trades insert ([] Symbol: enlist `N; Time: enlist 12:00:00; "
            "Price: enlist 4.0; Size: enlist 4); select from trades"
        )
        left = interp.eval_text(text)
        right = session.execute(text)
        comparison = compare_values(left, right)
        assert comparison, comparison.reason
