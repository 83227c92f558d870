"""Tests for the data movement / schema mapping tool (paper future work)."""

import pytest

from repro.core.migrate import DataMover
from repro.core.platform import HyperQ
from repro.errors import QTypeError
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import NULL_INT, NULL_LONG, NULL_SHORT, QType
from repro.qlang.values import QAtom, QList, QTable, QVector
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.loader import load_table


@pytest.fixture()
def source():
    interp = Interpreter()
    interp.eval_text(
        "trades: ([] Symbol:`GOOG`IBM; Time:09:30 09:31; "
        "Price:100.0 50.0; Size:10 0N); "
        "ratings: ([Symbol:`GOOG`IBM] Rating:`buy`hold)"
    )
    return interp


def q_tables(interp, names):
    return {name: interp.get_global(name) for name in names}


class TestSchemaMapping:
    def test_column_mappings(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend, mdi=hq.mdi)
        report = mover.migrate_table(
            "trades", source.get_global("trades")
        )
        by_name = {m.name: m for m in report.columns}
        assert by_name["Symbol"].sql_type == "varchar"
        assert by_name["Price"].sql_type == "double precision"
        assert by_name["Size"].sql_type == "bigint"
        assert by_name["ordcol"].sql_type == "bigint"

    def test_degradation_notes(self, source):
        hq = HyperQ()
        report = DataMover(hq.backend).migrate_table(
            "trades", source.get_global("trades")
        )
        minute = [m for m in report.columns if m.name == "Time"][0]
        assert minute.note is not None
        assert "time" in minute.note

    def test_general_list_rejected(self):
        hq = HyperQ()
        table = QTable(["g"], [QList([QAtom(QType.LONG, 1)])])
        with pytest.raises(QTypeError):
            DataMover(hq.backend).migrate_table("bad", table)


class TestDataMovement:
    def test_counts_and_nulls(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend, mdi=hq.mdi)
        report = mover.migrate_table("trades", source.get_global("trades"))
        assert report.rows_moved == 2
        assert report.verified
        result = hq.engine.execute('SELECT "Size" FROM "trades" ORDER BY "ordcol"')
        assert result.rows == [(10,), (None,)]

    def test_batching(self):
        hq = HyperQ()
        n = 1234
        table = QTable(["v"], [QVector(QType.LONG, list(range(n)))])
        mover = DataMover(hq.backend, batch_rows=100)
        report = mover.migrate_table("big", table)
        assert report.rows_moved == n
        assert hq.engine.execute('SELECT count(*) FROM "big"').scalar() == n

    def test_ordcol_continuous(self):
        hq = HyperQ()
        table = QTable(["v"], [QVector(QType.LONG, [7, 8, 9])])
        DataMover(hq.backend, batch_rows=2).migrate_table("t", table)
        result = hq.engine.execute('SELECT "ordcol" FROM "t" ORDER BY "ordcol"')
        assert [r[0] for r in result.rows] == [0, 1, 2]

    def test_keyed_table_annotated(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend, mdi=hq.mdi)
        report = mover.migrate_table("ratings", source.get_global("ratings"))
        assert report.keys == ["Symbol"]
        assert hq.mdi.require_table("ratings").keys == ["Symbol"]

    def test_replace_existing(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend)
        mover.migrate_table("trades", source.get_global("trades"))
        mover.migrate_table("trades", source.get_global("trades"))
        assert hq.engine.execute('SELECT count(*) FROM "trades"').scalar() == 2

    def test_works_through_network_gateway(self, source):
        """Data movement over the wire, not just in-process."""
        from repro.server.gateway import NetworkGateway
        from repro.server.pgserver import PgWireServer

        engine = Engine()
        with PgWireServer(engine) as server:
            with NetworkGateway(*server.address) as gateway:
                report = DataMover(gateway).migrate_table(
                    "trades", source.get_global("trades")
                )
                assert report.verified
                assert engine.execute(
                    'SELECT count(*) FROM "trades"'
                ).scalar() == 2


class TestEndToEndMigration:
    def test_migrate_then_query_side_by_side(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend, mdi=hq.mdi)
        report = mover.migrate(q_tables(source, ["trades", "ratings"]))
        assert report.total_rows == 4
        assert "migrated 2 tables" in report.summary()

        for query in [
            "select from trades",
            "select sum Size by Symbol from trades",
            "trades lj ratings",
        ]:
            left = source.eval_text(query)
            right = hq.q(query)
            comparison = compare_values(left, right)
            assert comparison, f"{query}: {comparison.reason}"

    def test_verify_hook(self, source):
        hq = HyperQ()
        mover = DataMover(hq.backend, mdi=hq.mdi)
        seen = []

        def check(name):
            seen.append(name)
            return True

        mover.migrate(q_tables(source, ["trades"]), verify_with=check)
        assert seen == ["trades"]


def _every_type_table() -> QTable:
    """One column per Q type, nulls and a boolean ``0b`` included."""
    guid = "deadbeef-cafe-babe-f00d-0123456789ab"
    columns = {
        QType.BOOLEAN: [True, False, True],
        QType.GUID: [guid, QType.GUID.spec.null, guid],
        QType.BYTE: [7, 0, 255],
        QType.SHORT: [-3, NULL_SHORT, 300],
        QType.INT: [-3, NULL_INT, 70_000],
        QType.LONG: [-3, NULL_LONG, 2**40],
        QType.REAL: [1.5, float("nan"), -0.25],
        QType.FLOAT: [3.14159, float("nan"), float("inf")],
        QType.CHAR: ["a", " ", "z"],
        QType.SYMBOL: ["GOOG", "", "naïve"],
        QType.TIMESTAMP: [1, NULL_LONG, 366 * 86_400_000_000_000 + 123],
        QType.MONTH: [12, NULL_INT, -13],
        QType.DATE: [366, NULL_INT, -400],
        QType.DATETIME: [366.5, float("nan"), -1.25],
        QType.TIMESPAN: [5, NULL_LONG, 86_400_000_000_001],
        QType.MINUTE: [90, NULL_INT, 0],
        QType.SECOND: [3_601, NULL_INT, 59],
        QType.TIME: [43_200_001, NULL_INT, 0],
    }
    return QTable(
        [qtype.name.lower() for qtype in columns],
        [QVector(qtype, raws) for qtype, raws in columns.items()],
    )


class TestOneConversion:
    """The loader, DataMover and the binder apply one Q -> SQL value
    conversion, so a query answers the same over either loading path."""

    @staticmethod
    def _loaded(source: str, name: str):
        interp = Interpreter()
        interp.eval_text(source)
        table = interp.get_global(name)
        loaded, moved = HyperQ(), HyperQ()
        load_table(loaded.engine, name, table, mdi=loaded.mdi)
        DataMover(moved.backend, mdi=moved.mdi).migrate_table(name, table)
        return interp, {"loader": loaded, "DataMover": moved}

    def test_loader_and_mover_store_identical_values(self):
        table = _every_type_table()
        loaded, moved = HyperQ(), HyperQ()
        load_table(loaded.engine, "every", table)
        DataMover(moved.backend).migrate_table("every", table)
        select = 'SELECT * FROM "every" ORDER BY "ordcol"'
        left = loaded.engine.execute(select)
        right = moved.engine.execute(select)
        assert [c.sql_type for c in left.columns] == [
            c.sql_type for c in right.columns
        ]
        assert left.rows == right.rows

    def test_boolean_false_is_not_stored_as_null(self):
        interp, platforms = self._loaded(
            "tt: ([] b:1001b; j:1 2 3 4)", "tt"
        )
        query = "exec j from tt where not b"
        assert interp.eval_text(query) == QVector(QType.LONG, [2, 3])
        for path, hq in platforms.items():
            assert hq.q(query) == QVector(QType.LONG, [2, 3]), path

    def test_month_filter_matches_the_reference(self):
        interp, platforms = self._loaded(
            "tt: ([] m:2001.01m 2001.02m; j:1 2)", "tt"
        )
        query = "select from tt where m=2001.02m"
        expected = len(interp.eval_text(query))
        assert expected == 1
        for path, hq in platforms.items():
            result = hq.q(query)
            assert len(result) == expected, path
            assert compare_values(interp.eval_text(query), result), path

    def test_month_reads_back_as_its_first_day(self):
        __, platforms = self._loaded("tt: ([] m:2001.01m 2001.02m)", "tt")
        for path, hq in platforms.items():
            days = hq.q("exec m from tt")
            assert days == QVector(QType.DATE, [366, 397]), path

    def test_datetime_lands_as_nanoseconds(self):
        table = QTable(["z"], [QVector(QType.DATETIME, [366.5])])
        for hq, load in (
            (HyperQ(), lambda hq: load_table(hq.engine, "tz", table)),
            (HyperQ(), lambda hq: DataMover(hq.backend).migrate_table("tz", table)),
        ):
            load(hq)
            stored = hq.engine.execute('SELECT "z" FROM "tz"').scalar()
            assert stored == 366.5 * 86_400_000_000_000

    def test_datetime_degradation_is_noted(self):
        table = QTable(["z"], [QVector(QType.DATETIME, [1.0])])
        report = DataMover(HyperQ().backend).migrate_table("tz", table)
        assert report.columns[0].sql_type == "timestamp"
        assert "timestamp" in report.columns[0].note
