"""Tests for the Cross Compiler: QT pipeline, PT pivot (Figure 5)."""

import math

import pytest

from repro.core.crosscompiler import ProtocolTranslator, pivot_result
from repro.core.pipeline import StageTimings, TranslationResult
from repro.errors import TranslationError
from repro.qlang.qtypes import QType
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QTable,
    QVector,
)
from repro.sqlengine.catalog import Column
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.types import SqlType


def result(columns, rows):
    return ResultSet([Column(n, t) for n, t in columns], rows)


class TestPivot:
    def test_table_shape(self):
        rs = result(
            [("sym", SqlType.VARCHAR), ("price", SqlType.DOUBLE)],
            [("GOOG", 1.0), ("IBM", 2.0)],
        )
        value = pivot_result(rs, "table", [])
        assert isinstance(value, QTable)
        assert value.columns == ["sym", "price"]
        assert value.column("sym").items == ["GOOG", "IBM"]

    def test_internal_columns_stripped(self):
        rs = result(
            [("ordcol", SqlType.BIGINT), ("v", SqlType.BIGINT),
             ("hq_r1_x", SqlType.BIGINT)],
            [(0, 10, 99)],
        )
        value = pivot_result(rs, "table", [])
        assert value.columns == ["v"]

    def test_atom_shape(self):
        rs = result([("m", SqlType.DOUBLE)], [(3.5,)])
        value = pivot_result(rs, "atom", [])
        assert value == QAtom(QType.FLOAT, 3.5)

    def test_atom_shape_requires_1x1(self):
        rs = result([("m", SqlType.DOUBLE)], [(1.0,), (2.0,)])
        with pytest.raises(TranslationError):
            pivot_result(rs, "atom", [])

    def test_vector_shape(self):
        rs = result([("v", SqlType.BIGINT)], [(1,), (2,), (3,)])
        value = pivot_result(rs, "vector", [])
        assert value == QVector(QType.LONG, [1, 2, 3])

    def test_dict_shape(self):
        rs = result(
            [("a", SqlType.BIGINT), ("b", SqlType.BIGINT)], [(1, 2), (3, 4)]
        )
        value = pivot_result(rs, "dict", [])
        assert isinstance(value, QDict)
        assert value.keys == QVector(QType.SYMBOL, ["a", "b"])

    def test_dict_keyed_shape(self):
        rs = result(
            [("sym", SqlType.VARCHAR), ("total", SqlType.BIGINT)],
            [("GOOG", 40), ("IBM", 20)],
        )
        value = pivot_result(rs, "dict_keyed", ["sym"])
        assert isinstance(value, QDict)
        assert value.keys.items == ["GOOG", "IBM"]
        assert value.values.items == [40, 20]

    def test_keyed_table_shape(self):
        rs = result(
            [("sym", SqlType.VARCHAR), ("a", SqlType.BIGINT),
             ("b", SqlType.BIGINT)],
            [("GOOG", 1, 2)],
        )
        value = pivot_result(rs, "keyed", ["sym"])
        assert isinstance(value, QKeyedTable)
        assert value.key.columns == ["sym"]
        assert value.value.columns == ["a", "b"]

    def test_null_becomes_typed_null(self):
        rs = result(
            [("v", SqlType.BIGINT), ("f", SqlType.DOUBLE),
             ("s", SqlType.VARCHAR)],
            [(None, None, None)],
        )
        value = pivot_result(rs, "table", [])
        assert value.column("v").atom_at(0).is_null
        assert math.isnan(value.column("f").items[0])
        assert value.column("s").items[0] == ""

    def test_type_mapping(self):
        rs = result(
            [
                ("b", SqlType.BOOLEAN),
                ("i", SqlType.INTEGER),
                ("d", SqlType.DATE),
                ("t", SqlType.TIME),
            ],
            [(True, 5, 6021, 34_200_000)],
        )
        value = pivot_result(rs, "table", [])
        assert value.column("b").qtype == QType.BOOLEAN
        assert value.column("i").qtype == QType.INT
        assert value.column("d").qtype == QType.DATE
        assert value.column("t").qtype == QType.TIME


class TestStageTimings:
    def test_total(self):
        t = StageTimings(parse=1.0, algebrize=2.0, optimize=3.0, serialize=4.0)
        assert t.total == 10.0

    def test_add(self):
        a = StageTimings(parse=1.0)
        a.add(StageTimings(parse=0.5, serialize=2.0))
        assert a.parse == 1.5
        assert a.serialize == 2.0


class TestProtocolTranslatorFsm:
    def test_execute_and_pivot_via_fsm(self):
        calls = []

        def execute(translation):
            calls.append(translation.sql)
            return result([("v", SqlType.BIGINT)], [(7,)])

        pt = ProtocolTranslator(execute)
        translation = TranslationResult(
            sql="SELECT 7", shape="atom", keys=[], timings=StageTimings()
        )
        value = pt.respond(translation)
        assert calls == ["SELECT 7"]
        assert value == QAtom(QType.LONG, 7)
