"""Unit tests for the Q value model and type system."""

import dataclasses
import math

import pytest

from repro.errors import QDomainError, QLengthError, QNotSupportedError, QTypeError
from repro.qlang import qtypes
from repro.qlang.interp import Interpreter
from repro.qlang.qtypes import (
    NULL_INT,
    NULL_LONG,
    QType,
    from_sql,
    promote,
    type_from_char,
)
from repro.qlang.values import (
    QAtom,
    QDict,
    QKeyedTable,
    QList,
    QTable,
    QVector,
    enlist,
    length_of,
    q_match,
    table_from_dict,
    take_value,
    vector_of_atoms,
)
from repro.sqlengine.types import SqlType


class TestQTypeSystem:
    def test_type_codes_match_kdb(self):
        assert QType.BOOLEAN.code == 1
        assert QType.LONG.code == 7
        assert QType.FLOAT.code == 9
        assert QType.SYMBOL.code == 11
        assert QType.TIMESTAMP.code == 12

    def test_type_chars(self):
        assert QType.LONG.char == "j"
        assert QType.SYMBOL.char == "s"
        assert type_from_char("f") == QType.FLOAT
        with pytest.raises(QTypeError):
            type_from_char("?")

    def test_null_values(self):
        assert QType.LONG.spec.null == NULL_LONG
        assert QType.INT.spec.null == NULL_INT
        assert math.isnan(QType.FLOAT.spec.null)
        assert QType.SYMBOL.spec.null == ""

    def test_is_null_nan_aware(self):
        assert QType.FLOAT.is_null(float("nan"))
        assert not QType.FLOAT.is_null(0.0)

    def test_numeric_promotion(self):
        assert promote(QType.SHORT, QType.LONG) == QType.LONG
        assert promote(QType.LONG, QType.FLOAT) == QType.FLOAT
        assert promote(QType.BOOLEAN, QType.INT) == QType.INT

    def test_temporal_promotion(self):
        assert promote(QType.DATE, QType.INT) == QType.DATE
        assert promote(QType.LONG, QType.TIME) == QType.TIME

    def test_incompatible_promotion(self):
        with pytest.raises(QTypeError):
            promote(QType.SYMBOL, QType.LONG)

    def test_sql_mapping(self):
        assert QType.LONG.spec.sql.value == "bigint"
        assert QType.SYMBOL.spec.sql.value == "varchar"
        assert QType.FLOAT.spec.sql.value == "double precision"


class TestTypeDescriptor:
    def test_pivot_map_takes_the_undegraded_type(self):
        assert from_sql(SqlType.SMALLINT) is QType.SHORT
        assert from_sql(SqlType.DATE) is QType.DATE
        assert from_sql(SqlType.TIME) is QType.TIME
        assert from_sql(SqlType.TIMESTAMP) is QType.TIMESTAMP
        assert from_sql(SqlType.UUID) is QType.GUID

    def test_sql_only_types_have_aliases(self):
        assert from_sql(SqlType.NUMERIC) is QType.FLOAT
        assert from_sql(SqlType.TEXT) is QType.SYMBOL
        assert from_sql(SqlType.NULL) is QType.LONG

    def test_every_sql_type_pivots(self):
        for sql_type in SqlType:
            assert isinstance(from_sql(sql_type), QType)

    def test_an_ambiguous_pivot_fails(self, monkeypatch):
        # two undegraded Q types on one SQL type: the derivation refuses
        month = dataclasses.replace(QType.MONTH.spec, note=None)
        monkeypatch.setattr(QType.MONTH, "spec", month)
        with pytest.raises(TypeError, match="pivots to both"):
            qtypes._pivot_map()

    def test_every_degradation_is_noted(self):
        noted = {t for t in QType if t.spec.note is not None}
        assert noted == {
            QType.BYTE, QType.MONTH, QType.DATETIME, QType.MINUTE, QType.SECOND
        }

    def test_one_conversion(self):
        assert QType.MONTH.sql_values([12, 13, NULL_INT]) == [366, 397, None]
        assert QType.DATETIME.sql_value(366.5) == 366.5 * 86_400_000_000_000
        assert QType.MINUTE.sql_value(90) == 90 * 60_000
        assert QType.SECOND.sql_value(90) == 90_000
        assert QType.FLOAT.sql_values([1.5, float("nan")]) == [1.5, None]
        assert QType.LONG.sql_values([NULL_LONG, float("nan"), 3]) == [None, None, 3]

    def test_wire_widths(self):
        assert QType.LONG.spec.width == 8
        assert QType.MONTH.spec.width == 4
        assert QType.BOOLEAN.spec.width == 1
        assert QType.SYMBOL.spec.struct is None

    def test_boolean_has_no_null(self):
        # q has no boolean null: 0b is a value like 1b
        assert not QType.BOOLEAN.is_null(False)
        assert not QType.BOOLEAN.spec.nullable
        assert QType.BOOLEAN.sql_values([True, False]) == [True, False]


class TestCastNames:
    def test_every_type_is_a_cast_target(self):
        interp = Interpreter()
        assert interp.eval_text("`short$7") == QAtom(QType.SHORT, 7)
        assert interp.eval_text("`month$13") == QAtom(QType.MONTH, 13)

    def test_guid_is_named_but_not_castable(self):
        # the name resolves; the conversion itself is unsupported
        with pytest.raises(QNotSupportedError):
            Interpreter().eval_text("`guid$7")

    def test_unknown_name(self):
        with pytest.raises(QDomainError):
            Interpreter().eval_text("`nosuch$7")


class TestAtomsAndVectors:
    def test_atom_equality_includes_type(self):
        assert QAtom(QType.LONG, 1) != QAtom(QType.INT, 1)
        assert QAtom(QType.LONG, 1) == QAtom(QType.LONG, 1)

    def test_nan_atoms_match(self):
        a = QAtom(QType.FLOAT, float("nan"))
        b = QAtom(QType.FLOAT, float("nan"))
        assert a == b  # two-valued logic: null matches null

    def test_atom_hashable_even_nan(self):
        assert hash(QAtom(QType.FLOAT, float("nan"))) == hash(
            QAtom(QType.FLOAT, float("nan"))
        )

    def test_vector_take_out_of_range_gives_null(self):
        vec = QVector(QType.LONG, [10, 20])
        taken = vec.take([0, 5, 1])
        assert taken.items == [10, NULL_LONG, 20]

    def test_vector_iteration_yields_atoms(self):
        vec = QVector(QType.SYMBOL, ["a", "b"])
        atoms = list(vec)
        assert atoms[0] == QAtom(QType.SYMBOL, "a")

    def test_enlist_atom(self):
        assert enlist(QAtom(QType.LONG, 5)) == QVector(QType.LONG, [5])

    def test_enlist_vector_nests(self):
        inner = QVector(QType.LONG, [1, 2])
        outer = enlist(inner)
        assert isinstance(outer, QList)
        assert q_match(outer.items[0], inner)

    def test_vector_of_atoms_homogeneous(self):
        result = vector_of_atoms([QAtom(QType.LONG, 1), QAtom(QType.LONG, 2)])
        assert isinstance(result, QVector)

    def test_vector_of_atoms_mixed_gives_general_list(self):
        result = vector_of_atoms(
            [QAtom(QType.LONG, 1), QAtom(QType.SYMBOL, "x")]
        )
        assert isinstance(result, QList)

    def test_length_of(self):
        assert length_of(QAtom(QType.LONG, 1)) == 1
        assert length_of(QVector(QType.LONG, [1, 2, 3])) == 3


class TestDictsAndTables:
    def test_dict_length_mismatch(self):
        with pytest.raises(QLengthError):
            QDict(QVector(QType.SYMBOL, ["a"]), QVector(QType.LONG, [1, 2]))

    def test_dict_lookup_missing_gives_null(self):
        d = QDict(QVector(QType.SYMBOL, ["a"]), QVector(QType.LONG, [1]))
        missing = d.lookup(QAtom(QType.SYMBOL, "zz"))
        assert missing.is_null

    def test_table_ragged_columns_rejected(self):
        with pytest.raises(QLengthError):
            QTable(
                ["a", "b"],
                [QVector(QType.LONG, [1]), QVector(QType.LONG, [1, 2])],
            )

    def test_table_unknown_column(self):
        t = table_from_dict({"a": QVector(QType.LONG, [1])})
        with pytest.raises(QTypeError):
            t.column("b")

    def test_table_row_is_dict(self):
        t = table_from_dict(
            {"a": QVector(QType.LONG, [1, 2]),
             "b": QVector(QType.SYMBOL, ["x", "y"])}
        )
        row = t.row(1)
        assert isinstance(row, QDict)
        assert row.lookup(QAtom(QType.SYMBOL, "b")) == QAtom(QType.SYMBOL, "y")

    def test_with_column_replace_and_append(self):
        t = table_from_dict({"a": QVector(QType.LONG, [1])})
        replaced = t.with_column("a", QVector(QType.LONG, [9]))
        appended = t.with_column("b", QVector(QType.LONG, [2]))
        assert replaced.column("a").items == [9]
        assert appended.columns == ["a", "b"]
        assert t.columns == ["a"]  # original untouched

    def test_keyed_table_unkey(self):
        kt = QKeyedTable(
            table_from_dict({"k": QVector(QType.SYMBOL, ["a"])}),
            table_from_dict({"v": QVector(QType.LONG, [1])}),
        )
        flat = kt.unkey()
        assert flat.columns == ["k", "v"]

    def test_keyed_table_row_count_check(self):
        with pytest.raises(QLengthError):
            QKeyedTable(
                table_from_dict({"k": QVector(QType.SYMBOL, ["a", "b"])}),
                table_from_dict({"v": QVector(QType.LONG, [1])}),
            )

    def test_q_match_deep(self):
        t1 = table_from_dict({"a": QVector(QType.LONG, [1, NULL_LONG])})
        t2 = table_from_dict({"a": QVector(QType.LONG, [1, NULL_LONG])})
        assert q_match(t1, t2)

    def test_take_value_on_table(self):
        t = table_from_dict({"a": QVector(QType.LONG, [10, 20, 30])})
        subset = take_value(t, [2, 0])
        assert subset.column("a").items == [30, 10]
