"""Join translation costs what the query reads, not what the tables hold.

A 3-column read over ``lj``, ``ej`` and ``aj`` must create and visit as
many XTRA projection entries in the binder and the Xformer whether each
table has 550 columns or 1 100: the joins rename and project only the
columns the enclosing select can read.
"""

import pytest

from repro.core.platform import HyperQ
from repro.core.xformer import rules
from repro.core.xtra.ops import XtraProject
from repro.qlang.interp import Interpreter
from repro.workload.loader import load_q_source

READS = {
    "lj": "select k, a1, b1 from l lj r",
    "ej": "select k, a1, b1 from ej[`k; l; 0!r]",
    "aj": "select s, t, b1 from aj[`s`t; l; 0!r]",
}


def _wide_platform(width: int) -> HyperQ:
    left = "; ".join(f"a{i}:1.0 2.0 3.0" for i in range(1, width))
    right = "; ".join(f"b{i}:4.0 5.0 6.0" for i in range(1, width))
    source = (
        f"l: ([] k:`x`y`z; s:`p`p`q; t:1 2 3; {left});"
        f"r: ([k:`x`y`w] s:`p`p`q; t:0 2 9; {right})"
    )
    hq = HyperQ()
    load_q_source(hq.engine, Interpreter(), source, ["l", "r"], mdi=hq.mdi)
    return hq


@pytest.fixture(scope="module")
def platforms():
    return {width: _wide_platform(width) for width in (550, 1100)}


def _entries_touched(hq: HyperQ, query: str, monkeypatch) -> int:
    """Projection entries created (every XtraProject) or visited (every
    scalar-rewriting pass over one) while translating ``query``."""
    count = 0
    init, map_pairs = XtraProject.__init__, rules._map_pairs

    def counting_init(self, child, projections):
        nonlocal count
        count += len(projections)
        init(self, child, projections)

    def counting_map_pairs(pairs, fn):
        nonlocal count
        count += len(pairs)
        return map_pairs(pairs, fn)

    with monkeypatch.context() as patch:
        patch.setattr(XtraProject, "__init__", counting_init)
        patch.setattr(rules, "_map_pairs", counting_map_pairs)
        hq.translate(query)
    return count


@pytest.mark.parametrize("verb", sorted(READS))
def test_projection_entries_do_not_grow_with_width(platforms, verb, monkeypatch):
    query = READS[verb]
    narrow = _entries_touched(platforms[550], query, monkeypatch)
    wide = _entries_touched(platforms[1100], query, monkeypatch)
    assert 0 < narrow < 100
    assert wide == narrow


@pytest.mark.parametrize("verb", sorted(READS))
def test_sql_reads_only_the_used_columns(platforms, verb):
    sql = platforms[1100].translate(READS[verb]).sql_statements[-1]
    assert '"a2"' not in sql and '"b2"' not in sql


def test_a_bare_select_keeps_every_column(platforms):
    sql = platforms[550].translate("select from l lj r").sql_statements[-1]
    assert '"a549"' in sql and '"b549"' in sql
