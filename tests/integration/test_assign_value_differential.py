"""Differential suite: a name assigned an atom- or vector-valued read
reads back as that atom or vector, on a single backend and on a sharded
one, exactly as the reference interpreter answers.

An atom-valued assignment is evaluated into the variable store (the
paper's logical materialization of scalars), so the name also binds in
scalar contexts (``m+1``, ``where Price=m``); a vector-valued one keeps
its relation and remembers its shape.
"""

import pytest

from repro.core.platform import HyperQ
from repro.qlang.interp import Interpreter
from repro.testing.comparators import compare_values
from repro.workload.loader import load_q_source
from tests.core.conftest import MARKET_SOURCE, MARKET_TABLES
from tests.core.test_sharded import MARKET_SOURCE as SHARDED_SOURCE
from tests.core.test_sharded import build_sharded

#: id -> Q message: assign a value, then read the name back
MESSAGES = {
    "exec-max": "m: exec max Price from trades; m",
    "count-table": "n: count trades; n",
    "count-select": "n: count select from trades; n",
    "atom-arithmetic": "m: exec max Price from trades; m+1",
    "atom-in-where": (
        "m: exec max Price from trades; select from trades where Price=m"
    ),
    "exec-vector": "c: exec Price from trades; c",
    "function-local": "f:{[t] m: exec max Price from t; m}; f[trades]",
}


def single_backend():
    platform = HyperQ()
    load_q_source(
        platform.engine, Interpreter(), MARKET_SOURCE, MARKET_TABLES,
        mdi=platform.mdi,
    )
    return platform, None, MARKET_SOURCE


def sharded_backend():
    platform, backend = build_sharded(2)
    return platform, backend, SHARDED_SOURCE


@pytest.mark.parametrize(
    "message", list(MESSAGES.values()), ids=list(MESSAGES)
)
@pytest.mark.parametrize(
    "build", [single_backend, sharded_backend], ids=["single", "sharded"]
)
def test_assigned_value_matches_interpreter(build, message):
    platform, backend, source = build()
    reference = Interpreter()
    reference.eval_text(source)
    session = platform.create_session()
    try:
        got = session.execute(message)
    finally:
        session.close()
        if backend is not None:
            backend.close()
    expected = reference.eval_text(message)
    comparison = compare_values(got, expected)
    assert comparison, comparison.reason
