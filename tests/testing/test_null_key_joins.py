"""Q joins on null keys, Hyper-Q against the reference interpreter.

Q matches a null key with a null key, so the two-valued-logic rule makes
every join key ``IS NOT DISTINCT FROM``.  The engine's hash join has to
match NULL keys for those conjuncts (and only for those): ``lj`` and
``aj`` fill ``b`` for the null-keyed row, ``ej`` keeps it.
"""

import pytest

from repro.testing.sidebyside import SideBySideHarness

SOURCE = """
l: ([] s:`x``y; t:10 20 30; a:1 2 3);
r: ([] s:`x``z; t:5 15 25; b:10 20 30);
rk: ([s:`x``z] b:10 20 30)
"""


@pytest.fixture(scope="module")
def harness():
    return SideBySideHarness(SOURCE, ["l", "r", "rk"])


@pytest.mark.parametrize("query", [
    "l lj rk",
    "aj[`s`t; l; r]",
    "ej[`s; l; r]",
    "ej[`s; l; 0!rk]",
])
def test_null_keys_match_like_q(harness, query):
    result = harness.check(query)
    assert result.passed, result.comparison.reason


def test_lj_fills_the_null_keyed_row(harness):
    result = harness.check("l lj rk")
    assert result.passed, result.comparison.reason
    assert list(result.hq_value.column("b").items[:2]) == [10, 20]


@pytest.mark.parametrize("query", [
    "aj[`s`t; select from l where s=`; r]",
    "(select from l where s=`) lj rk",
    "aj[`s`t; select from l where s=`x; r]",
])
def test_a_filtered_key_filters_the_right_side_too(harness, query):
    """The left side's key filter, NULL included, moves to the right side
    (IS NOT DISTINCT FROM keeps the null-keyed rows) and answers like q."""
    result = harness.check(query)
    assert result.passed, result.comparison.reason
    outcome = harness.hyperq.translate(query)
    assert outcome.rule_applications["key_filter_transfer"] == 1
