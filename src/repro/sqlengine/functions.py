"""Scalar and aggregate function registry for the SQL engine.

All functions follow PostgreSQL conventions: NULL inputs yield NULL unless
the function is explicitly NULL-aware (``coalesce``); aggregates skip NULLs
except ``count(*)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from repro.errors import SqlExecutionError
from repro.sqlengine.types import SqlType

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _null_safe(fn: Callable) -> Callable:
    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _substring(text: str, start: int, length: int | None = None) -> str:
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


def _round(value: float, digits: int = 0) -> float:
    factor = 10 ** int(digits)
    return math.floor(abs(value) * factor + 0.5) / factor * (1 if value >= 0 else -1)


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a, b):
    if a is None:
        return None
    return None if a == b else a


def _greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _sign(x):
    return (x > 0) - (x < 0)


def _log(base, value=None):
    if value is None:
        return math.log10(base)
    return math.log(value, base)


def _width_bucket(value, low, high, buckets):
    if value < low:
        return 0
    if value >= high:
        return int(buckets) + 1
    return int((value - low) / ((high - low) / buckets)) + 1


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "abs": _null_safe(abs),
    "round": _null_safe(_round),
    "floor": _null_safe(math.floor),
    "ceil": _null_safe(math.ceil),
    "ceiling": _null_safe(math.ceil),
    "sqrt": _null_safe(math.sqrt),
    "exp": _null_safe(math.exp),
    "ln": _null_safe(math.log),
    "log": _null_safe(_log),
    "power": _null_safe(pow),
    "pow": _null_safe(pow),
    "mod": _null_safe(lambda a, b: a - b * (a // b)),
    "sign": _null_safe(_sign),
    "width_bucket": _null_safe(_width_bucket),
    "upper": _null_safe(str.upper),
    "lower": _null_safe(str.lower),
    "length": _null_safe(len),
    "char_length": _null_safe(len),
    "substring": _null_safe(_substring),
    "substr": _null_safe(_substring),
    "trim": _null_safe(str.strip),
    "ltrim": _null_safe(str.lstrip),
    "rtrim": _null_safe(str.rstrip),
    "replace": _null_safe(lambda s, a, b: s.replace(a, b)),
    "left": _null_safe(lambda s, n: s[: int(n)]),
    "right": _null_safe(lambda s, n: s[-int(n):] if n else ""),
    "concat": lambda *args: "".join(str(a) for a in args if a is not None),
    "coalesce": _coalesce,
    "nullif": _nullif,
    "greatest": _greatest,
    "least": _least,
}


def scalar_result_type(name: str, arg_types: Sequence[SqlType]) -> SqlType:
    if name in ("upper", "lower", "trim", "ltrim", "rtrim", "substring",
                "substr", "replace", "left", "right", "concat"):
        return SqlType.TEXT
    if name in ("length", "char_length", "sign", "width_bucket"):
        return SqlType.INTEGER
    if name in ("sqrt", "exp", "ln", "log", "power", "pow", "round"):
        return SqlType.DOUBLE
    if name in ("floor", "ceil", "ceiling"):
        return SqlType.BIGINT
    if name in ("coalesce", "nullif", "greatest", "least", "abs", "mod"):
        for t in arg_types:
            if t != SqlType.NULL:
                return t
        return SqlType.NULL
    return SqlType.DOUBLE


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def _float_sum(values) -> float:
    """Correctly rounded float sum (``math.fsum``).

    Unlike the naive left-to-right ``sum``, the result is independent of
    input order and equals the exact rational sum rounded once — the
    property the sharded scatter-gather path relies on for byte-identical
    results at every shard count (docs/ARCHITECTURE.md).
    """
    # materialize first: callers pass generators, and fsum may raise
    # after partially consuming one — the fallback must see every element
    values = list(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        # inf/-inf/nan inputs: fall back to naive semantics
        return sum(values)


def _avg(values: list):
    return _float_sum(map(float, values)) / len(values) if values else None


def _sum(values: list):
    if not values:
        return None
    if isinstance(values[0], float) or any(
            issubclass(kind, float) for kind in set(map(type, values))):
        return _float_sum(values)
    return sum(values)  # ints / Fractions / Decimals stay exact


def _sum_exact(values: list):
    """Exact sum as a :class:`fractions.Fraction` (NUMERIC result).

    The partial-aggregate building block of sharded execution: per-shard
    partial sums are computed exactly (floats have power-of-two
    denominators, so the accumulator is one big integer plus a binary
    shift), merged exactly on the coordinator, and rounded to a float
    *once* — which makes the merged result bit-identical to a
    single-backend ``fsum`` over all the rows regardless of how rows were
    partitioned.
    """
    if not values:
        return None
    acc = 0
    shift = 0
    try:
        for v in values:
            num, den = v.as_integer_ratio()
            dlog = den.bit_length() - 1
            if (1 << dlog) != den:
                # non-binary denominator (Decimal/Fraction input): the
                # shift trick assumes power-of-two denominators; redo
                # the whole sum with exact rational arithmetic
                return sum(Fraction(*u.as_integer_ratio()) for u in values)
            if dlog > shift:
                acc <<= dlog - shift
                shift = dlog
            acc += num << (shift - dlog)
    except (AttributeError, OverflowError, ValueError):
        # non-finite floats (or exotic types): exactness is meaningless,
        # degrade to the correctly-rounded float sum
        return _float_sum(float(v) for v in values)
    if shift == 0:
        return acc
    return Fraction(acc, 1 << shift)


def _stddev(values: list, sample: bool):
    n = len(values)
    if n < (2 if sample else 1):
        return None
    mean = _float_sum(float(v) for v in values) / n
    ss = _float_sum((float(v) - mean) ** 2 for v in values)
    return math.sqrt(ss / (n - 1 if sample else n))


def _variance(values: list, sample: bool):
    n = len(values)
    if n < (2 if sample else 1):
        return None
    mean = _float_sum(float(v) for v in values) / n
    ss = _float_sum((float(v) - mean) ** 2 for v in values)
    return ss / (n - 1 if sample else n)


AGGREGATES: dict[str, Callable[[list], object]] = {
    "count": len,
    "sum": _sum,
    "sum_exact": _sum_exact,
    "avg": _avg,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
    "stddev": lambda vs: _stddev(vs, sample=True),
    "stddev_samp": lambda vs: _stddev(vs, sample=True),
    "stddev_pop": lambda vs: _stddev(vs, sample=False),
    "variance": lambda vs: _variance(vs, sample=True),
    "var_samp": lambda vs: _variance(vs, sample=True),
    "var_pop": lambda vs: _variance(vs, sample=False),
    "bool_and": lambda vs: all(vs) if vs else None,
    "bool_or": lambda vs: any(vs) if vs else None,
    "string_agg": lambda vs: None,  # handled specially (separator arg)
    "array_agg": lambda vs: list(vs) if vs else None,
    "median": lambda vs: _median(vs),
    # first/last are not stock PostgreSQL; they belong to the "toolbox" of
    # UDFs the paper (Section 5) describes shipping for Q parity.  They see
    # NULLs (q's first/last do not skip nulls).
    "first": lambda vs: vs[0] if vs else None,
    "last": lambda vs: vs[-1] if vs else None,
}

#: Aggregates that must receive NULL inputs rather than having them skipped.
NULL_KEEPING_AGGREGATES = {"first", "last", "array_agg"}


def _median(values: list):
    if not values:
        return None
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def is_aggregate(name: str) -> bool:
    return name in AGGREGATES


def aggregate_result_type(name: str, arg_type: SqlType) -> SqlType:
    if name == "count":
        return SqlType.BIGINT
    if name in ("avg", "stddev", "stddev_samp", "stddev_pop", "variance",
                "var_samp", "var_pop", "median"):
        return SqlType.DOUBLE
    if name == "sum_exact":
        return SqlType.NUMERIC
    if name in ("bool_and", "bool_or"):
        return SqlType.BOOLEAN
    if name == "string_agg":
        return SqlType.TEXT
    return arg_type if arg_type != SqlType.NULL else SqlType.DOUBLE


def compute_aggregate(name: str, values: list, extra_args: list | None = None):
    """Compute aggregate ``name`` over non-NULL ``values``."""
    if name == "string_agg":
        separator = extra_args[0] if extra_args else ","
        return separator.join(str(v) for v in values) if values else None
    fn = AGGREGATES.get(name)
    if fn is None:
        raise SqlExecutionError(f"unknown aggregate {name!r}")
    return fn(values)
