"""The Analytical Workload (paper Section 6).

    "All experiments are conducted on an Analytical Workload driven from
    customer use-cases.  The workload is representative of actual
    production settings and consists of 25 queries that involve three or
    more wide tables (e.g., tables with more than 500 columns), joins,
    and various kinds of analytical aggregate functions."

This module generates that workload synthetically: three wide tables
(positions: 600 columns, marks: 550, instruments: 520) and the 25
parameterized Q queries.  Queries 10, 18, 19 and 20 join three tables —
the paper singles those out as the most expensive to translate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.qlang.qtypes import QType
from repro.qlang.values import QKeyedTable, QTable, QVector

#: column-count targets, all > 500 per the paper
POSITIONS_COLUMNS = 600
MARKS_COLUMNS = 550
INSTRUMENTS_COLUMNS = 520

SECTORS = ("tech", "finance", "energy", "health", "retail", "telecom")
REGIONS = ("amer", "emea", "apac")
CURRENCIES = ("usd", "eur", "gbp", "jpy")
DESKS = ("rates", "credit", "equities", "fx", "commodities")
TRADERS = tuple(f"trader{i:02d}" for i in range(1, 13))


@dataclass
class AnalyticalConfig:
    """Default sizes are calibrated so that backend execution dominates
    translation the way it does on the paper's Greenplum deployment."""

    n_instruments: int = 1500
    n_positions: int = 5000
    n_marks: int = 4000
    seed: int = 20160701

    @classmethod
    def small(cls) -> "AnalyticalConfig":
        """A fast variant for unit tests."""
        return cls(n_instruments=100, n_positions=200, n_marks=150)


@dataclass
class WorkloadQuery:
    number: int
    text: str
    tables: tuple[str, ...]
    description: str


@dataclass
class AnalyticalWorkload:
    tables: dict[str, QTable | QKeyedTable]
    queries: list[WorkloadQuery]
    config: AnalyticalConfig = field(default_factory=AnalyticalConfig)


def _factor_columns(prefix: str, count: int, rows: int, rng: random.Random):
    names = [f"{prefix}{i:04d}" for i in range(1, count + 1)]
    data = [
        QVector(QType.FLOAT, [rng.random() for __ in range(rows)])
        for __ in names
    ]
    return names, data


def generate(config: AnalyticalConfig | None = None) -> AnalyticalWorkload:
    config = config or AnalyticalConfig()
    rng = random.Random(config.seed)
    instrument_ids = [f"I{i:04d}" for i in range(1, config.n_instruments + 1)]

    # instruments: keyed reference table (inst is the key)
    n = config.n_instruments
    base_names = ["inst", "sector", "region", "currency", "rating"]
    base_data = [
        QVector(QType.SYMBOL, instrument_ids),
        QVector(QType.SYMBOL, [rng.choice(SECTORS) for __ in range(n)]),
        QVector(QType.SYMBOL, [rng.choice(REGIONS) for __ in range(n)]),
        QVector(QType.SYMBOL, [rng.choice(CURRENCIES) for __ in range(n)]),
        QVector(QType.FLOAT, [round(rng.uniform(1.0, 5.0), 2) for __ in range(n)]),
    ]
    factor_names, factor_data = _factor_columns(
        "i", INSTRUMENTS_COLUMNS - len(base_names), n, rng
    )
    instruments_flat = QTable(base_names + factor_names, base_data + factor_data)
    instruments = QKeyedTable(
        QTable(["inst"], [instruments_flat.data[0]]),
        QTable(instruments_flat.columns[1:], instruments_flat.data[1:]),
    )

    # positions: the main fact table
    n = config.n_positions
    times = sorted(
        rng.sample(range(9 * 3600 * 1000, 16 * 3600 * 1000), n)
    )
    base_names = ["inst", "desk", "trader", "ts", "qty", "price", "notional"]
    qty = [rng.randint(1, 1000) for __ in range(n)]
    price = [round(rng.uniform(10.0, 200.0), 2) for __ in range(n)]
    base_data = [
        QVector(QType.SYMBOL, [rng.choice(instrument_ids) for __ in range(n)]),
        QVector(QType.SYMBOL, [rng.choice(DESKS) for __ in range(n)]),
        QVector(QType.SYMBOL, [rng.choice(TRADERS) for __ in range(n)]),
        QVector(QType.TIME, times),
        QVector(QType.LONG, qty),
        QVector(QType.FLOAT, price),
        QVector(QType.FLOAT, [round(q * p, 2) for q, p in zip(qty, price)]),
    ]
    factor_names, factor_data = _factor_columns(
        "p", POSITIONS_COLUMNS - len(base_names), n, rng
    )
    positions = QTable(base_names + factor_names, base_data + factor_data)

    # marks: wide time-series of valuations
    n = config.n_marks
    times = sorted(rng.sample(range(9 * 3600 * 1000, 16 * 3600 * 1000), n))
    base_names = ["inst", "ts", "mark"]
    base_data = [
        QVector(QType.SYMBOL, [rng.choice(instrument_ids) for __ in range(n)]),
        QVector(QType.TIME, times),
        QVector(QType.FLOAT, [round(rng.uniform(5.0, 250.0), 2) for __ in range(n)]),
    ]
    factor_names, factor_data = _factor_columns(
        "m", MARKS_COLUMNS - len(base_names), n, rng
    )
    marks = QTable(base_names + factor_names, base_data + factor_data)

    return AnalyticalWorkload(
        tables={
            "positions": positions,
            "marks": marks,
            "instruments": instruments,
        },
        queries=build_queries(),
        config=config,
    )


def build_queries() -> list[WorkloadQuery]:
    """The 25 queries.  Queries 10, 18, 19, 20 involve three tables."""
    inst_list = "`I0001`I0002`I0003`I0004`I0005`I0006`I0007`I0008"
    specs: list[tuple[str, tuple[str, ...], str]] = [
        # 1
        ("select avg p0001, max p0002, min p0003 from positions",
         ("positions",), "scalar aggregates"),
        # 2
        ("select sum notional by desk from positions",
         ("positions",), "group by desk"),
        # 3
        ("select sum qty, avg price by sector from positions lj instruments",
         ("positions", "instruments"), "join + group"),
        # 4
        ("select from positions where p0005 > 0.5, p0010 < 0.9",
         ("positions",), "wide filter scan"),
        # 5
        ("select vw: qty wavg price by desk from positions",
         ("positions",), "weighted average"),
        # 6
        ("select dev p0020, var p0021, med p0022 from positions",
         ("positions",), "statistical aggregates"),
        # 7
        ("exec sum notional by trader from positions",
         ("positions",), "exec by"),
        # 8
        ("update spread_: p0001 - p0002 from positions",
         ("positions",), "wide update"),
        # 9
        ("select avg mark by inst from marks",
         ("marks",), "per-instrument marks"),
        # 10 — three tables
        ("select sum notional, avg mark by sector, region from "
         "ej[`inst; positions; marks] lj instruments",
         ("positions", "marks", "instruments"), "3-table rollup"),
        # 11
        ("select sum p0001, s2: sum p0002, s3: sum p0003, s4: sum p0004, "
         "s5: sum p0005, s6: sum p0006, s7: sum p0007, s8: sum p0008 "
         "from positions",
         ("positions",), "many aggregates"),
        # 12
        ("select cnt: count inst by rb: floor rating from instruments",
         ("instruments",), "bucketed count"),
        # 13
        ("select from marks where mark > 100.0",
         ("marks",), "wide filter on marks"),
        # 14
        ("select mx: max mark, mn: min mark by inst from marks",
         ("marks",), "min/max by instrument"),
        # 15
        (f"select from positions where inst in {inst_list}",
         ("positions",), "IN-list filter"),
        # 16
        ("update cum: sums notional by desk from positions",
         ("positions",), "running sums by group"),
        # 17
        ("select avg price by trader from positions where qty > 500",
         ("positions",), "filtered group"),
        # 18 — three tables
        ("select total: sum notional, risk: dev mark, n: count inst "
         "by region from ej[`inst; positions; marks] lj instruments "
         "where qty > 100",
         ("positions", "marks", "instruments"), "3-table risk rollup"),
        # 19 — three tables
        ("select vw: qty wavg mark, mx: max price by sector, currency "
         "from ej[`inst; positions lj instruments; marks]",
         ("positions", "instruments", "marks"), "3-table weighted marks"),
        # 20 — three tables
        ("select n: count inst, s: sum notional by rb: floor rating "
         "from ej[`inst; positions; marks] lj instruments where mark > 0.0",
         ("positions", "marks", "instruments"), "3-table rating buckets"),
        # 21
        ("select inst, ts, price, mark from aj[`inst`ts; positions; marks]",
         ("positions", "marks"), "as-of join, pruned output"),
        # 22
        ("select mi: avg i0001, m2: avg i0002 by sector from instruments",
         ("instruments",), "factor means"),
        # 23
        ("exec max mark by inst from marks",
         ("marks",), "exec by instrument"),
        # 24
        ("select from instruments where rating within 2.0 4.0",
         ("instruments",), "range filter"),
        # 25
        ("delete from positions where notional < 50.0",
         ("positions",), "wide delete"),
    ]
    return [
        WorkloadQuery(i + 1, text, tables, description)
        for i, (text, tables, description) in enumerate(specs)
    ]


def load_workload(engine, mdi=None, config: AnalyticalConfig | None = None
                  ) -> AnalyticalWorkload:
    """Generate and load the workload into an engine (+ MDI annotations)."""
    from repro.workload.loader import load_table

    workload = generate(config)
    for name, table in workload.tables.items():
        load_table(engine, name, table, mdi=mdi)
    return workload
