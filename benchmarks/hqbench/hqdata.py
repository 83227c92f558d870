"""The data every hqbench workload runs against.

One fixed dataset for all four workloads, so ``setup_s`` and
``server_peak_rss_mb`` compare across them: the TAQ tick tables of the
paper's Section 2.1 and the three >500-column tables of its Section 6
Analytical Workload.  The data seeds are the generators' defaults and
never change; ``--seed`` drives request literals and order only
(``hqdecks``).  The same tables load into the server child's engine,
into the reference interpreter of the answer check and into the traced
run's in-process engine.

Row counts are a fifth to a half of the generator defaults: the driver
allots each run about half a minute in all, three server set-ups
included, and the 600/550/520-column widths - the property that makes
metadata and translation expensive - are kept in full.
"""

from __future__ import annotations

from repro.workload import analytical, taq
from repro.workload.loader import load_table

TAQ_CONFIG = taq.TaqConfig(
    n_symbols=20, quotes_per_symbol=500, trades_per_symbol=250
)
ANALYTICAL_CONFIG = analytical.AnalyticalConfig(
    n_instruments=250, n_positions=800, n_marks=600
)


def generate_tables() -> dict:
    """``name -> QTable | QKeyedTable`` for the five benchmark tables."""
    ticks = taq.generate(TAQ_CONFIG)
    tables = {"trades": ticks.trades, "quotes": ticks.quotes}
    tables.update(analytical.generate(ANALYTICAL_CONFIG).tables)
    return tables


def load_engine(engine, mdi, tables: dict) -> None:
    """Load the tables into a SQL engine (keyed tables annotate the MDI)."""
    for name, table in tables.items():
        load_table(engine, name, table, mdi=mdi)


def load_interpreter(interpreter, tables: dict) -> None:
    """Bind the same tables as globals of the reference interpreter."""
    for name, table in tables.items():
        interpreter.set_global(name, table)


class Facts:
    """Plain-list column views the row-count oracles scan.

    The timed ad-hoc ops each carry a fresh literal, far too many to put
    through the reference interpreter, so their expected row counts come
    from direct scans of the generated columns (``hqdecks`` pairs every
    ad-hoc template with a one-line oracle over these lists).
    """

    def __init__(self, tables: dict):
        self._flat = {
            name: table.unkey() if hasattr(table, "unkey") else table
            for name, table in tables.items()
        }
        self.symbols = sorted(set(self.column("trades", "Symbol")))
        instruments = self._flat["instruments"]
        inst = instruments.column("inst").items
        self.sector_of = dict(zip(inst, instruments.column("sector").items))
        self.region_of = dict(zip(inst, instruments.column("region").items))
        self.marked = set(self.column("marks", "inst"))

    def column(self, table: str, name: str) -> list:
        return self._flat[table].column(name).items

    def rows(self, table: str, *names: str):
        """Row tuples over the named columns of one table."""
        return zip(*(self.column(table, name) for name in names))
