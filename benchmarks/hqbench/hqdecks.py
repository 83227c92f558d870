"""The four hqbench workloads as seeded decks of Q requests.

A *template* is a Q text with literal slots; a *card* is one template
with its literals filled in and the QIPC request frame already built,
so the load generator does no encoding inside the timed window.  A
*deck* is the list of cards one pass sends.  Runs always send whole
passes: every run of a workload does the same mix of templates, and a
heavy template cannot land four times in one run and six in the next.

``--seed`` drives literals and card order, nothing else.  Literals come
from narrow bands, so the work a card costs barely depends on the seed
(the driver's ten agreement runs each use another seed, and their
spread is the benchmark's resolution).

Why each workload exists (the same text is in README.md):

* ``dashboard_repeat`` - 16 small-result reads cycled by 2 clients; the
  working set fits the translation cache and the result cache, so the
  per-request fixed cost (reactor, worker hand-off, QIPC decode/encode,
  WLM, two cache hits) is the whole request.  An engine speed-up must
  show no change here.
* ``adhoc_cold`` - a 40-card deck with a fresh literal on every op, so
  both caches miss: parse/bind/xform/serialize over 500+-column
  metadata and above all the SQL engine do the work.  A cache-hit-path
  or data-plane change must show no change here.
* ``tick_ingest`` - an open-loop writer at 2 single-row inserts/s next
  to 2 closed-loop readers cycling 3 ``trades`` and 3 ``quotes`` panels:
  each write strands the cached ``trades`` results while the ``quotes``
  panels must keep hitting.  The real-time half of the paper's title.
* ``wide_fetch`` - 8 large-result reads, cycled and therefore cache
  resident: with the engine out of the way, result copy-out, pivot,
  QIPC encode, frame compression and the buffered write are the whole
  request.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from hqdata import Facts

from repro.qipc.encode import encode_value
from repro.qipc.messages import MessageType, QipcMessage, frame
from repro.qlang.qtypes import QType
from repro.qlang.values import QVector

WORKLOADS = ("dashboard_repeat", "adhoc_cold", "tick_ingest", "wide_fetch")

#: the tail percentile reported as ``latency_tail_ms`` per workload: the
#: highest of p99/p95/p90/p75 that keeps >= 10 samples beyond it in a
#: 18-second window at this commit, frozen so runs stay comparable
TAIL_PERCENTILE = {
    "dashboard_repeat": 99,
    "adhoc_cold": 90,
    "tick_ingest": 99,
    "wide_fetch": 90,
}
#: the same rule for the tick writer's 36 inserts
WRITE_TAIL_PERCENTILE = 75

#: the open-loop writer's rate (inserts per second).  One writer sustains
#: 21/s next to the closed-loop reader at this commit (95/s alone), so
#: the queue is stable with room to regress.  The rate also sets how much
#: of each second the reader spends recomputing stranded panels (about
#: 110 ms per insert): at 4/s that was half, which made the reader's
#: throughput twice as sensitive to host speed as any other number here
TICK_RATE = 2


def request_frame(text: str) -> bytes:
    """The framed sync message a Q client sends for ``text``."""
    payload = encode_value(QVector(QType.CHAR, list(text)))
    return frame(QipcMessage(MessageType.SYNC, payload))


@dataclass(frozen=True)
class Template:
    name: str
    text: str
    #: ``(j, facts) -> literals`` for ``j`` in ``range(space)``
    fill: Callable[[int, Facts], dict]
    #: distinct literal combinations ``fill`` can produce
    space: int
    #: ``(facts, literals) -> expected row count``; None when the count
    #: comes from the verified warm-up answer of the same request text
    rows: Callable[[Facts, dict], int] | None = None
    #: cards of this template per deck pass
    weight: int = 1


@dataclass
class Card:
    template: str
    text: str
    request: bytes = field(repr=False)
    kind: str = "read"
    #: expected row count, once known
    rows: int | None = None
    literals: dict = field(default_factory=dict)


def _symbol_and_int(low: int, width: int = 1000):
    """20 symbols x ``width`` integers above ``low``."""

    def fill(j: int, facts: Facts) -> dict:
        count = len(facts.symbols)
        return {"s": facts.symbols[j % count], "n": low + j // count}

    return fill, 20 * width


def _symbol():
    """One of the 20 symbols, no number."""
    return _symbol_and_int(0, 1)


def _int_band(low: int, width: int):
    return (lambda j, facts: {"n": low + j}), width


def _float_band(low: float, width: float, steps: int = 20_000):
    def fill(j: int, facts: Facts) -> dict:
        return {"x": f"{low + j * width / steps:.4f}"}

    return fill, steps


def _rating_band():
    """A 0.40-wide ``rating`` window: a tenth of the instruments."""
    return (lambda j, facts: {"n": 10 + j, "m": 50 + j}), 10


def _no_literals():
    return (lambda j, facts: {}), 1


def _distinct(values) -> int:
    return len(set(values))


def _template(name, text, band, rows=None, weight=1) -> Template:
    fill, space = band
    return Template(name, text, fill, space, rows, weight)


# -- adhoc_cold: fresh literal per op, row counts from oracles -------------

ADHOC_TEMPLATES = (
    _template(
        "trades_point",
        "select from trades where Symbol=`{s}, Size>{n}",
        _symbol_and_int(4000),
        lambda f, lit: sum(
            1 for s, z in f.rows("trades", "Symbol", "Size")
            if s == lit["s"] and z > lit["n"]
        ),
        weight=12,
    ),
    _template(
        "trades_by_symbol",
        "select sum Size, avg Price by Symbol from trades where Size>{n}",
        _int_band(3000, 4000),
        lambda f, lit: _distinct(
            s for s, z in f.rows("trades", "Symbol", "Size") if z > lit["n"]
        ),
        weight=8,
    ),
    _template(
        "trades_by_ex",
        "select sum Size by Ex from trades where Symbol=`{s}, Size>{n}",
        _symbol_and_int(2000),
        lambda f, lit: _distinct(
            e for s, z, e in f.rows("trades", "Symbol", "Size", "Ex")
            if s == lit["s"] and z > lit["n"]
        ),
        weight=5,
    ),
    _template(
        "trades_range_by_ex",
        "select mx: max Price, mn: min Price by Ex from trades "
        "where Symbol=`{s}, Size>{n}",
        _symbol_and_int(1000),
        lambda f, lit: _distinct(
            e for s, z, e in f.rows("trades", "Symbol", "Size", "Ex")
            if s == lit["s"] and z > lit["n"]
        ),
        weight=5,
    ),
    _template(
        "positions_by_desk",
        "select sum notional by desk from positions where price>{x}",
        _float_band(50.0, 10.0),
        lambda f, lit: _distinct(
            d for d, p in f.rows("positions", "desk", "price")
            if p > float(lit["x"])
        ),
        weight=3,
    ),
    _template(
        "marks_by_inst",
        "select avg mark by inst from marks where mark>{x}",
        _float_band(100.0, 10.0),
        lambda f, lit: _distinct(
            i for i, m in f.rows("marks", "inst", "mark")
            if m > float(lit["x"])
        ),
        weight=3,
    ),
    _template(
        "positions_lj_sector",
        "select sum qty, avg price by sector from positions lj instruments "
        "where price>{x}",
        _float_band(50.0, 10.0),
        lambda f, lit: _distinct(
            f.sector_of[i] for i, p in f.rows("positions", "inst", "price")
            if p > float(lit["x"])
        ),
        weight=2,
    ),
    _template(
        "rollup_3table",
        "select total: sum notional, risk: dev mark, n: count inst by region "
        "from ej[`inst; positions; marks] lj instruments where price>{x}",
        _float_band(50.0, 10.0),
        lambda f, lit: _distinct(
            f.region_of[i] for i, p in f.rows("positions", "inst", "price")
            if p > float(lit["x"]) and i in f.marked
        ),
    ),
    _template(
        "asof_join",
        "aj[`Symbol`Time; select from trades where Symbol=`{s}, Size>{n}; "
        "quotes]",
        _symbol_and_int(8000),
        lambda f, lit: sum(
            1 for s, z in f.rows("trades", "Symbol", "Size")
            if s == lit["s"] and z > lit["n"]
        ),
    ),
)

# -- fixed panels: literals drawn once per run from narrow bands -----------

DASHBOARD_TEMPLATES = (
    _template(
        "last_by_symbol",
        "select last Price, sum Size by Symbol from trades",
        _no_literals(),
    ),
    _template(
        "size_by_symbol",
        "select sum Size, avg Price by Symbol from trades where Size>{n}",
        _int_band(4000, 100),
    ),
    _template(
        "size_by_ex",
        "select sum Size by Ex from trades where Symbol=`{s}",
        _symbol(),
    ),
    _template(
        "bbo_by_symbol",
        "select max Bid, min Ask by Symbol from quotes",
        _no_literals(),
    ),
    _template(
        "spread_by_ex",
        "select n: count Bid, sp: avg Ask-Bid by Ex from quotes "
        "where Symbol=`{s}",
        _symbol(),
    ),
    _template(
        "large_trades",
        "select from trades where Symbol=`{s}, Size>{n}",
        _symbol_and_int(9000, 100),
    ),
    _template(
        "vwap_by_symbol",
        "select vw: Size wavg Price by Symbol from trades where Size>{n}",
        _int_band(2000, 100),
    ),
    _template(
        "range_by_ex",
        "select mx: max Price, mn: min Price by Ex from trades "
        "where Symbol=`{s}",
        _symbol(),
    ),
    _template(
        "notional_by_desk",
        "select sum notional by desk from positions",
        _no_literals(),
    ),
    _template(
        "vwap_by_desk",
        "select vw: qty wavg price by desk from positions",
        _no_literals(),
    ),
    _template(
        "qty_by_sector",
        "select sum qty, avg price by sector from positions lj instruments",
        _no_literals(),
    ),
    _template(
        "rollup_q10",
        "select sum notional, avg mark by sector, region from "
        "ej[`inst; positions; marks] lj instruments",
        _no_literals(),
    ),
    _template(
        "rating_buckets",
        "select cnt: count inst by rb: floor rating from instruments",
        _no_literals(),
    ),
    _template(
        "price_by_trader",
        "select avg price by trader from positions where qty > {n}",
        _int_band(500, 20),
    ),
    _template(
        "factor_means",
        "select mi: avg i0001, m2: avg i0002 by sector from instruments",
        _no_literals(),
    ),
    _template(
        "scalar_aggregates",
        "select avg p0001, max p0002, min p0003 from positions",
        _no_literals(),
    ),
)

WIDE_TEMPLATES = (
    _template(
        "trades_scan_a", "select from trades where Size>{n}",
        _int_band(3000, 100),
    ),
    _template(
        "trades_scan_b", "select from trades where Size>{n}",
        _int_band(5000, 100),
    ),
    _template(
        "quotes_scan",
        "select Symbol, Time, Bid, Ask from quotes where BidSize>{n}",
        _int_band(4000, 100),
        weight=4,
    ),
    _template(
        "wide_rows_a",
        "select from instruments where rating within 2.{n} 2.{m}",
        _rating_band(),
    ),
    _template(
        "wide_rows_b",
        "select from instruments where rating within 3.{n} 3.{m}",
        _rating_band(),
    ),
)

TICK_READ_TEMPLATES = (
    _template(
        "trades_last",
        "select last Price, sum Size by Symbol from trades",
        _no_literals(),
    ),
    _template(
        "trades_by_ex", "select sum Size by Ex from trades", _no_literals()
    ),
    _template("trades_count", "count trades", _no_literals()),
    _template(
        "quotes_bbo",
        "select max Bid, min Ask by Symbol from quotes",
        _no_literals(),
    ),
    _template(
        "quotes_by_ex",
        "select n: count Bid by Ex from quotes where Symbol=`{s}",
        _symbol(),
    ),
    _template(
        "quotes_large",
        "select Time, Bid, Ask from quotes where Symbol=`{s}, BidSize>{n}",
        _symbol_and_int(4500, 5),
    ),
)
#: reader templates whose cached results a ``trades`` insert strands
TICK_TRADES_PANELS = ("trades_last", "trades_by_ex", "trades_count")

INSERT_TEXT = (
    "`trades insert ([] Symbol: enlist `{s}; Date: enlist 2016.06.26; "
    "Time: enlist {t}; Price: enlist {p}; Size: enlist {z}; "
    "Ex: enlist `{e})"
)
_EXCHANGES = ("N", "B", "P", "Q", "T")


def _make_card(template: Template, literals: dict, kind="read") -> Card:
    text = template.text.format(**literals)
    return Card(
        template.name, text, request_frame(text), kind, literals=literals
    )


class _LiteralSource:
    """Seeded, repeat-free literal draws for one template.

    An affine walk ``j = (a*k + b) mod space`` with ``a`` coprime to
    ``space`` visits every combination once before any repeats, costs
    nothing to set up and is a pure function of the seed.
    """

    def __init__(self, template: Template, rng: random.Random):
        self.template = template
        self._b = rng.randrange(template.space)
        step = rng.randrange(1, 1 << 20) | 1
        while math.gcd(step, template.space) != 1:
            step += 2
        self._a = step
        self._k = 0

    def draw(self, facts: Facts) -> dict:
        j = (self._a * self._k + self._b) % self.template.space
        self._k += 1
        return self.template.fill(j, facts)


class Workload:
    """One workload's seeded request plan.

    ``warmup`` holds one card per template - sent before timing to fill
    the MDI and lazy set-up, billed to ``setup_s``, and checked against
    the reference interpreter.  ``deck()`` is the card list of the next
    pass: the same list every pass for the cache-resident workloads,
    the same templates with fresh literals for ``adhoc_cold``.
    """

    def __init__(self, name: str, seed: int, facts: Facts):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.facts = facts
        self.fresh = name == "adhoc_cold"
        self.templates = {
            "dashboard_repeat": DASHBOARD_TEMPLATES,
            "adhoc_cold": ADHOC_TEMPLATES,
            "tick_ingest": TICK_READ_TEMPLATES,
            "wide_fetch": WIDE_TEMPLATES,
        }[name]
        rng = random.Random(f"hqbench:{name}:{seed}")
        self._sources = {
            t.name: _LiteralSource(t, rng) for t in self.templates
        }
        order = [t for t in self.templates for __ in range(t.weight)]
        rng.shuffle(order)
        self._order = order
        self._write_rng = random.Random(f"hqbench:{name}:{seed}:writes")
        self._writes = 0
        self._oracles = {t.name: t.rows for t in self.templates}
        if self.fresh:
            self.warmup = [self._draw(t) for t in self.templates]
            self._fixed = None
        else:
            self._fixed = [self._draw(t) for t in self._order]
            self.warmup = list(self._fixed)
        if name == "tick_ingest":
            self.warmup.append(self.next_insert())
        self.deck_size = len(self._order)

    def _draw(self, template: Template) -> Card:
        return _make_card(
            template, self._sources[template.name].draw(self.facts)
        )

    def deck(self) -> list[Card]:
        """Cards of the next pass (fresh literals for ``adhoc_cold``)."""
        if self._fixed is not None:
            return self._fixed
        return [self._draw(t) for t in self._order]

    def next_insert(self) -> Card:
        """The next seeded single-row ``trades`` insert."""
        rng = self._write_rng
        self._writes += 1
        millis = self._writes % 1000
        literals = {
            "s": rng.choice(self.facts.symbols),
            "t": f"15:59:{self._writes // 1000 % 60:02d}.{millis:03d}",
            "p": f"{rng.uniform(50.0, 150.0):.2f}",
            "z": rng.randint(1, 100) * 100,
            "e": rng.choice(_EXCHANGES),
        }
        text = INSERT_TEXT.format(**literals)
        return Card(
            "trades_insert", text, request_frame(text), "write", 1, literals
        )

    def oracle_rows(self, card: Card) -> int | None:
        """Expected row count from a direct scan, where one exists."""
        oracle = self._oracles.get(card.template)
        if oracle is None:
            return None
        return oracle(self.facts, card.literals)


def request_sequence(name: str, seed: int, facts: Facts, passes: int = 3):
    """``[(template, text, request bytes)]`` of warm-up + ``passes`` decks
    (+ as many inserts for ``tick_ingest``): what ``--selftest`` compares."""
    workload = Workload(name, seed, facts)
    cards = list(workload.warmup)
    for __ in range(passes):
        cards.extend(workload.deck())
    if name == "tick_ingest":
        cards.extend(workload.next_insert() for __ in range(passes))
    return [(c.template, c.text, c.request) for c in cards]
