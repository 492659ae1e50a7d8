"""From-scratch TPC-H ``lineitem``/``orders`` generators and queries.

Ships the four TPC-H-derived queries the benches use: single-table Q1
(pricing summary) and Q6 (revenue change), plus two-table Q3-class and
Q12-class join queries over ``orders`` x ``lineitem`` that exercise the
distributed exchange and dynamic-filter pushdown.

``lineitem`` follows the TPC-H specification's column definitions and
distributions (section 4.2.3 of the spec) closely enough that Q1's
semantics hold exactly:

* ``quantity``    uniform integer [1, 50] (stored as float64, as engines
  commonly read DECIMAL);
* ``extendedprice = quantity * part_price`` with part prices in the
  spec's [901, 104949] band;
* ``discount``    uniform [0.00, 0.10], ``tax`` uniform [0.00, 0.08];
* ``shipdate = orderdate + uniform[1, 121]`` days with order dates over
  1992-01-01 .. 1998-08-02, so the Q1 predicate
  ``shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY`` passes ~98% of
  rows (the paper's 194 MB -> 192 MB, 1.03% reduction);
* ``returnflag`` is R or A (evenly) when the item was received before
  1995-06-17, else N; ``linestatus`` is F when shipped before that date,
  else O — giving Q1 its exactly four (returnflag, linestatus) groups.

``orders`` mirrors the spec's distributions for the columns the join
queries touch: ``orderkey`` densely covers the key range ``lineitem``
draws from (so the join has true foreign-key semantics), ``orderdate``
is uniform over 1992-01-01 .. 1998-08-02 (Q3's ``orderdate < DATE
'1995-03-15'`` keeps ~48%), and ``orderpriority`` is uniform over the
five spec values (Q12's two-priority predicate keeps ~40%).

Scale: TPC-H SF-1 has ~6,001,215 lineitem rows and 1,500,000 orders;
the generators take explicit row counts so experiments can scale down.
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import DATE32, FLOAT64, INT64, STRING
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Field, Schema

__all__ = [
    "lineitem_schema",
    "generate_lineitem",
    "orders_schema",
    "generate_orders",
    "customer_schema",
    "generate_customer",
    "TPCH_Q1",
    "TPCH_Q3",
    "TPCH_Q3_FULL",
    "TPCH_Q4",
    "TPCH_Q6",
    "TPCH_Q12",
    "TPCH_Q18",
    "SF1_ROWS",
    "SF1_ORDERS",
    "SF1_CUSTOMERS",
]

SF1_ROWS = 6_001_215
SF1_ORDERS = 1_500_000
SF1_CUSTOMERS = 150_000

#: TPC-H Query 1 (pricing summary report), Presto dialect.
TPCH_Q1 = """
SELECT returnflag, linestatus,
       SUM(quantity) AS sum_qty,
       SUM(extendedprice) AS sum_base_price,
       SUM(extendedprice * (1 - discount)) AS sum_disc_price,
       SUM(extendedprice * (1 - discount) * (1 + tax)) AS sum_charge,
       AVG(quantity) AS avg_qty,
       AVG(extendedprice) AS avg_price,
       AVG(discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY returnflag, linestatus
ORDER BY returnflag, linestatus
"""

#: TPC-H Query 6 (forecasting revenue change): a selective filter feeding
#: a single global aggregate — the ideal pushdown shape, used by the
#: supplementary "beyond Q1" benchmark.
TPCH_Q6 = """
SELECT SUM(extendedprice * discount) AS revenue
FROM lineitem
WHERE shipdate >= DATE '1994-01-01' AND shipdate < DATE '1995-01-01'
  AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24
"""

#: TPC-H Query 3 class (shipping priority), two-table form: the
#: ``customer`` dimension is dropped (our engine joins two tables), the
#: join shape — filtered ``orders`` probing a filtered ``lineitem``
#: build — is preserved.
TPCH_Q3 = """
SELECT lineitem.orderkey, SUM(extendedprice * (1 - discount)) AS revenue,
       orderdate, shippriority
FROM orders JOIN lineitem ON orders.orderkey = lineitem.orderkey
WHERE orderdate < DATE '1995-03-15' AND shipdate > DATE '1995-03-15'
GROUP BY lineitem.orderkey, orderdate, shippriority
ORDER BY revenue DESC, orderdate
LIMIT 10
"""

#: TPC-H Query 3 (shipping priority), full three-table form: the
#: ``customer`` dimension is back, so the plan is a two-level join chain
#: — ``(orders ⋈ lineitem) ⋈ customer`` — lowered to a stage DAG with
#: independent scans for all three tables.  The segment predicate
#: (``mktsegment``) routes to the customer branch for pushdown.
TPCH_Q3_FULL = """
SELECT lineitem.orderkey, SUM(extendedprice * (1 - discount)) AS revenue,
       orderdate, shippriority
FROM orders JOIN lineitem ON orders.orderkey = lineitem.orderkey
            JOIN customer ON orders.custkey = customer.custkey
WHERE mktsegment = 'BUILDING'
  AND orderdate < DATE '1995-03-15' AND shipdate > DATE '1995-03-15'
GROUP BY lineitem.orderkey, orderdate, shippriority
ORDER BY revenue DESC, orderdate
LIMIT 10
"""

#: TPC-H Query 12 class (shipping modes and order priority): the spec's
#: CASE-based high/low split becomes a priority filter + plain count, so
#: the build side (priority-filtered lineitem rows in the shipmode/date
#: window) is very selective — the dynamic-filter showcase.
TPCH_Q12 = """
SELECT shipmode, COUNT(*) AS line_count
FROM orders JOIN lineitem ON orders.orderkey = lineitem.orderkey
WHERE shipmode IN ('MAIL', 'SHIP')
  AND commitdate < receiptdate
  AND receiptdate >= DATE '1994-01-01' AND receiptdate < DATE '1995-01-01'
  AND orderpriority IN ('1-URGENT', '2-HIGH')
GROUP BY shipmode
ORDER BY shipmode
"""

#: TPC-H Query 4 (order priority checking): a correlated EXISTS over
#: late line items.  The rewriter turns it into a semi join — orders
#: probes a commitdate-filtered lineitem build — so it exercises the
#: subquery surface end to end (parse → rewrite → stage DAG → exchange
#: semi join).  ``SELECT 1`` replaces the spec's ``SELECT *`` (the build
#: side only proves existence).
TPCH_Q4 = """
SELECT orderpriority, COUNT(*) AS order_count
FROM orders
WHERE orderdate >= DATE '1993-07-01' AND orderdate < DATE '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE lineitem.orderkey = orders.orderkey
                AND commitdate < receiptdate)
GROUP BY orderpriority
ORDER BY orderpriority
"""

#: TPC-H Query 18 class (large volume customers), two-table form like
#: :data:`TPCH_Q3`: the ``customer`` dimension is dropped, keeping the
#: defining shape — an IN subquery whose build side is itself an
#: aggregation with HAVING.  The quantity threshold is scaled to the
#: repo's dataset sizes (the spec's 300 at SF1 leaves the conftest-scale
#: build empty).
TPCH_Q18 = """
SELECT orderkey, orderdate, totalprice
FROM orders
WHERE orderkey IN (SELECT orderkey FROM lineitem
                   GROUP BY orderkey
                   HAVING SUM(quantity) > 250.0)
ORDER BY totalprice DESC, orderdate
LIMIT 100
"""

_EPOCH = datetime.date(1970, 1, 1)


def _days(iso: str) -> int:
    return (datetime.date.fromisoformat(iso) - _EPOCH).days


_ORDERDATE_LO = _days("1992-01-01")
_ORDERDATE_HI = _days("1998-08-02")
_CUTOFF_1995_06_17 = _days("1995-06-17")

_SHIPINSTRUCT = np.array(
    ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], dtype=object
)
_SHIPMODE = np.array(
    ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"], dtype=object
)
_COMMENT_WORDS = (
    "carefully final deposits boost quickly express packages sleep furiously "
    "regular ideas haggle blithely silent requests"
).split()
# Every phrase the generators can draw, built once: a row's text is a
# table lookup on its word indices (15**2 addresses, 15**3 comments).
_WORD_PAIRS = np.array(
    [f"{a} {b}" for a in _COMMENT_WORDS for b in _COMMENT_WORDS], dtype=object
)
_PHRASES = {
    2: _WORD_PAIRS,
    3: np.array(
        [f"{ab} {c}" for ab in _WORD_PAIRS for c in _COMMENT_WORDS], dtype=object
    ),
}
#: Indexed by clerk number (1..1000; slot 0 is never drawn).
_CLERKS = np.array([f"Clerk#{n:09d}" for n in range(1_001)], dtype=object)


def _phrases(word_idx: np.ndarray) -> np.ndarray:
    """Rows of word indices -> the space-joined phrase of each row."""
    width = word_idx.shape[1]
    place_values = len(_COMMENT_WORDS) ** np.arange(width - 1, -1, -1)
    return _PHRASES[width][word_idx @ place_values]


def lineitem_schema() -> Schema:
    return Schema(
        [
            Field("orderkey", INT64, nullable=False),
            Field("partkey", INT64, nullable=False),
            Field("suppkey", INT64, nullable=False),
            Field("linenumber", INT64, nullable=False),
            Field("quantity", FLOAT64, nullable=False),
            Field("extendedprice", FLOAT64, nullable=False),
            Field("discount", FLOAT64, nullable=False),
            Field("tax", FLOAT64, nullable=False),
            Field("returnflag", STRING, nullable=False),
            Field("linestatus", STRING, nullable=False),
            Field("shipdate", DATE32, nullable=False),
            Field("commitdate", DATE32, nullable=False),
            Field("receiptdate", DATE32, nullable=False),
            Field("shipinstruct", STRING, nullable=False),
            Field("shipmode", STRING, nullable=False),
            Field("comment", STRING, nullable=False),
        ]
    )


def generate_lineitem(rows: int, seed: int = 0, start_row: int = 0) -> RecordBatch:
    """``rows`` lineitem rows; ``start_row`` offsets keys for multi-file tables."""
    rng = np.random.default_rng(seed + 31 * start_row)

    # Orders carry 1-7 line items (spec 4.2.3); draw sizes, expand, trim.
    order_sizes = rng.integers(1, 8, size=rows).astype(np.int64)
    order_ids = np.repeat(
        np.arange(start_row + 1, start_row + 1 + rows, dtype=np.int64), order_sizes
    )[:rows]
    order_of_row = order_ids
    # Line numbers restart at 1 within each order.
    first = np.flatnonzero(np.diff(order_ids, prepend=order_ids[0] - 1))
    run_lengths = np.diff(np.append(first, rows))
    linenumber = (np.arange(rows) - np.repeat(first, run_lengths) + 1).astype(np.int64)

    partkey = rng.integers(1, 200_001, size=rows).astype(np.int64)
    suppkey = rng.integers(1, 10_001, size=rows).astype(np.int64)
    quantity = rng.integers(1, 51, size=rows).astype(np.float64)
    part_price = 901.0 + (partkey % 1000) * 100.0 + (partkey % 10) * 0.01
    extendedprice = np.round(quantity * part_price / 10.0, 2)
    discount = np.round(rng.integers(0, 11, size=rows) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, size=rows) / 100.0, 2)

    orderdate = rng.integers(_ORDERDATE_LO, _ORDERDATE_HI - 121, size=rows)
    shipdate = (orderdate + rng.integers(1, 122, size=rows)).astype(np.int32)
    commitdate = (orderdate + rng.integers(30, 91, size=rows)).astype(np.int32)
    receiptdate = (shipdate + rng.integers(1, 31, size=rows)).astype(np.int32)

    received_early = receiptdate <= _CUTOFF_1995_06_17
    r_or_a = rng.random(rows) < 0.5
    returnflag = np.where(received_early, np.where(r_or_a, "R", "A"), "N").astype(object)
    linestatus = np.where(shipdate <= _CUTOFF_1995_06_17, "F", "O").astype(object)

    shipinstruct = _SHIPINSTRUCT[rng.integers(0, len(_SHIPINSTRUCT), size=rows)]
    shipmode = _SHIPMODE[rng.integers(0, len(_SHIPMODE), size=rows)]
    word_idx = rng.integers(0, len(_COMMENT_WORDS), size=(rows, 3))
    comment = _phrases(word_idx)

    schema = lineitem_schema()
    return RecordBatch(
        schema,
        [
            ColumnArray(INT64, order_of_row),
            ColumnArray(INT64, partkey),
            ColumnArray(INT64, suppkey),
            ColumnArray(INT64, linenumber),
            ColumnArray(FLOAT64, quantity),
            ColumnArray(FLOAT64, extendedprice),
            ColumnArray(FLOAT64, discount),
            ColumnArray(FLOAT64, tax),
            ColumnArray(STRING, returnflag),
            ColumnArray(STRING, linestatus),
            ColumnArray(DATE32, shipdate),
            ColumnArray(DATE32, commitdate),
            ColumnArray(DATE32, receiptdate),
            ColumnArray(STRING, shipinstruct),
            ColumnArray(STRING, shipmode),
            ColumnArray(STRING, comment),
        ],
    )


_ORDERPRIORITY = np.array(
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], dtype=object
)
_ORDERSTATUS = np.array(["F", "O", "P"], dtype=object)


def orders_schema() -> Schema:
    return Schema(
        [
            Field("orderkey", INT64, nullable=False),
            Field("custkey", INT64, nullable=False),
            Field("orderstatus", STRING, nullable=False),
            Field("totalprice", FLOAT64, nullable=False),
            Field("orderdate", DATE32, nullable=False),
            Field("orderpriority", STRING, nullable=False),
            Field("clerk", STRING, nullable=False),
            Field("shippriority", INT64, nullable=False),
            Field("comment", STRING, nullable=False),
        ]
    )


_MKTSEGMENT = np.array(
    ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], dtype=object
)


def customer_schema() -> Schema:
    return Schema(
        [
            Field("custkey", INT64, nullable=False),
            Field("name", STRING, nullable=False),
            Field("address", STRING, nullable=False),
            Field("nationkey", INT64, nullable=False),
            Field("phone", STRING, nullable=False),
            Field("acctbal", FLOAT64, nullable=False),
            Field("mktsegment", STRING, nullable=False),
            Field("comment", STRING, nullable=False),
        ]
    )


def generate_customer(rows: int, seed: int = 0, start_key: int = 0) -> RecordBatch:
    """``rows`` customers with keys ``start_key+1 .. start_key+rows``.

    ``custkey`` densely covers its range, matching dbgen: every order
    whose ``custkey`` falls inside the generated range resolves to
    exactly one customer.  ``mktsegment`` is uniform over the five spec
    segments, so Q3's ``mktsegment = 'BUILDING'`` keeps ~20% of rows.
    """
    rng = np.random.default_rng(seed + 41 * start_key)

    custkey = np.arange(start_key + 1, start_key + 1 + rows, dtype=np.int64)
    name = np.array([f"Customer#{k:09d}" for k in custkey], dtype=object)
    word_idx = rng.integers(0, len(_COMMENT_WORDS), size=(rows, 2))
    address = _phrases(word_idx)
    nationkey = rng.integers(0, 25, size=rows).astype(np.int64)
    phone = np.array(
        [
            f"{10 + n}-{rng.integers(100, 1000)}-{rng.integers(100, 1000)}-"
            f"{rng.integers(1000, 10000)}"
            for n in nationkey
        ],
        dtype=object,
    )
    acctbal = np.round(-999.99 + rng.random(rows) * (9999.99 + 999.99), 2)
    mktsegment = _MKTSEGMENT[rng.integers(0, len(_MKTSEGMENT), size=rows)]
    word_idx = rng.integers(0, len(_COMMENT_WORDS), size=(rows, 3))
    comment = _phrases(word_idx)

    return RecordBatch(
        customer_schema(),
        [
            ColumnArray(INT64, custkey),
            ColumnArray(STRING, name),
            ColumnArray(STRING, address),
            ColumnArray(INT64, nationkey),
            ColumnArray(STRING, phone),
            ColumnArray(FLOAT64, acctbal),
            ColumnArray(STRING, mktsegment),
            ColumnArray(STRING, comment),
        ],
    )


def generate_orders(rows: int, seed: int = 0, start_key: int = 0) -> RecordBatch:
    """``rows`` orders with keys ``start_key+1 .. start_key+rows``.

    Pair files with :func:`generate_lineitem` using the same offsets
    (``start_key = start_row``) and every lineitem ``orderkey`` resolves
    to exactly one order — dbgen's foreign-key property.  (lineitem uses
    roughly the first quarter of each file's key range, so most orders
    have no line items, which is what makes the reverse dynamic filter
    selective.)
    """
    rng = np.random.default_rng(seed + 37 * start_key)

    orderkey = np.arange(start_key + 1, start_key + 1 + rows, dtype=np.int64)
    custkey = rng.integers(1, 150_001, size=rows).astype(np.int64)
    orderstatus = _ORDERSTATUS[rng.integers(0, len(_ORDERSTATUS), size=rows)]
    totalprice = np.round(901.0 + rng.random(rows) * (555_285.16 - 901.0), 2)
    orderdate = rng.integers(_ORDERDATE_LO, _ORDERDATE_HI - 151, size=rows).astype(
        np.int32
    )
    orderpriority = _ORDERPRIORITY[rng.integers(0, len(_ORDERPRIORITY), size=rows)]
    clerk = _CLERKS[rng.integers(1, 1_001, size=rows)]
    shippriority = np.zeros(rows, dtype=np.int64)
    word_idx = rng.integers(0, len(_COMMENT_WORDS), size=(rows, 3))
    comment = _phrases(word_idx)

    return RecordBatch(
        orders_schema(),
        [
            ColumnArray(INT64, orderkey),
            ColumnArray(INT64, custkey),
            ColumnArray(STRING, orderstatus),
            ColumnArray(FLOAT64, totalprice),
            ColumnArray(DATE32, orderdate),
            ColumnArray(STRING, orderpriority),
            ColumnArray(STRING, clerk),
            ColumnArray(INT64, shippriority),
            ColumnArray(STRING, comment),
        ],
    )
