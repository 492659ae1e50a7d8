"""Workload generators reproducing the paper's three datasets.

The real datasets (LANL Laghos and Deep Water Impact dumps, TPC-H dbgen
output) are not redistributable here, so each generator synthesizes data
with the *query-relevant* structure preserved — schemas, value ranges,
and above all the selectivities of Table 2, which drive every data-
movement number in the evaluation:

* :mod:`~repro.workloads.laghos` — fluid-dynamics mesh snapshots;
  ``x,y,z BETWEEN 0.8 AND 3.2`` keeps ~21% of rows (paper: 24 GB ->
  5.1 GB) and GROUP BY vertex_id yields one group per mesh vertex.
* :mod:`~repro.workloads.deepwater` — asteroid-impact timesteps;
  ``v02 > 0.1`` keeps ~18% of rows (paper: 30 GB -> 5.37 GB) and GROUP
  BY timestep yields one group per file.
* :mod:`~repro.workloads.tpch` — from-scratch ``lineitem`` and
  ``orders`` dbgen following the TPC-H spec's distributions; Q1
  aggregates to exactly 4 (returnflag, linestatus) groups, and the
  Q3-/Q12-class join queries drive the distributed exchange.

Row counts scale down from the paper's (the simulator's cost model works
on the actual bytes, and selectivity — hence every ratio — is scale-
invariant).
"""

from repro.workloads.laghos import (
    LAGHOS_QUERY,
    LAGHOS_QUERY_ORIGINAL,
    generate_laghos_file,
    laghos_schema,
)
from repro.workloads.deepwater import (
    DEEPWATER_QUERY,
    deepwater_schema,
    generate_deepwater_file,
)
from repro.workloads.tpch import (
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q6,
    TPCH_Q12,
    TPCH_Q18,
    customer_schema,
    generate_customer,
    generate_lineitem,
    generate_orders,
    lineitem_schema,
    orders_schema,
)
from repro.workloads.datasets import (
    DatasetSpec,
    build_dataset,
    customer_spec,
    deepwater_spec,
    laghos_spec,
    lineitem_spec,
    orders_spec,
)

__all__ = [
    "DEEPWATER_QUERY",
    "DatasetSpec",
    "LAGHOS_QUERY",
    "LAGHOS_QUERY_ORIGINAL",
    "TPCH_Q1",
    "TPCH_Q12",
    "TPCH_Q18",
    "TPCH_Q3",
    "TPCH_Q3_FULL",
    "TPCH_Q4",
    "TPCH_Q6",
    "build_dataset",
    "customer_schema",
    "customer_spec",
    "deepwater_schema",
    "deepwater_spec",
    "generate_customer",
    "generate_deepwater_file",
    "generate_laghos_file",
    "generate_lineitem",
    "generate_orders",
    "laghos_schema",
    "laghos_spec",
    "lineitem_schema",
    "lineitem_spec",
    "orders_schema",
    "orders_spec",
]
