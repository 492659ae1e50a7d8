"""Storage connectors for the Presto-class engine.

* :mod:`repro.connectors.hive` — the Hive-class connector: the
  conventional access path (raw ranged GETs, no pushdown).  Its ceiling is exactly the paper's
  Section 2.4 complaint: no aggregation or top-N offload.
* :mod:`repro.core` — the Presto-OCS connector, the paper's contribution
  (it lives in ``core`` because it is the primary artifact, not just
  another connector).
"""

from repro.connectors.hive import HiveConnector

__all__ = ["HiveConnector"]
