"""repro — reproduction of "Integrating Distributed SQL Query Engines with
Object-Based Computational Storage" (SC Workshops '25).

Subpackages
-----------
``repro.sim``
    Discrete-event simulator standing in for the paper's 3-node testbed.
``repro.compress`` / ``repro.formats`` / ``repro.arrowsim``
    Storage substrates: codecs, the Parcel columnar container, and the
    Arrow-class columnar transport.
``repro.sql`` / ``repro.plan`` / ``repro.exec``
    SQL front end, logical planner/optimizer, vectorized operators.
``repro.substrait`` / ``repro.rpc``
    Cross-system plan IR and the gRPC-class transport.
``repro.objectstore`` / ``repro.metastore`` / ``repro.ocs``
    S3-class object store, catalog service, and the
    OCS computational storage system (frontend + storage nodes).
``repro.engine`` / ``repro.connectors`` / ``repro.core``
    The Presto-class distributed engine, its connector SPI, the
    Hive-class connector, and — the paper's contribution — the
    Presto-OCS connector (``repro.core``).
``repro.workloads`` / ``repro.bench``
    Laghos / Deep Water / TPC-H generators and the experiment harness
    regenerating every table and figure.
"""

__version__ = "1.0.0"


def __getattr__(name: str):
    """Lazy convenience re-exports of the high-level experiment API.

    ``repro.Environment`` / ``repro.RunConfig`` / ``repro.DatasetSpec`` /
    ``repro.PushdownPolicy`` cover the README quickstart without forcing
    every import of :mod:`repro` to pull the whole engine in.
    """
    if name in ("connect", "Client"):
        from repro import client as _client

        return getattr(_client, name)
    if name in ("Environment", "RunConfig"):
        from repro.bench import env as _env

        return getattr(_env, name)
    if name == "DatasetSpec":
        from repro.workloads.datasets import DatasetSpec

        return DatasetSpec
    if name == "PushdownPolicy":
        from repro.core.optimizer import PushdownPolicy

        return PushdownPolicy
    if name == "ServiceSpec":
        from repro.config import ServiceSpec

        return ServiceSpec
    if name in ("QueryService", "QueryHandle", "QueryTemplate"):
        from repro import service as _service

        return getattr(_service, name)
    if name in ("Stage", "StageGraph", "DagScheduler", "SchedulerSpec"):
        from repro import engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "Client",
    "DagScheduler",
    "DatasetSpec",
    "Environment",
    "PushdownPolicy",
    "QueryHandle",
    "QueryService",
    "QueryTemplate",
    "RunConfig",
    "SchedulerSpec",
    "ServiceSpec",
    "Stage",
    "StageGraph",
    "__version__",
    "connect",
]
