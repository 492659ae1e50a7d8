"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.env` wires datasets + cluster + connectors into
one-call query runs and :mod:`repro.bench.report` formats tables; those
two are all this package imports, because the query path
(``repro.client``, ``repro.service``) imports it too.

Everything that *measures* — the paper's ``figure5`` / ``figure6`` /
``table2`` / ``table3`` (DESIGN.md's experiment index) and the extension
benches — is a suite in :mod:`repro.bench.registry`, which also says
where a new one goes; ``python -m repro.bench <suite>`` and the per-PR
gate (:mod:`repro.bench.snapshot`) are loops over it.
"""

from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_table

__all__ = ["Environment", "RunConfig", "format_table"]
