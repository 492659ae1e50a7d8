"""Table 3: execution-time breakdown for a single-file Laghos query.

The paper profiles one query over one Parquet file with full pushdown and
attributes wall time to five stages; the connector-added stages (plan
analysis + Substrait generation) must stay ~2% combined:

    Logical Plan Analysis            1 ms    0.06 %
    Substrait IR Generation         33 ms    1.94 %
    Pushdown & Result Transfer     682 ms   40.12 %
    Presto Execution (Post-Scan)   814 ms   47.90 %
    Others                         169 ms    9.97 %
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_table
from repro.bench.scales import SCALES
from repro.engine.stages import (
    STAGE_ANALYSIS,
    STAGE_EXECUTION,
    STAGE_OTHERS,
    STAGE_SUBSTRAIT,
    STAGE_TRANSFER,
)
from repro.errors import ConfigError, TraceError
from repro.trace import Trace, stage_totals, write_chrome_trace
from repro.workloads import LAGHOS_QUERY, laghos_spec

__all__ = ["PAPER_SHARES", "check_trace", "render", "run", "run_table3"]

PAPER_SHARES: Dict[str, float] = {
    STAGE_ANALYSIS: 0.0006,
    STAGE_SUBSTRAIT: 0.0194,
    STAGE_TRANSFER: 0.4012,
    STAGE_EXECUTION: 0.4790,
    STAGE_OTHERS: 0.0997,
}

#: Table 3's rows, in the paper's order.
STAGE_TITLES = {
    STAGE_ANALYSIS: "Logical Plan Analysis",
    STAGE_SUBSTRAIT: "Substrait IR Generation",
    STAGE_TRANSFER: "Pushdown & Result Transfer",
    STAGE_EXECUTION: "Presto Execution (Post-Scan)",
    STAGE_OTHERS: "Others",
}


@dataclass(frozen=True)
class Table3Result:
    rows: int
    total_seconds: float
    stage_seconds: Dict[str, float]
    #: Span tree of the run; only populated by ``run_table3(trace=True)``.
    trace: Optional[Trace] = None

    def share(self, stage: str) -> float:
        total = sum(self.stage_seconds.values())
        return self.stage_seconds.get(stage, 0.0) / total if total else 0.0

    def to_doc(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "total_s": self.total_seconds,
            "stage_seconds": dict(sorted(self.stage_seconds.items())),
        }


def run_table3(rows: int = 524288, trace: bool = False) -> Table3Result:
    """One query over one Laghos file with filter + aggregation pushdown."""
    env = Environment()
    env.add_dataset(laghos_spec(1, rows, 5, row_group_rows=max(2048, rows // 4)))
    # Filter + aggregation pushdown (no top-N): on a single file every
    # vertex_id is distinct, so the aggregation returns one row per input
    # row — which is what makes the paper's "Pushdown & Result Transfer"
    # (40%) and "Presto Execution (Post-Scan)" (48%) stages substantial.
    config = RunConfig.ocs("filter+agg", "filter", "aggregate")
    if trace:
        config = dataclasses.replace(config, tracing=True)
    result = env.run(LAGHOS_QUERY, config, schema="hpc")
    return Table3Result(
        rows=rows,
        total_seconds=result.execution_seconds,
        stage_seconds=dict(result.stage_seconds),
        trace=result.trace,
    )


def check_trace(result: Table3Result, tolerance: float = 1e-9) -> Dict[str, float]:
    """Assert the Table 3 stage totals are re-derivable from the span tree.

    Returns the span-derived per-stage seconds; raises
    :class:`~repro.errors.TraceError` if the run carries no trace or if
    any stage total disagrees with the coordinator's StageTimer beyond
    ``tolerance`` seconds.
    """
    if result.trace is None:
        raise TraceError("run_table3 was called without trace=True")
    result.trace.validate()
    derived = stage_totals(result.trace, elapsed=result.total_seconds)
    stages = set(result.stage_seconds) | set(derived)
    for stage in sorted(stages):
        want = result.stage_seconds.get(stage, 0.0)
        got = derived.get(stage, 0.0)
        if abs(want - got) > tolerance:
            raise TraceError(
                f"stage {stage!r}: span-derived {got:.9f}s disagrees with "
                f"StageTimer {want:.9f}s (tolerance {tolerance:g}s)"
            )
    return derived


def run(
    scale: str, trace: bool = False, trace_out: Optional[str] = None
) -> Dict[str, Any]:
    if trace_out and not trace:
        raise ConfigError("--trace-out requires --trace")
    result = run_table3(SCALES["table3"][scale], trace=trace)
    doc = result.to_doc()
    if result.trace is not None:
        check_trace(result)
        doc["trace"] = {"spans": len(result.trace.spans), "out": trace_out}
        if trace_out:
            write_chrome_trace(result.trace, trace_out)
    return doc


def render(doc: Dict[str, Any]) -> str:
    stage_seconds = doc["stage_seconds"]
    total = sum(stage_seconds.values())
    share = {stage: seconds / total for stage, seconds in stage_seconds.items()}
    rows: List[List[object]] = []
    for stage, title in STAGE_TITLES.items():
        rows.append(
            [
                title,
                f"{stage_seconds.get(stage, 0.0) * 1e3:.1f} ms",
                f"{share.get(stage, 0.0) * 100:.2f}%",
                f"{PAPER_SHARES[stage] * 100:.2f}%",
            ]
        )
    rows.append(["Total", f"{doc['total_s'] * 1e3:.1f} ms", "100.00%", "100.00%"])
    connector_overhead = share.get(STAGE_ANALYSIS, 0.0) + share.get(STAGE_SUBSTRAIT, 0.0)
    text = (
        "Table 3 (single-file query breakdown)\n"
        + format_table(["stage", "time", "share", "paper share"], rows)
        + f"\nconnector-added overhead (analysis + IR generation): "
        f"{connector_overhead * 100:.2f}% (paper: 2.00%, must stay small)"
    )
    trace = doc.get("trace")
    if trace:
        text += (
            f"\n\ntrace: {trace['spans']} spans; per-stage totals "
            f"re-derived from the span tree match the table above."
        )
        if trace["out"]:
            text += f"\ntrace: Chrome tracing JSON written to {trace['out']}"
    return text
