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
from repro.trace import Trace, write_chrome_trace
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
    result = env.run(LAGHOS_QUERY, config, schema="hpc")
    return Table3Result(
        rows=rows,
        total_seconds=result.execution_seconds,
        stage_seconds=dict(result.stage_seconds),
        trace=result.trace if trace else None,
    )


def check_trace(result: Table3Result, tolerance: float = 1e-9) -> None:
    """Assert the span tree is well formed and its stages partition the run.

    ``stage_seconds`` *is* the span-derived breakdown, so the check is
    structural: :meth:`~repro.trace.Trace.validate`, then the stage
    totals summing to ``total_seconds`` within ``tolerance`` seconds.
    Raises :class:`~repro.errors.TraceError` otherwise, or when the run
    carries no trace.
    """
    if result.trace is None:
        raise TraceError("run_table3 was called without trace=True")
    result.trace.validate()
    total = sum(result.stage_seconds.values())
    if abs(total - result.total_seconds) > tolerance:
        raise TraceError(
            f"stage totals {total:.9f}s do not partition the run's "
            f"{result.total_seconds:.9f}s (tolerance {tolerance:g}s)"
        )


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
