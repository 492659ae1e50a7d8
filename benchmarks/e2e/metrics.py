"""The benchmark's metric names, units, directions and bounds.

``BENCHMARK.json`` at the repository root carries the same tables; a
self-test keeps the two equal.  Imports nothing, so ``run.py`` can read the
bounds without the program being importable.
"""

from typing import Tuple

__all__ = ["CODECS", "END_TO_END", "HOST_METRICS", "PER_LAYER", "STAGES"]

#: (name, unit, better, regression bound as a share of the parent's median).
#: Bounds were set from the measured spread between ten seeds (README): a
#: third of the bound clears every spread seen.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_pass_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_pass_s", "s", "lower", 0.01),
    ("sim_latency_p50_s", "s", "lower", 0.01),
    ("sim_latency_p95_s", "s", "lower", 0.01),
    ("moved_bytes", "B", "lower", 0.08),
)
HOST_METRICS = ("setup_s", "wall_pass_s", "peak_rss_mb")

STAGES = (
    "logical_plan_analysis", "substrait_generation", "pushdown_and_transfer",
    "presto_execution", "exchange", "others",
)
CODECS = ("none", "snappy", "gzip", "zstd")

#: (name, unit, better).  Every workload reports every name; a layer the
#: workload bypasses reports 0, which is the contrast the README predicts.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sql.parse_ms", "ms", "lower"),
    ("sql.analyze_ms", "ms", "lower"),
    ("sql.calls", "count", "lower"),
    ("rewrite.ms", "ms", "lower"),
    ("rewrite.rules_fired", "count", "higher"),
    ("plan.plan_ms", "ms", "lower"),
    ("plan.optimize_ms", "ms", "lower"),
    ("core.optimize_ms", "ms", "lower"),
    ("core.translate_ms", "ms", "lower"),
    ("core.pushdown_operators", "count", "higher"),
    ("core.sim_analysis_s", "s", "lower"),
    ("core.sim_substrait_s", "s", "lower"),
    ("core.pushdown_speedup_sim", "ratio", "higher"),
    ("core.movement_reduction", "ratio", "higher"),
    ("substrait.serde_ms", "ms", "lower"),
    ("substrait.validate_ms", "ms", "lower"),
    ("substrait.fingerprint_ms", "ms", "lower"),
    ("substrait.plan_bytes", "B", "lower"),
    ("rpc.calls", "count", "lower"),
    ("rpc.payload_bytes", "B", "lower"),
    ("rpc.retries", "count", "lower"),
    ("ocs.execute_ms", "ms", "lower"),
    ("ocs.kernel_ms", "ms", "lower"),
    ("ocs.rows_scanned", "count", "lower"),
    ("ocs.rows_returned", "count", "lower"),
    ("ocs.useful_row_ratio", "ratio", "higher"),
    ("ocs.row_groups_read", "count", "lower"),
    ("ocs.row_groups_pruned", "count", "higher"),
    ("ocs.stored_bytes_read", "B", "lower"),
    ("ocs.sim_storage_busy", "ratio", "lower"),
    ("formats.read_ms", "ms", "lower"),
    ("formats.read_calls", "count", "lower"),
    ("formats.write_ms", "ms", "lower"),
    *((f"formats.stored_bytes_per_raw_byte.{c}", "ratio", "lower") for c in CODECS),
    *((f"compress.compress_ms.{c}", "ms", "lower") for c in CODECS),
    *((f"compress.decompress_ms.{c}", "ms", "lower") for c in CODECS),
    ("compress.bytes_in", "B", "lower"),
    ("compress.bytes_out", "B", "lower"),
    ("arrowsim.serialize_ms", "ms", "lower"),
    ("arrowsim.deserialize_ms", "ms", "lower"),
    ("arrowsim.ipc_bytes", "B", "lower"),
    ("objectstore.get_calls", "count", "lower"),
    ("objectstore.get_bytes", "B", "lower"),
    ("objectstore.put_bytes", "B", "lower"),
    ("metastore.stats_ms", "ms", "lower"),
    ("workloads.generate_ms", "ms", "lower"),
    ("hive.raw_bytes_fetched", "B", "lower"),
    ("hive.fetch_calls", "count", "lower"),
    ("exec.run_operators_ms", "ms", "lower"),
    ("exec.aggregate_ms", "ms", "lower"),
    ("exec.hashjoin_ms", "ms", "lower"),
    ("exec.rows_into_filter", "count", "lower"),
    ("exec.rows_into_aggregate", "count", "lower"),
    ("exec.rows_into_hashjoin", "count", "lower"),
    ("exchange.partition_ms", "ms", "lower"),
    ("exchange.page_codec_ms", "ms", "lower"),
    ("exchange.dynamic_filter_build_ms", "ms", "lower"),
    ("exchange.bytes", "B", "lower"),
    ("exchange.pages", "count", "lower"),
    ("exchange.dynamic_rows_pruned", "count", "higher"),
    ("exchange.dynamic_useful_ratio", "ratio", "higher"),
    ("engine.execute_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.splits", "count", "lower"),
    *((f"engine.sim_stage_s.{stage}", "s", "lower") for stage in STAGES),
    ("engine.op_wall_ms_p95", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("sim.wall_us_per_event", "us", "lower"),
    ("cache.result_hits", "count", "higher"),
    ("cache.split_hits", "count", "higher"),
    ("cache.page_hits", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.stale_drops", "count", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("service.completed", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.queue_wait_s_mean", "s", "lower"),
    ("service.exec_s_mean", "s", "lower"),
    ("service.sim_p95_s.r_lo", "s", "lower"),
    ("service.sim_p95_s.r_hi", "s", "lower"),
    ("service.rejected.r_hi", "count", "lower"),
    ("service.max_rate_within_slo_qps", "1/s", "higher"),
    ("trace.start_end_ms", "ms", "lower"),
    ("trace.assemble_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("setup.generate_ms", "ms", "lower"),
    ("setup.write_ms", "ms", "lower"),
    ("setup.compress_ms", "ms", "lower"),
    ("setup.stats_ms", "ms", "lower"),
    ("setup.put_bytes", "B", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.wall_over_cpu", "ratio", "lower"),
    ("bench.passes", "count", "higher"),
    ("bench.disturbed_passes", "count", "lower"),
    ("bench.fail_ratio", "ratio", "lower"),
)
