"""Compression x pushdown: the Figure 6 study at example scale (paper Q3).

Re-encodes the Deep Water dataset under each lossless codec and compares
filter-only vs all-operator pushdown, reproducing the paper's finding
that compression and advanced pushdown are complementary.

Each codec gets its own pre-built environment, so this example wraps
them in :class:`repro.client.Client` directly instead of ``connect()``.

    python examples/compression_study.py
"""

from repro import Client, RunConfig
from repro.bench import format_table
from repro.bench.env import paper_environment
from repro.bench.report import format_bytes, format_seconds
from repro.bench.scales import SCALES
from repro.workloads import DEEPWATER_QUERY


def main() -> None:
    rows = []
    for codec in ("none", "snappy", "gzip", "zstd"):
        environment = paper_environment(SCALES["figure6"]["small"], codec=codec)
        client = Client(environment=environment)
        descriptor = client.environment.metastore.get_table("hpc", "deepwater")
        filter_only = client.execute(
            DEEPWATER_QUERY, RunConfig.filter_only(), schema="hpc"
        )
        all_op = client.execute(
            DEEPWATER_QUERY,
            RunConfig.ocs("all-op", "filter", "project", "aggregate"),
            schema="hpc",
        )
        rows.append(
            [
                codec,
                format_bytes(client.dataset_bytes(descriptor)),
                format_seconds(filter_only.execution_seconds),
                format_seconds(all_op.execution_seconds),
                f"{filter_only.execution_seconds / all_op.execution_seconds:.2f}x",
            ]
        )
    print(format_table(
        ["codec", "stored size", "filter-only", "all-operator", "all-op speedup"],
        rows,
    ))
    print(
        "\npaper (30 GB testbed): within-codec all-operator speedups of "
        "1.22x (none), 1.37x (snappy), 1.39x (gzip), 1.36x (zstd); "
        "compression reduces time in both configurations."
    )


if __name__ == "__main__":
    main()
