"""Session-scoped environments for the benchmark suite.

Dataset generation and Parcel encoding are paid once per session; each
benchmarked query run constructs a fresh simulated cluster (that
construction is part of what a query costs, so it stays inside the
measured function).
"""

import pytest

from repro.bench.env import Environment, paper_environment
from repro.bench.scales import SCALES


@pytest.fixture(scope="session")
def figure5_env() -> Environment:
    """All three evaluation datasets at bench scale."""
    return paper_environment(SCALES["figure5"]["small"])


@pytest.fixture(scope="session")
def codec_envs() -> dict:
    """Deep Water re-encoded under each codec (Figure 6)."""
    return {
        codec: paper_environment(SCALES["figure6"]["small"], codec=codec)
        for codec in ("none", "snappy", "gzip", "zstd")
    }
