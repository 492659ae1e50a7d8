"""Unit tests for the per-PR benchmark snapshot regression gate."""

import copy
import json
import pathlib

import pytest

from repro.bench.kernels import MIN_WALL_SPEEDUP
from repro.bench.snapshot import compare

COMMITTED = json.loads(
    (pathlib.Path(__file__).parent.parent / "BENCH_23.json").read_text()
)


def _doc(**overrides):
    doc = {
        "snapshot": 6,
        "kernels": {
            "tree_wall_s": 0.004,
            "fused_wall_s": 0.002,
            "wall_speedup": 2.0,
            "micro_digest": "abc",
            "sim": {
                "ocs": {
                    "rows": 100,
                    "sim_s": 0.19,
                    "bytes_moved": 1000,
                    "digest": "abc",
                }
            },
            "formats": {
                "files": {"part-00000": {"stored_bytes": 900, "sha256_digest": "f0"}},
                "encode_wall_s": 0.010,
                "decode_wall_s": 0.002,
                # Hand-recorded in the committed file only; a fresh run has none.
                "parent": {"encode_wall_s": 0.025, "decode_wall_s": 0.002},
            },
        },
        "table3": {"rows": 1, "total_s": 0.25},
        "join": {"configs": {"dynamic-filter": {"seconds": 0.2, "moved_bytes": 500}}},
        "service": {"makespan_s": 0.4, "digest": "svc"},
    }
    doc.update(overrides)
    return doc


class TestCompare:
    def test_identical_snapshots_pass(self):
        assert compare(_doc(), _doc()) == []

    def test_small_improvement_passes(self):
        current = _doc()
        current["table3"]["total_s"] = 0.20
        assert compare(_doc(), current) == []

    def test_sim_time_regression_fails(self):
        current = _doc()
        current["table3"] = {"rows": 1, "total_s": 0.30}
        violations = compare(_doc(), current)
        assert any("table3.total_s" in v for v in violations)

    def test_bytes_regression_fails(self):
        current = _doc()
        current["join"]["configs"]["dynamic-filter"]["moved_bytes"] = 600
        violations = compare(_doc(), current)
        assert any("moved_bytes" in v for v in violations)

    def test_within_tolerance_passes(self):
        current = _doc()
        current["table3"]["total_s"] = 0.25 * 1.05  # +5% < 10% tolerance
        assert compare(_doc(), current) == []

    def test_digest_change_fails(self):
        current = _doc()
        current["service"]["digest"] = "other"
        violations = compare(_doc(), current)
        assert any("service.digest" in v for v in violations)

    def test_missing_metric_fails(self):
        current = _doc()
        del current["table3"]
        violations = compare(_doc(), current)
        assert any("missing" in v for v in violations)

    def test_wall_speedup_floor(self):
        current = _doc()
        current["kernels"]["wall_speedup"] = MIN_WALL_SPEEDUP - 0.1
        violations = compare(_doc(), current)
        assert any("kernels.wall_speedup" in v for v in violations)

    def test_wall_clock_absolutes_not_gated(self):
        # Raw wall-clock seconds are machine-dependent; only the
        # same-machine speedup ratio is gated.
        current = _doc()
        current["kernels"]["tree_wall_s"] = 0.4
        current["kernels"]["fused_wall_s"] = 0.2
        assert compare(_doc(), current) == []

    def test_format_wall_seconds_not_gated_but_file_digests_are(self):
        current = _doc()
        current["kernels"]["formats"]["encode_wall_s"] = 1.0
        current["kernels"]["formats"]["decode_wall_s"] = 1.0
        del current["kernels"]["formats"]["parent"]
        assert compare(_doc(), current) == []
        current["kernels"]["formats"]["files"]["part-00000"]["sha256_digest"] = "0f"
        violations = compare(_doc(), current)
        assert any("part-00000.sha256_digest" in v for v in violations)


def _set(doc, path, change):
    *parents, leaf = path.split("/")
    for key in parents:
        doc = doc[key]
    doc[leaf] = change(doc[leaf])


class TestDeclaredGates:
    """The gate gates what the suites print: every case here passed
    ``compare`` unnoticed while it guessed from ``_s`` / ``_bytes`` /
    ``.seconds`` suffixes and hand-written dag/cache/rewrite blocks."""

    def test_committed_snapshot_is_clean_against_itself(self):
        assert compare(COMMITTED, COMMITTED) == []

    @pytest.mark.parametrize(
        "path,change,expected",
        [
            # A boolean invariant of a suite that had no hand-written block.
            ("join/identical", lambda v: False, "join.identical"),
            # A byte count whose name does not end in ``_bytes``.
            ("kernels/sim/ocs/bytes_moved", lambda v: v * 10, "kernels.sim.ocs.bytes_moved"),
            # Seconds one level below a name that does not end in ``_s``.
            ("table3/stage_seconds/others", lambda v: v * 10, "table3.stage_seconds.others"),
            # The old blocks' cases still fail, now by declaration.
            ("dag/replay_identical", lambda v: False, "dag.replay_identical"),
            ("cache/p99_improves", lambda v: False, "cache.p99_improves"),
            ("rewrite/semi_moves_fewer_bytes", lambda v: False, "rewrite.semi_moves_fewer_bytes"),
            ("cache/levels/r0.9/p99_s", lambda v: v * 2, "cache.levels.r0.9.p99_s"),
        ],
    )
    def test_mutating_one_declared_path_fails(self, path, change, expected):
        current = copy.deepcopy(COMMITTED)
        _set(current, path, change)
        violations = compare(COMMITTED, current)
        assert len(violations) == 1 and expected in violations[0], violations

    def test_dropping_a_published_invariant_fails(self):
        current = copy.deepcopy(COMMITTED)
        del current["join"]["identical"]
        assert any("join.identical" in v for v in compare(COMMITTED, current))

    def test_invariant_published_only_by_the_fresh_doc_binds(self):
        # A baseline older than ``dag.p99_improves`` has no value for it,
        # but a fresh doc that publishes it false must still fail.
        baseline = copy.deepcopy(COMMITTED)
        del baseline["dag"]["p99_improves"]
        current = copy.deepcopy(COMMITTED)
        current["dag"]["p99_improves"] = False
        assert any("dag.p99_improves" in v for v in compare(baseline, current))
