"""Smoke tests for the experiment harness (report formatting + runners)."""

import dataclasses
import json

import pytest

from repro.bench import Environment, RunConfig, format_table, table2, table3
from repro.bench.cli import COMMANDS, main
from repro.bench.env import paper_environment
from repro.bench.figure5 import FIGURE5_SPECS, format_panel, run_figure5
from repro.bench.registry import SUITES, select
from repro.bench.report import format_bytes, format_seconds
from repro.bench.scales import SCALES
from repro.bench.table2 import PAPER_PLANS, run_table2
from repro.bench.table3 import run_table3
from repro.errors import ConfigError
from repro.workloads import DatasetSpec, generate_laghos_file


class TestReportFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(5.1e9) == "5.10 GB"
        assert format_bytes(2.5e6) == "2.50 MB"
        assert format_bytes(1.5e3) == "1.50 KB"
        assert format_bytes(12) == "12 B"

    def test_format_seconds_units(self):
        assert format_seconds(450) == "450 s"
        assert format_seconds(2.21) == "2.21 s"
        assert format_seconds(0.033) == "33.0 ms"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", "1.5"], ["b", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        # Numeric cells right-align.
        assert lines[2].split("|")[2].rstrip().endswith("1.5")


class TestEnvironment:
    def test_unknown_mode_rejected(self):
        # Bad modes now fail at construction with a typed, machine-readable
        # ConfigError (a ValueError subclass) instead of mid-run.
        with pytest.raises(ConfigError):
            RunConfig(label="x", mode="teleport")
        with pytest.raises(ConfigError):
            RunConfig(label="x", mode="ocs", split_granularity="shard")
        with pytest.raises(ConfigError):
            RunConfig(label="", mode="ocs")
        assert ConfigError.code == "INVALID_CONFIG"

    def test_named_constructors(self):
        assert RunConfig.none().mode == "hive-raw"
        assert not RunConfig.none().prune_columns
        assert RunConfig.filter_only().policy.enabled == {"filter"}
        cfg = RunConfig.ocs("x", "filter", "aggregate")
        assert cfg.policy.enabled == {"filter", "aggregate"}


class TestHarnessRunners:
    @pytest.fixture(scope="class")
    def tiny_env(self):
        env = Environment()
        env.add_dataset(
            DatasetSpec(
                "hpc", "laghos", "data", 2,
                lambda i: generate_laghos_file(2048, i, seed=1), row_group_rows=512,
            )
        )
        return env

    def test_run_figure5_panel(self, tiny_env):
        points = run_figure5(tiny_env, "laghos")
        assert [p["label"] for p in points] == [
            "none", "filter", "+aggregation", "+topn",
        ]
        # Movement strictly decreases down the ladder.
        moved = [p["moved_bytes"] for p in points]
        assert moved == sorted(moved, reverse=True)
        text = format_panel("laghos", points)
        assert "paper speedup" in text

    def test_build_environment_selective(self):
        env = paper_environment({"tpch": SCALES["figure5"]["small"]["tpch"]})
        assert env.metastore.has_table("tpch", "lineitem")
        assert not env.metastore.has_table("hpc", "laghos")

    def test_table2_runner(self):
        env = paper_environment(SCALES["table2"]["small"])
        rows = run_table2(env)
        assert len(rows) == 3
        for row in rows:
            assert row["plan_chain"] == PAPER_PLANS[row["dataset"]]
            assert 0 < row["selectivity"] < 0.05
        assert "plan match" in table2.render({"rows": rows})

    def test_table3_runner(self):
        result = run_table3(rows=4096)
        assert result.total_seconds > 0
        shares = [result.share(s) for s in result.stage_seconds]
        assert sum(shares) == pytest.approx(1.0)
        text = table3.render(result.to_doc())
        assert "connector-added overhead" in text

    def test_figure5_specs_reference_numbers(self):
        # The paper's headline points are encoded in the spec table.
        laghos = FIGURE5_SPECS["laghos"]["configs"]
        assert laghos[0][1] == 2710.0 and laghos[-1][1] == 450.0
        tpch = FIGURE5_SPECS["tpch"]["configs"]
        assert tpch[1][1] / tpch[-1][1] == pytest.approx(4.07, abs=0.01)


class TestStageAttribution:
    def test_concurrent_splits_do_not_double_charge(self):
        # Multiple file-granularity splits scan concurrently; per-split
        # wall-clock charging used to make the stage sum exceed the
        # query's elapsed time.  Window-union accounting (plus the final
        # normalization) keeps Table 3 a partition of the wall time.
        import dataclasses

        from repro.sim.costmodel import DEFAULT_COSTS

        env = Environment(
            costs=dataclasses.replace(DEFAULT_COSTS, scan_stream_concurrency=4)
        )
        env.add_dataset(
            DatasetSpec(
                "hpc", "laghos", "d", 4,
                lambda i: generate_laghos_file(2048, i, seed=1),
                row_group_rows=512,
            )
        )
        config = RunConfig(
            label="x", mode="ocs", split_granularity="file",
        )
        result = env.run(
            "SELECT count(*) AS n, avg(x) AS m FROM laghos WHERE x > 2.0",
            config, schema="hpc",
        )
        assert result.splits > 1
        total = sum(result.stage_seconds.values())
        assert total <= result.execution_seconds * (1 + 1e-9)
        assert all(v >= 0 for v in result.stage_seconds.values())
        # ...and the accounting still covers essentially all of the run.
        assert total >= result.execution_seconds * 0.5


class TestRegistry:
    def test_every_default_scale_is_one_of_the_suites_scales(self):
        assert set(SUITES) < set(COMMANDS)  # plus ``all`` and ``snapshot``
        for name, suite in COMMANDS.items():
            assert suite.name == name
            assert suite.scales, name
            assert suite.default_scale in suite.scales, name

    def test_every_scale_row_belongs_to_a_suite(self):
        assert set(SCALES) == set(COMMANDS)

    def test_gated_suites_share_the_snapshot_scale(self):
        for suite in SUITES.values():
            if suite.gate is not None:
                assert set(COMMANDS["snapshot"].scales) <= set(suite.scales)

    def test_declared_gate_paths_exist_in_the_doc(self):
        suite = SUITES["join"]
        doc = suite.run(suite.scales[0])
        gate = suite.gate
        for pattern in (*gate.lower, *gate.invariants, *gate.digests):
            assert select(doc, [pattern]), pattern
        # ``*`` fans out: one path per join configuration.
        assert len(select(doc, ["configs.*.seconds"])) == 3
        json.dumps(doc)  # the doc is the snapshot section: JSON-able


class TestCli:
    def test_stdout_is_exactly_render_of_run(self, capsys):
        assert main(["join", "--scale", "smoke", "--seed", "0"]) == 0
        suite = SUITES["join"]
        assert capsys.readouterr().out == suite.render(suite.run("smoke", seed=0)) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport"],  # unknown suite
            ["join", "--scale", "small"],  # another suite's scale name
            ["table2", "--seed", "1"],  # a flag the suite does not declare
            ["kernels", "--json", "out.json"],  # one of the dropped flags
            ["table3", "--trace-out", "t3.json"],  # rejected by the suite itself
            ["snapshot"],  # nothing to do
        ],
    )
    def test_usage_errors_exit_2_from_the_one_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: python -m repro.bench" in capsys.readouterr().err

    def test_help_names_every_registered_suite(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for name in COMMANDS:
            assert name in text

    def test_suite_flags_reach_the_suite(self, capsys):
        # Both spellings exited 2 before: the flags existed only on the
        # per-module entry points (``python -m repro.bench.figure5``).
        assert main(["figure5", "--dataset", "laghos"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5 (laghos)" in out and "Figure 5 (tpch)" not in out
        assert main(["table3", "--scale", "smoke", "--trace"]) == 0
        assert "re-derived from the span tree" in capsys.readouterr().out

    def test_false_invariant_sets_the_exit_status(self, capsys, monkeypatch):
        broken = dataclasses.replace(
            SUITES["join"], run=lambda **flags: {"identical": False}, render=str
        )
        monkeypatch.setitem(COMMANDS, "join", broken)
        assert main(["join"]) == 1
