"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for command in ("fig4", "fig6", "overhead", "baselines"):
            args = build_parser().parse_args([command])
            assert args.command == command
            assert args.samples > 0

    def test_run_command(self):
        args = build_parser().parse_args(
            ["run", "paper/fig4-module4", "--samples", "24"]
        )
        assert args.command == "run"
        assert args.scenario == "paper/fig4-module4"
        assert args.samples == 24
        assert args.seed is None

    def test_list_scenarios_command(self):
        args = build_parser().parse_args(["list-scenarios"])
        assert args.command == "list-scenarios"

    def test_train_commands(self):
        args = build_parser().parse_args(
            ["train", "warm", "paper/fig4-module4", "--map-cache", "x/maps",
             "--stats"]
        )
        assert args.command == "train"
        assert args.train_command == "warm"
        assert args.map_cache == "x/maps"
        assert args.stats is True
        for sub in ("list", "clear"):
            args = build_parser().parse_args(["train", sub])
            assert args.train_command == sub

    def test_run_map_cache_flag(self):
        args = build_parser().parse_args(
            ["run", "paper/fig4-module4", "--map-cache", "x/maps"]
        )
        assert args.map_cache == "x/maps"

    def test_run_json_flag(self):
        args = build_parser().parse_args(["run", "paper/fig4-module4", "--json"])
        assert args.json is True

    def test_sweep_run_command(self):
        args = build_parser().parse_args(
            ["sweep", "run", "module-showdown", "--workers", "2",
             "--out", "out/x", "--samples", "8"]
        )
        assert (args.command, args.sweep_command) == ("sweep", "run")
        assert args.sweep == "module-showdown"
        assert (args.workers, args.out, args.samples) == (2, "out/x", 8)

    def test_sweep_run_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run", "module-showdown"])

    def test_sweep_report_command(self):
        args = build_parser().parse_args(
            ["sweep", "report", "out/x", "--json", "--group-by", "plant.m,seed"]
        )
        assert args.sweep_command == "report"
        assert args.dir == "out/x"
        assert args.json is True
        assert args.group_by == "plant.m,seed"

    def test_overrides(self):
        args = build_parser().parse_args(["fig4", "--samples", "24", "--seed", "9"])
        assert args.samples == 24
        assert args.seed == 9

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_fig4_smoke(self, capsys):
        assert main(["fig4", "--samples", "24"]) == 0
        out = capsys.readouterr().out
        assert "computers on" in out
        assert "mean r" in out

    def test_overhead_smoke(self, capsys):
        assert main(["overhead", "--samples", "12"]) == 0
        out = capsys.readouterr().out
        assert "L1 states/period" in out

    def test_list_scenarios_smoke(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper/fig4-module4" in out
        assert "paper/fig6-cluster16" in out
        assert "cluster-baseline-showdown" in out

    def test_run_scenario_smoke(self, capsys):
        assert main(["run", "cluster-baseline-showdown", "--samples", "12"]) == 0
        out = capsys.readouterr().out
        assert "cluster-baseline-showdown" in out
        assert "mean r" in out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "paper/fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "paper/fig4-module4" in err  # suggests the registered names

    def test_train_warm_without_any_cache_dir_fails_cleanly(
        self, capsys, monkeypatch
    ):
        # Runs resolve --map-cache > control.map_cache > $REPRO_MAP_CACHE,
        # so a warm pass with none of the three would never be read.
        from repro.maps.cache import CACHE_ENV_VAR

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert main(["train", "warm", "paper/fig4-module4"]) == 2
        err = capsys.readouterr().err
        assert "no cache directory to warm" in err

    def test_train_list_and_clear_smoke(self, tmp_path, capsys):
        assert main(["train", "list", "--map-cache", str(tmp_path)]) == 0
        assert "no artifacts" in capsys.readouterr().out
        assert main(["train", "clear", "--map-cache", str(tmp_path)]) == 0
        assert "removed 0 artifact(s)" in capsys.readouterr().out

    def test_run_bad_samples_fails_cleanly(self, capsys):
        assert main(["run", "paper/fig4-module4", "--samples", "0"]) == 2
        assert "workload.samples" in capsys.readouterr().err

    def test_run_json_emits_summary(self, capsys):
        import json

        assert main(
            ["run", "module-baseline-threshold-dvfs", "--samples", "10", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "module-baseline-threshold-dvfs"
        assert payload["summary"]["total_energy"] > 0
        assert "mean_response" in payload["summary"]

    def test_list_scenarios_sorted_one_line_each(self, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert all("\t" not in line for line in lines)

    def test_sweep_list_smoke(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "module-showdown" in out
        assert "[16 runs]" in out

    def test_sweep_run_and_report_smoke(self, tmp_path, capsys):
        out_dir = str(tmp_path / "store")
        assert main(
            ["sweep", "run", "module-seeds", "--samples", "6",
             "--out", out_dir]
        ) == 0
        table = capsys.readouterr().out
        assert "mean_response" in table
        assert main(["sweep", "report", out_dir]) == 0
        assert capsys.readouterr().out.strip() in table
        assert main(["sweep", "report", out_dir, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "module-seeds"
        assert payload["groups"][0]["count"] == 8

    def test_sweep_run_spec_file(self, tmp_path, capsys):
        from repro.scenario import Scenario
        from repro.sweep import GridAxis, SweepSpec

        sweep = SweepSpec(
            name="from-file",
            base=(
                Scenario.module(m=4)
                .workload("synthetic", samples=6)
                .baseline("threshold-dvfs")
                .build()
            ),
            axes=(GridAxis(field="seed", values=(0, 1)),),
        )
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(sweep.to_json())
        out_dir = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--out", out_dir]) == 0
        assert "mean_response" in capsys.readouterr().out

    def test_sweep_missing_spec_file_fails_cleanly(self, capsys):
        assert main(["sweep", "run", "nope.json", "--out", "/tmp/x"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_sweep_run_bad_group_by_fails_before_running(self, tmp_path, capsys):
        out_dir = str(tmp_path / "store")
        assert main(
            ["sweep", "run", "module-seeds", "--samples", "6",
             "--out", out_dir, "--group-by", "plant.q"]
        ) == 2
        assert "plant.q" in capsys.readouterr().err
        # Nothing was executed or stored.
        assert not (tmp_path / "store").exists()

    def test_sweep_report_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "report", str(tmp_path / "nope")]) == 2
        assert "no sweep store" in capsys.readouterr().err


class TestRunFlags:
    @pytest.mark.parametrize(
        "flag", [["--execution", "sharded"], ["--shard-workers", "2"],
                 ["--pipeline", "off"]],
    )
    def test_removed_pool_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "cluster-baseline-showdown", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag", [["--execution", "sharded"], ["--shard-workers", "2"],
                 ["--pipeline", "off"]],
    )
    def test_removed_pool_flags_are_serve_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "cluster-baseline-showdown", *flag]
            )
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    def test_removed_training_pool_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "warm", "paper/fig4-module4",
                  "--map-cache", str(tmp_path / "maps"), "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_sweep_workers_default_auto(self):
        args = build_parser().parse_args(
            ["sweep", "run", "module-showdown", "--out", "out/x"]
        )
        assert args.workers is None

    def test_run_json_excludes_wall_clock(self, capsys):
        import json

        assert main(
            ["run", "module-baseline-threshold-dvfs", "--samples", "10",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "controller_seconds" not in payload["summary"]
        assert payload["summary"]["total_energy"] > 0
