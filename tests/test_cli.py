"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.mix == "HM2"
        assert args.site == "AZ"
        assert args.policy == "MPPT&Opt"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "PFCI" in out
        assert "HM2" in out
        assert "MPPT&Opt" in out

    def test_panel(self, capsys):
        assert main(["panel", "--irradiance", "800", "--temperature", "40"]) == 0
        out = capsys.readouterr().out
        assert "Pmax" in out
        assert "BP3180N" in out

    def test_trace(self, capsys):
        assert main(["trace", "--site", "AZ", "--month", "7"]) == 0
        out = capsys.readouterr().out
        assert "kWh/m^2" in out

    def test_trace_unknown_site(self):
        with pytest.raises(KeyError):
            main(["trace", "--site", "XX"])

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        assert "irradiance" in capsys.readouterr().out

    def test_experiment_unknown_names_every_artifact(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "headlines" in err and "table7" in err and "all" in err

    def test_experiment_prints_the_bench_rendering(self, capsys):
        assert main(["experiment", "fig19", "--solver", "table",
                     "--jobs", "2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split() == ["site", "month", "solar", "utility"]

    def test_experiment_all_prefetches_once_then_prints_in_table_order(
        self, capsys, monkeypatch
    ):
        from repro.harness.artifacts import Artifact
        from repro.harness.parallel import SweepTask
        from repro.harness.runner import SimulationRunner

        first = SweepTask("mppt", "L1", "AZ", 7, policy="MPPT&Opt")
        second = SweepTask("fixed", "H1", "TN", 1, budget_w=75.0)
        monkeypatch.setattr("repro.harness.artifacts.ARTIFACTS", {
            "zeta": Artifact((first,), lambda runner: 1, "zeta data {}".format),
            "alpha": Artifact((second, first), lambda runner: 2,
                              "alpha data {}".format),
        })
        prefetched = []
        monkeypatch.setattr(
            SimulationRunner, "prefetch",
            lambda self, tasks: prefetched.append(list(tasks)),
        )
        assert main(["experiment", "all"]) == 0
        assert prefetched == [[first, second, first]]
        assert capsys.readouterr().out.splitlines() == [
            "===== zeta =====", "zeta data 1",
            "===== alpha =====", "alpha data 2",
        ]

    def test_panel_shading(self, capsys):
        assert main(["panel", "--shading", "1.0,0.4"]) == 0
        out = capsys.readouterr().out
        assert "global MPP" in out
        assert "2-module string" in out


class TestSlowCommands:
    """Commands that run full-resolution day simulations."""

    def test_simulate_and_export(self, capsys, tmp_path):
        csv_path = tmp_path / "day.csv"
        json_path = tmp_path / "day.json"
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--export-csv", str(csv_path), "--export-json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert csv_path.read_text().startswith("minute,")
        import json

        payload = json.loads(json_path.read_text())
        assert payload["mix"] == "L1"

    def test_simulate_fixed_budget(self, capsys):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--fixed-budget", "100",
        ]) == 0
        assert "Fixed-100W" in capsys.readouterr().out

    def test_simulate_battery(self, capsys):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--battery-derating", "0.92",
        ]) == 0
        assert "battery system" in capsys.readouterr().out

    def test_rack(self, capsys):
        assert main([
            "rack", "--mixes", "H1", "L1", "--site", "AZ", "--month", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "rack PTP" in out
        assert "chip H1" in out

    def test_simulate_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "day.jsonl"
        assert main([
            "simulate", "--mix", "mixed", "--location", "PFCI", "--month", "6",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "tracking_events" in out
        assert "telemetry counters" in out
        assert "timers" in out
        assert str(trace_path) in out

        from repro.telemetry import current, NULL_TELEMETRY, read_jsonl_events

        # The hub is uninstalled once the command finishes.
        assert current() is NULL_TELEMETRY
        events = list(read_jsonl_events(str(trace_path)))
        tracking = [e for e in events if e.type_tag == "tracking"]
        reported = int(out.split("tracking_events")[1].split()[0])
        assert len(tracking) == reported > 0

    def test_simulate_telemetry_without_trace_file(self, capsys):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry counters" in out
        assert "sim.tracking_events" in out

    def test_log_level_flag(self, capsys):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--log-level", "warning",
        ]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_campaign(self, capsys):
        assert main([
            "campaign", "--mix", "L1", "--sites", "AZ", "--months", "7",
            "--days", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "carbon" in out
        assert "overall utilization" in out


class TestUsageErrors:
    def test_task_timeout_needs_jobs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--task-timeout", "5"])
        assert exit_info.value.code == 2
        assert "--task-timeout needs --jobs >= 2" in capsys.readouterr().err

    def test_serve_has_no_jobs_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--jobs", "2"])

    @pytest.mark.parametrize("argv", [
        "profile --repeat 0",
        "experiment fig01 --jobs 0",
        "experiment fig01 --jobs -3",
        "experiment fig01 --retries -1",
        "campaign --days 0",
        "simulate --month 13",
        "campaign --months 7 13",
        "serve --max-workers 0",
        "serve --max-queue -1",
    ])
    def test_out_of_range_number_is_a_usage_error(self, argv, capsys):
        args = argv.split()
        flag = next(arg for arg in args if arg.startswith("--"))
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


class TestProfile:
    def test_profile_command_prints_phase_report(self, capsys):
        assert main([
            "profile", "--mix", "L1", "--site", "AZ", "--month", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiled 1 x" in out
        assert "step.events" in out
        assert "power.brentq_calls" in out
        assert "attributed" in out

    def test_profile_flag_on_simulate(self, capsys):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "day.environment" in out
        assert "step.events" in out

    def test_profile_flag_without_simulation_explains(self, capsys):
        assert main(["list", "--profile"]) == 0
        assert "no phases profiled" in capsys.readouterr().out

    def test_each_region_is_timed_once(self, capsys):
        # With both --telemetry and the profile armed, every timed region
        # appears in exactly one table row: one measurement, one total.
        assert main([
            "profile", "--mix", "HM2", "--site", "AZ", "--month", "7",
            "--solver", "table", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()]
        for name in ("controller.track", "run_day"):
            matches = [row for row in rows if row and row[0] == name]
            assert len(matches) == 1, (name, matches)
        # The observed table day batches: the report names fastday's
        # phases and none of the per-minute loop's.
        names = {row[0] for row in rows if row}
        assert {"step.events", "step.spans", "step.scan",
                "day.environment"} <= names
        assert "step.mpp_solve" not in names
        assert "fastday.declined" not in out

    def test_hub_uninstalled_after_profile(self):
        from repro.telemetry import NULL_TELEMETRY, current

        main(["profile", "--mix", "L1", "--site", "AZ", "--month", "7"])
        assert current() is NULL_TELEMETRY


class TestRuns:
    def run_with_ledger(self, tmp_path):
        assert main([
            "simulate", "--mix", "L1", "--site", "AZ", "--month", "7",
            "--ledger", "--runs-dir", str(tmp_path),
        ]) == 0

    def test_ledger_flag_records_manifest(self, capsys, tmp_path):
        self.run_with_ledger(tmp_path)
        out = capsys.readouterr().out
        assert "recorded run manifest" in out
        (manifest,) = tmp_path.glob("*.json")
        import json

        doc = json.loads(manifest.read_text())
        assert doc["command"] == "simulate"
        assert doc["days"] == 1
        assert doc["host"]["cpu_count"] is not None

    def test_ledger_ignored_on_non_simulating_commands(self, tmp_path):
        assert main(["list", "--ledger", "--runs-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.json"))

    def test_runs_list_empty(self, capsys, tmp_path):
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_runs_list_and_show(self, capsys, tmp_path):
        self.run_with_ledger(tmp_path)
        capsys.readouterr()

        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out

        # show defaults to the most recent run
        assert main(["runs", "show", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "command   simulate" in out
        assert "cpus=" in out

    def test_runs_show_unknown_run_exits_2(self, capsys, tmp_path):
        assert main([
            "runs", "show", "nonexistent", "--runs-dir", str(tmp_path),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_runs_diff(self, capsys, tmp_path):
        self.run_with_ledger(tmp_path)
        self.run_with_ledger(tmp_path)
        capsys.readouterr()
        run_a, run_b = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert main([
            "runs", "diff", run_a, run_b, "--runs-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "same" in out
        assert "DIFFERS" not in out  # identical code/config/seeds
        assert "duration_s" in out
