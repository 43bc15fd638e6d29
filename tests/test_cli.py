"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_single_prints_metrics(self, capsys):
        code, out = run_cli(capsys, "single", "--nodes", "3", "--count", "30",
                            "--size", "1024")
        assert code == 0
        assert "throughput (GB/s)" in out
        assert "RDMA writes" in out

    def test_single_baseline_config(self, capsys):
        code, out = run_cli(capsys, "single", "--nodes", "2", "--count", "20",
                            "--config", "baseline", "--size", "512")
        assert code == 0
        assert "mean batches s/r/d" in out

    def test_multi_subgroups(self, capsys):
        code, out = run_cli(capsys, "multi", "--nodes", "3",
                            "--subgroups", "3", "--count", "20",
                            "--size", "512")
        assert code == 0
        assert "throughput (GB/s)" in out

    def test_delayed_reports_interdelivery(self, capsys):
        code, out = run_cli(capsys, "delayed", "--nodes", "4",
                            "--delayed", "1", "--delay-us", "50",
                            "--count", "40", "--size", "1024",
                            "--config", "nulls")
        assert code == 0
        assert "interdelivery" in out

    def test_rdmc_lists_all_schemes(self, capsys):
        code, out = run_cli(capsys, "rdmc", "--nodes", "4",
                            "--size", str(1 << 20))
        assert code == 0
        for scheme in ("sequential", "binomial", "binomial_pipeline"):
            assert scheme in out

    def test_compare_lists_all_configs(self, capsys):
        code, out = run_cli(capsys, "compare", "--nodes", "2",
                            "--count", "30", "--size", "512")
        assert code == 0
        for config in ("baseline", "batching", "nulls", "optimized"):
            assert config in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["single", "--config", "warp-speed"])


class TestChaosCli:
    def test_list_names_every_scenario(self, capsys):
        from repro.workloads.scenarios import SCENARIOS

        code, out = run_cli(capsys, "chaos", "--list")
        assert code == 0
        for name in SCENARIOS:
            assert name in out

    def test_scenario_run_prints_status(self, capsys):
        code, out = run_cli(capsys, "chaos", "--scenario", "jitter-storm",
                            "--seed", "3")
        assert code == 0
        assert "jitter-storm" in out
        assert "ok" in out

    def test_repeat_checks_replay(self, capsys):
        code, out = run_cli(capsys, "chaos", "--scenario", "sender-stall",
                            "--seed", "5", "--repeat", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_json_output_is_parseable(self, capsys):
        import json

        code, out = run_cli(capsys, "chaos", "--scenario", "leader-crash",
                            "--seed", "2", "--json")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["ok"] is True
        assert payload["replay_ok"] is True
        assert payload["schedule_json"]

    def test_unknown_scenario_exits_2(self, capsys):
        code, _ = run_cli(capsys, "chaos", "--scenario", "black-swan")
        assert code == 2

    def test_no_selection_exits_2(self, capsys):
        code, _ = run_cli(capsys, "chaos")
        assert code == 2

    def test_failure_writes_artifact_and_exits_1(self, capsys, tmp_path,
                                                 monkeypatch):
        import json

        from repro.workloads.scenarios import SCENARIOS, ScenarioResult

        def broken(seed):
            return ScenarioResult(
                name="broken", seed=seed, ok=False,
                problems=["node 1 delivered 0/10"], duration=0.0,
                delivered={}, log_digest="d" * 64,
                trace_fingerprint="f" * 64, drops_by_reason={},
                fault_counters={}, views={},
                schedule_json='{"version": 1, "seed": 0, "events": []}')

        monkeypatch.setitem(SCENARIOS, "broken", broken)
        code, _ = run_cli(capsys, "chaos", "--scenario", "broken",
                          "--seed", "9", "--artifact-dir", str(tmp_path))
        assert code == 1
        artifact = tmp_path / "chaos-broken-seed9.json"
        assert artifact.exists()
        data = json.loads(artifact.read_text())
        assert data["problems"] == ["node 1 delivered 0/10"]
        assert "spindle-repro chaos --scenario broken --seed 9" in \
            data["replay_cmd"]

    def test_sweep_runs_multiple_seeds(self, capsys):
        code, out = run_cli(capsys, "chaos", "--scenario", "crash-restart",
                            "--seed", "1", "--sweep", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "crash-restart" in ln]
        # Two per-seed rows plus the aggregated per-scenario summary row.
        assert len(lines) == 3
        assert "2/2" in lines[-1]
