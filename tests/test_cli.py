import json
import sys
from pathlib import Path

import pytest

from critlab.autopilots import ExternalAutopilot
from critlab.campaign import (
    DEFAULT_CONFIG,
    CampaignConfig,
    build_autopilot,
    load_config,
    run_campaign,
)
from critlab.cli import _build_autopilot, main
from critlab.kinematics import ADProfile
from critlab.scenario import ScenarioType, StaticPart, TestCase
from critlab.scenario import test_case_to_dict as tc_to_dict

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"


def _write_testcase(tmp_path, x_a=30.0, x_f=15.0):
    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    tc = TestCase(static=static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(tc_to_dict(tc)))
    return path


class TestCriticalCommand:
    def test_boundary_json(self, capsys):
        assert main(["critical", "--x-e", "20", "--v-e", "5", "--vl", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["x_hat_a"] == pytest.approx(26.235, abs=1e-3)
        assert data["x_hat_f"] == pytest.approx(13.125, abs=1e-6)
        assert data["x_tilde_a"] == pytest.approx(40.0)
        assert data["cautious_feasible"] is True

    def test_stationary_ego_threshold_is_null(self, capsys):
        assert main(["critical", "--x-e", "20", "--v-e", "0", "--vl", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["x_tilde_a"] is None


class TestSimulateCommand:
    def test_reference_run_with_trace(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        trace = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--autopilot", "reference",
            "--testcase", str(tc_path), "--out", str(trace),
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "progress_pass"
        assert trace.read_text().splitlines()[0] == "t,x_e,v_e,x_a,v_a,x_f,light"

    def test_null_horizon_sized_for_the_step_in_use(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        data = json.loads(tc_path.read_text())
        data["horizon"] = None
        tc_path.write_text(json.dumps(data))
        rc = main(["simulate", "--testcase", str(tc_path), "--dt", "0.02"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "progress_pass"

    def test_external_autopilot(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        rc = main([
            "simulate", "--autopilot", f"exec:{EXTERNAL} cautious",
            "--testcase", str(tc_path),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "cautious_pass"

    def test_external_protocol_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        stopped = []
        close = ExternalAutopilot.close

        def recording_close(pilot):
            proc = pilot._proc
            close(pilot)
            stopped.append(proc.poll() is not None)

        monkeypatch.setattr(ExternalAutopilot, "close", recording_close)
        rc = main([
            "simulate", "--autopilot", f"exec:{EXTERNAL} garbage",
            "--testcase", str(_write_testcase(tmp_path)),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: malformed decision line") and err.count("\n") == 1
        assert stopped == [True]

    def test_json_trace_output(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        trace = tmp_path / "trace.json"
        main(["simulate", "--testcase", str(tc_path), "--out", str(trace)])
        data = json.loads(trace.read_text())
        assert data["frames"][0]["ego"]["x"] == -20.0


class TestCampaignCommand:
    def _config_file(self, tmp_path):
        cfg = {
            "scenario_types": ["merge_yield"],
            "autopilots": [{"name": "reference", "variant": "reference"}],
            "initial_states": [[20.0, 5.0]],
            "grid": {"n_a": 5, "n_f": 5},
            "partition": {"speeds": [10.0, 5.0], "steps": 40},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_exit_codes(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        rc = main([
            "campaign", "--config", str(cfg), "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        any_fail = any(
            c["counts"].get(lab, 0) for c in report["cells"] for lab in ("TF", "IS", "IO")
        ) or any(c["of"] for c in report["cells"])
        assert rc == (2 if any_fail else 0)
        assert "| Scenario type |" in out

    def test_metrics_file_stays_out_of_the_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["campaign", "--config", str(self._config_file(tmp_path)), "--out", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        grids = metrics["grids"]
        assert (grids["simulated"], grids["cells"], grids["scalar_simulate_calls"]) == (1, 25, 0)
        assert 0 < grids["lockstep_steps"] <= grids["cell_steps"]
        assert grids["early_exit_frac"] == grids["early_exits"] / 25
        assert set(metrics["stage_s"]) == {
            "builtin_grids", "external_grids", "raw_files", "determinacy", "coverage"
        }
        for name in ("report.json", "report.md", "summary.csv"):
            assert "stage_s" not in (out / name).read_text()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"typo": 1, "scenario_types": ["merge_yield"]}))
        assert main(["campaign", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_out_env_var(self, tmp_path, monkeypatch, capsys):
        cfg = self._config_file(tmp_path)
        monkeypatch.setenv("CRITLAB_OUT", str(tmp_path / "env-out"))
        main(["campaign", "--config", str(cfg)])
        assert (tmp_path / "env-out" / "summary.csv").exists()


class TestDeterminacyCommand:
    def test_split_rate_braking(self, capsys):
        rc = main([
            "determinacy", "--autopilot", "non_determinate_brake",
            "--profile", "2,5,30", "--rates", "30:5.0,27.5:3.0",
            "--v0", "30", "--x-f", "200",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["braking"]["determinate"] is False
        assert data["braking"]["max_deviation"] >= 20.0

    @pytest.mark.parametrize("name", ["reference", "non_determinate_brake"])
    def test_rows_match_the_campaign(self, name, capsys):
        """``critlab determinacy`` prints the rows a campaign reports for the
        same pilot, braking speed, obstacle and start."""
        entry = next(e for e in DEFAULT_CONFIG["autopilots"] if e["name"] == name)
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw.update(scenario_types=["merge_yield"], autopilots=[entry],
                   initial_states=[[25.0, 7.5]], grid={"n_a": 2, "n_f": 2})
        report = run_campaign(CampaignConfig(raw=raw))
        p = {**DEFAULT_CONFIG["profile"], **entry.get("profile", {})}
        v0 = entry.get("braking_check_v0", 0.8 * p["v_max"])
        rates = [float(r) for r in entry.get("rates", {}).values()] or [p["b_max"]]
        guard = 1.5 * v0 * v0 / (2.0 * min(rates)) + v0 * 0.1  # the campaign's obstacle
        rc = main([
            "determinacy", "--autopilot", name, "--profile", "{a_max},{b_max},{v_max}".format(**p),
            "--v0", repr(v0), "--x-f", repr(guard), "--x-e", "25", "--v-e", "7.5",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [data["braking"], data["progress"]] == report.determinacy

    def test_reference_clean(self, capsys):
        rc = main(["determinacy", "--autopilot", "reference", "--v0", "12"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["braking"]["determinate"] is True
        assert data["progress"]["determinate"] is True


class TestPartitionCommand:
    def test_ratio_and_samples(self, tmp_path, capsys):
        samples = tmp_path / "envelope.csv"
        rc = main([
            "partition", "--x-e", "20", "--speeds", "10,7.5,5",
            "--out", str(samples),
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["ratio"] <= 1.0
        header = samples.read_text().splitlines()[0]
        assert header == "v,x_hat_a,x_hat_f,corner_x_a,corner_x_f"


class TestReportCommand:
    def test_regenerate_from_raw(self, tmp_path, capsys):
        cfg = TestCampaignCommand()._config_file(tmp_path)
        main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        rc = main(["report", "--raw", str(tmp_path / "out" / "raw"), "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "scenario_type,reference"

    def test_missing_raw_dir(self, tmp_path):
        assert main(["report", "--raw", str(tmp_path / "nothing")]) == 1


class TestErrorExits:
    def test_simulate_horizon_too_short_for_dt(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        data = json.loads(tc_path.read_text())
        data["horizon"] = 40
        tc_path.write_text(json.dumps(data))
        rc = main(["simulate", "--testcase", str(tc_path), "--dt", "0.05"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "horizon 40 too short" in err

    def test_determinacy_rates_outside_the_profile(self, capsys):
        rc = main(["determinacy", "--autopilot", "non_determinate_brake"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "maneuver rate 5.0" in err

    @pytest.mark.parametrize("argv", [
        ["determinacy", "--autopilot", f"exec:{EXTERNAL} cautious"],
        ["partition", "--x-e", "20", "--speeds", "5,10"],
        ["partition", "--x-e", "20", "--speeds", "10,5", "--x-f-cap", "1"],
        ["partition", "--x-e", "20", "--speeds", "10,5", "--steps", "0"],
        ["critical", "--x-e", "0", "--v-e", "5"],
        ["critical", "--x-e", "20", "--v-e", "5", "--profile", "2,-4,15"],
        ["critical", "--x-e", "20", "--v-e", "5", "--vl", "0"],
    ], ids=[
        "determinacy-external", "partition-speeds-increasing", "partition-cap-below-corner",
        "partition-zero-steps", "critical-zero-x_e", "critical-negative-b_max",
        "critical-zero-vl",
    ])
    def test_bad_flags(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")

    def test_unknown_autopilot(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        assert main(["simulate", "--autopilot", "nope", "--testcase", str(tc_path)]) == 1
        assert "unknown autopilot variant 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("entry", DEFAULT_CONFIG["autopilots"], ids=lambda e: e["name"])
def test_cli_variant_matches_the_default_config_entry(entry):
    """``--autopilot NAME`` builds the spec the default config's entry NAME builds."""
    base = load_config(None).profile
    profile = ADProfile.constant(**entry["profile"]) if "profile" in entry else base
    assert _build_autopilot(entry["name"], profile, None) == build_autopilot(entry, base)
