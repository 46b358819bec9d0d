import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import critlab.autopilots
import critlab.campaign
import critlab.classify
import critlab.cli
from critlab.autopilots import FACTORIES, ExternalAutopilot
from critlab.campaign import (
    DEFAULT_CONFIG,
    CampaignConfig,
    build_autopilot,
    load_config,
    run_campaign,
)
from critlab.classify import RESTART_EVERY
from critlab.cli import _build_autopilot, main
from critlab.kinematics import ADProfile
from critlab.scenario import ScenarioType, StaticPart, TestCase
from critlab.scenario import test_case_to_dict as tc_to_dict

from conftest import WORK_KEYS

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
        """The protocol error stopped the process; ``close`` finds none."""
        stopped = []
        close = ExternalAutopilot.close

        def recording_close(pilot):
            stopped.append(pilot._proc is None)
            close(pilot)

        monkeypatch.setattr(ExternalAutopilot, "close", recording_close)
        rc = main([
            "simulate", "--autopilot", f"exec:{EXTERNAL} garbage",
            "--testcase", str(_write_testcase(tmp_path)),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: malformed decision line") and err.count("\n") == 1
        assert stopped == [True]

    def test_stalled_external_pilot_exits_within_the_deadline(
        self, tmp_path, capsys, monkeypatch, hang_guard
    ):
        monkeypatch.setattr(critlab.autopilots, "STEP_DEADLINE_S", 0.3, raising=False)
        start = time.monotonic()
        with hang_guard(5.0):
            rc = main([
                "simulate", "--autopilot", f"exec:{EXTERNAL} sleep",
                "--testcase", str(_write_testcase(tmp_path)),
            ])
        assert rc == 1
        assert time.monotonic() - start < 0.3 + 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: external autopilot missed its deadline")
        assert err.count("\n") == 1

    def test_missing_external_program_is_one_error_line(self, tmp_path, capsys):
        rc = main([
            "simulate", "--autopilot", f"exec:{tmp_path / 'no-such-pilot'}",
            "--testcase", str(_write_testcase(tmp_path)),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: external autopilot did not start") and err.count("\n") == 1

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
        grids, determinacy = metrics["grids"], metrics["determinacy"]
        assert set(grids) == WORK_KEYS | {"simulated", "early_exit_frac"}
        assert set(determinacy) == WORK_KEYS
        assert (grids["simulated"], grids["cells"], grids["scalar_simulate_calls"]) == (1, 25, 0)
        assert 0 < grids["lockstep_steps"] <= grids["cell_steps"]
        assert grids["early_exit_frac"] == grids["early_exits"] / 25
        assert set(metrics["stage_s"]) == {
            "builtin_grids", "external_grids", "raw_files", "determinacy", "coverage"
        }
        for name in ("report.json", "report.md", "summary.csv"):
            assert "stage_s" not in (out / name).read_text()

    def test_every_metrics_key_is_in_the_readme(self, tmp_path, capsys):
        """Each key of a 3x3 default campaign's ``metrics.json``, at any
        depth, is named in README.md in backticks."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**DEFAULT_CONFIG, "grid": {"n_a": 3, "n_f": 3}}))
        main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "out")])
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        keys = set(metrics).union(*metrics.values())
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert {"cells", "builtin_grids"} <= keys
        assert sorted(key for key in keys if f"`{key}`" not in readme) == []

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"typo": 1, "scenario_types": ["merge_yield"]}))
        assert main(["campaign", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_flag_checked_as_the_config_key(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        rc = main(["campaign", "--config", str(self._config_file(tmp_path)),
                   "--workers", workers, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: workers must be an integer >= 1") and err.count("\n") == 1
        assert not out.exists()

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
            "--v0", "30",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["braking"]["determinate"] is False
        assert data["braking"]["max_deviation"] >= 20.0

    @pytest.mark.parametrize("name", ["reference", "non_determinate_brake"])
    def test_rows_match_the_campaign(self, name, capsys):
        """``critlab determinacy`` prints the rows a campaign reports for the
        same pilot, braking speed and start."""
        entry = next(e for e in DEFAULT_CONFIG["autopilots"] if e["name"] == name)
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw.update(scenario_types=["merge_yield"], autopilots=[entry],
                   initial_states=[[25.0, 7.5]], grid={"n_a": 2, "n_f": 2})
        report = run_campaign(CampaignConfig(raw=raw))
        p = {**DEFAULT_CONFIG["profile"], **entry.get("profile", {})}
        v0 = entry.get("braking_check_v0", 0.8 * p["v_max"])
        rc = main([
            "determinacy", "--autopilot", name, "--profile", "{a_max},{b_max},{v_max}".format(**p),
            "--v0", repr(v0), "--x-e", "25", "--v-e", "7.5",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [data["braking"], data["progress"]] == report.determinacy

    def test_v0_defaults_to_a_share_of_v_max(self, capsys):
        """``--profile 2,4,10`` once refused its own default ``--v0`` of
        12.0; a campaign brakes from ``0.8 * v_max``."""
        assert main(["determinacy", "--profile", "2,4,10"]) == 0
        assert json.loads(capsys.readouterr().out)["braking"]["v0"] == 8.0

    def test_reference_clean(self, capsys):
        rc = main(["determinacy", "--autopilot", "reference", "--v0", "12"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["braking"]["determinate"] is True
        assert data["progress"]["determinate"] is True

    def test_start_above_v_max_is_refused(self, capsys, monkeypatch):
        """A ``--v0`` above the profile's ``v_max`` once printed an
        ``aborted`` braking row and exited 0, and then was refused only
        after the progress check had run."""
        def no_run(*args, **kwargs):
            raise AssertionError("simulated a run")

        monkeypatch.setattr(critlab.classify, "_run_cells", no_run)
        assert main(["determinacy", "--profile", "2,4,15", "--v0", "16"]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("error: braking check v0 16.0 outside (0, v_max 15.0]")
        assert err.count("\n") == 1


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

    def test_default_ratio_is_the_campaigns(self, capsys):
        """It once integrated at 200 steps per axis where a campaign's
        coverage row takes 100."""
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw.update(scenario_types=["merge_yield"], autopilots=["reference"],
                   initial_states=raw["initial_states"][:1], grid={"n_a": 2, "n_f": 2})
        [row] = run_campaign(CampaignConfig(raw=raw)).coverage
        speeds = ",".join(map(repr, row["speeds"]))
        assert main(["partition", "--x-e", repr(row["x_e"]), "--speeds", speeds]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [data[k] for k in ("ratio", "covered_volume", "safe_volume")] == [
            row[k] for k in ("ratio", "covered_volume", "safe_volume")]


def test_every_default_is_the_default_configs(tmp_path, capsys):
    """Each command prints the same with only its required arguments as with
    the default config's values given, so a default copied by hand that
    drifts from the config fails here: ``partition --steps`` once read 200
    where the config's ``partition.steps`` is 100."""
    cfg = DEFAULT_CONFIG
    profile = ["--profile", "{a_max},{b_max},{v_max}".format(**cfg["profile"])]
    vl = ["--vl", repr(cfg["static"]["vl"])]
    dt = ["--dt", repr(cfg["sim"]["dt"])]
    x_e, v_e = cfg["initial_states"][0]
    testcase = str(_write_testcase(tmp_path))
    runs = [
        (["critical", "--x-e", "20", "--v-e", "5"], profile + vl),
        (["simulate", "--testcase", testcase],
         profile + dt + ["--zone-epsilon", repr(cfg["sim"]["zone_epsilon"])]),
        (["determinacy"], profile + vl + ["--d", repr(cfg["static"]["d"])] + dt + [
            "--x-e", repr(x_e), "--v-e", repr(v_e), "--v0", repr(0.8 * cfg["profile"]["v_max"]),
            "--restart-every", str(RESTART_EVERY)]),
        (["partition", "--x-e", "20", "--speeds", "10,7.5,5"],
         profile + vl + ["--steps", str(cfg["partition"]["steps"])]),
    ]
    for required, explicit in runs:
        assert main(required) == 0
        at_defaults = capsys.readouterr().out
        assert main(required + explicit) == 0
        assert capsys.readouterr().out == at_defaults, required[0]


@pytest.fixture
def builds_and_renders(monkeypatch):
    """The configs built, and the reports rendered by format, as a command
    runs."""
    calls = Counter()
    build, render = CampaignConfig._build, critlab.campaign.render_report

    def counting_build(self):
        calls["build"] += 1
        build(self)

    def counting_render(report, fmt="markdown"):
        calls[fmt] += 1
        return render(report, fmt)

    monkeypatch.setattr(CampaignConfig, "_build", counting_build)
    monkeypatch.setattr(critlab.campaign, "render_report", counting_render)
    monkeypatch.setattr(critlab.cli, "render_report", counting_render)
    return calls


@pytest.mark.parametrize("command", ["campaign", "report"])
def test_a_command_builds_once_and_renders_each_format_once(
        tmp_path, capsys, builds_and_renders, command):
    """``campaign --workers`` once built its config twice, and ``campaign``
    and ``report --out`` rendered the printed format a second time; what
    they print is the file of that format."""
    cfg = TestCampaignCommand()._config_file(tmp_path)
    out = tmp_path / command
    main(["campaign", "--config", str(cfg), "--workers", "2", "--out", str(tmp_path / "campaign"),
          "--format", "csv"])
    if command == "report":
        capsys.readouterr()
        builds_and_renders.clear()
        main(["report", "--raw", str(tmp_path / "campaign" / "raw"), "--out", str(out),
              "--format", "csv"])
    assert builds_and_renders == Counter(
        {"csv": 1, "markdown": 1, "json": 1, **({"build": 1} if command == "campaign" else {})})
    assert capsys.readouterr().out == (out / "summary.csv").read_text() + "\n"


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

    @pytest.mark.parametrize("text", [
        "{}",
        "[1]",
        json.dumps({"grid": [{"x_a": 1.0, "x_f": 1.0, "zone": "safe_progress",
                              "verdict": "fail"}],
                    "zone_counts": {"safe_progress": 1}, "of": {"kind": None}}),
    ], ids=["empty-object", "list", "point-without-label"])
    def test_malformed_raw_file_is_one_error_line(self, tmp_path, capsys, text):
        grid_file = tmp_path / "raw" / "reference" / "merge_yield" / "xe20_ve5.json"
        grid_file.parent.mkdir(parents=True)
        grid_file.write_text(text)
        assert main(["report", "--raw", str(tmp_path / "raw")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(grid_file) in err


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
        rc = main(["determinacy", "--autopilot", "non_determinate_brake", "--rates", "5:5.0"])
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
        ["determinacy", "--autopilot", "non_determinate_brake", "--profile", "2,5,30",
         "--rates", "30:nan,27.5:3.0"],
        ["partition", "--x-e", "20", "--speeds", "10,7.5,5", "--x-f-cap", "inf"],
        ["partition", "--x-e", "20", "--speeds", "10,7.5,5", "--x-f-cap", "nan"],
        ["critical", "--x-e", "20", "--v-e", "5", "--vl", "nan"],
        ["determinacy", "--v0", "nan"],
        ["determinacy", "--v0", "-5"],
    ], ids=[
        "determinacy-external", "partition-speeds-increasing", "partition-cap-below-corner",
        "partition-zero-steps", "critical-zero-x_e", "critical-negative-b_max",
        "critical-zero-vl", "determinacy-nan-rate", "partition-cap-inf", "partition-cap-nan",
        "critical-nan-vl", "determinacy-nan-v0", "determinacy-negative-v0",
    ])
    def test_bad_flags(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_determinacy_names_a_bad_step(self, capsys, dt):
        """``--dt nan`` once failed with ``x_a must be finite: nan``: the
        progress probe read the step before anything checked it."""
        assert main(["determinacy", "--dt", dt]) == 1
        assert capsys.readouterr().err == f"error: dt must be positive and finite: {dt}\n"

    @pytest.mark.parametrize("field, value", [("x_a", math.nan), ("x_f", math.inf)])
    def test_non_finite_test_case_is_refused(self, tmp_path, capsys, field, value):
        """A NaN ``x_a`` once failed with an error that named no field, and
        an infinite ``x_f`` was graded a failure with exit status 0."""
        path = _write_testcase(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        assert main(["simulate", "--testcase", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "determinacy"])
    def test_start_above_v_max_is_refused(self, tmp_path, capsys, command):
        """A start a hair above ``v_max`` once ran clamped to it (a progress
        pass, exit 0), where a grid from the same start was refused."""
        if command == "simulate":
            path = _write_testcase(tmp_path)
            path.write_text(json.dumps({**json.loads(path.read_text()), "v_e": 15.000000000001}))
            argv = ["simulate", "--testcase", str(path), "--profile", "2,4,15"]
        else:
            argv = ["determinacy", "--x-e", "40", "--v-e", "15.000000000001"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "15.000000000001" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda data: {k: v for k, v in data.items() if k != "x_a"},
         "test case lacks the key 'x_a'"),
        (lambda data: [data], 'a test case must be a JSON object with a "static" object'),
        (lambda data: {**data, "x_e": "20"}, 'test case x_e must be a number: "20"'),
        (lambda data: {**data, "x_e": True}, "test case x_e must be a number: true"),
        (lambda data: {**data, "horizon": 400.5}, "test case horizon must be a step count: 400.5"),
        (lambda data: {**data, "mutations": [{"kind": "static", "x": "5"}]},
         'test case mutation x must be a number: "5"'),
        (lambda data: {**data, "mutations": [{"kind": "parked", "x": 3.0}]},
         "extra vehicle kind must be 'arriving' or 'static': 'parked'"),
        (lambda data: {**data, "mutations": [{"kind": "static", "x": math.nan}]},
         "mutation x must be positive and finite: nan"),
        (lambda data: {**data, "mutations": [{"kind": "arriving", "x": -3.0}]},
         "mutation x must be positive and finite: -3.0"),
        *((lambda data, m=m: {**data, "mutations": m},
           f'test case mutations must be a list of objects with "kind" and "x": {json.dumps(m)}')
          for m in ([1], {"a": 1}, "ab", None)),
        (lambda data: {**data, "static": {**data["static"], "light_schedule": [2.0, 2.0, 2.0]}},
         "light_schedule must be two phases, (green s, red s): (2.0, 2.0, 2.0)"),
    ], ids=["missing-key", "not-an-object", "string-number", "boolean-number", "float-horizon",
            "string-mutation", "unknown-mutation-kind", "nan-mutation", "negative-mutation",
            "mutation-not-an-object", "mutations-an-object", "mutations-a-string",
            "mutations-null", "light-three-phases"])
    def test_malformed_test_case_is_refused(self, tmp_path, capsys, edit, message):
        """Each once ended in a traceback, except a boolean ``x_e``, which ran
        as 1 m, and a mutation of an unknown kind or a NaN ``x``, which ran as
        the case without it.  Mutations of the wrong shape and a light
        schedule of three phases once printed Python's own error, which named
        no field (``'int' object is not subscriptable``, ``too many values to
        unpack``)."""
        path = _write_testcase(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["simulate", "--testcase", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--testcase", "--config"])
    def test_missing_input_file_is_refused(self, tmp_path, capsys, flag):
        """A missing input file once ended in a ``FileNotFoundError`` traceback."""
        missing = tmp_path / "missing.json"
        command = "simulate" if flag == "--testcase" else "campaign"
        assert main([command, flag, str(missing), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "campaign"])
    def test_infinite_step_is_refused(self, tmp_path, capsys, hang_guard, command):
        """A step of ``inf`` once printed ``"t": NaN`` (``simulate``) or never
        ended (``campaign``: every cell's horizon was 0 steps)."""
        if command == "simulate":
            argv = ["simulate", "--testcase", str(_write_testcase(tmp_path)), "--dt", "inf"]
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({**DEFAULT_CONFIG, "scenario_types": ["merge_yield"],
                                       "grid": {"n_a": 3, "n_f": 3}, "sim": {"dt": math.inf}}))
            argv = ["campaign", "--config", str(cfg), "--out", str(tmp_path / "out")]
        with hang_guard(10.0):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "determinacy"])
    def test_step_count_past_int64_is_refused(self, tmp_path, capsys, hang_guard, command):
        """A step of 1e-300 once sized a run of about 1e301 steps, which
        ``simulate`` looped through with no practical end."""
        argv = [command, "--dt", "1e-300"]
        if command == "simulate":
            argv += ["--testcase", str(_write_testcase(tmp_path))]
        with hang_guard(10.0):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64 step count" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (["determinacy", "--rates", "30"], "--rates"),
        (["determinacy", "--rates", "30:5.0,27.5"], "--rates"),
        (["partition", "--x-e", "20", "--speeds", "10,a"], "--speeds"),
    ], ids=["determinacy-rate-without-speed", "determinacy-second-rate-without-speed",
            "partition-speed-a-letter"])
    def test_malformed_list_flag_is_named(self, capsys, argv, flag):
        """Each once printed Python's own error, which named no flag
        (``dictionary update sequence element #0 has length 1``, ``could not
        convert string to float: 'a'``)."""
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} expects ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["critical", "--x-e", "20", "--v-e", "5", "--scenario-type", "lane_change"],
        ["critical", "--x-e", "20", "--v-e", "5", "--d", "3"],
        ["partition", "--x-e", "20", "--speeds", "10,7.5,5", "--scenario-type", "lane_change"],
        ["partition", "--x-e", "20", "--speeds", "10,7.5,5", "--d", "3"],
        ["determinacy", "--scenario-type", "lane_change"],
    ], ids=["critical-scenario-type", "critical-d", "partition-scenario-type", "partition-d",
            "determinacy-scenario-type"])
    def test_option_that_changes_no_output_is_refused(self, capsys, argv):
        """The boundary and the partition read only ``--vl`` of the static
        part, and a built-in pilot reads the scenario type only in a light
        schedule's red phase, which no command sets: these options once
        changed not a byte of output."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_unknown_autopilot(self, tmp_path, capsys):
        tc_path = _write_testcase(tmp_path)
        assert main(["simulate", "--autopilot", "nope", "--testcase", str(tc_path)]) == 1
        assert "unknown autopilot variant 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("variant", sorted(FACTORIES))
def test_every_variant_runs_at_the_cli_defaults(tmp_path, capsys, variant):
    """``non_determinate_brake`` once exited 1 from both commands: its
    default rates of 5.0 exceeded the default profile's ``b_max`` of 4."""
    testcase = str(_write_testcase(tmp_path))
    for argv in (["simulate", "--autopilot", variant, "--testcase", testcase],
                 ["determinacy", "--autopilot", variant]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict)


@pytest.mark.parametrize("entry", DEFAULT_CONFIG["autopilots"], ids=lambda e: e["name"])
def test_cli_variant_matches_the_default_config_entry(entry):
    """``--autopilot NAME`` builds the spec the default config's entry NAME builds."""
    base = load_config(None).profile
    profile = ADProfile(**entry["profile"]) if "profile" in entry else base
    assert _build_autopilot(entry["name"], profile, None) == build_autopilot(entry, base)
