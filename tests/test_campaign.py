import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import critlab.campaign
import critlab.classify
from critlab.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    DEFAULT_CONFIG,
    cell_text,
    format_pct,
    load_config,
    render_report,
    report_from_raw,
    run_campaign,
    write_outputs,
)

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"


def small_config(**overrides):
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    raw["scenario_types"] = ["merge_yield"]
    raw["autopilots"] = [
        {"name": "reference", "variant": "reference"},
        {
            "name": "irrational",
            "variant": "irrational",
            "fail_region": [[29.0, 35.0], [16.0, 24.0]],
        },
    ]
    raw["initial_states"] = [[20.0, 5.0]]
    raw["grid"] = {**raw["grid"], "n_a": 8, "n_f": 8}
    raw["partition"] = {"speeds": [10.0, 5.0], "x_f_cap": None, "steps": 50}
    raw.update(overrides)
    return CampaignConfig(raw=raw)


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            small_config(typo_key=1)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            small_config(grid={"n_a": 8, "n_f": 8, "oops": 3})

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigError):
            small_config(scenario_types=[])
        with pytest.raises(ConfigError):
            small_config(autopilots=[])

    def test_unwinnable_initial_state_rejected(self):
        # braking_distance(14) = 24.5 > 10: every case would be unwinnable
        with pytest.raises(ConfigError):
            small_config(initial_states=[[10.0, 14.0]])

    def test_unknown_scenario_type(self):
        with pytest.raises(ConfigError):
            small_config(scenario_types=["roundabout"])

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_config_loads(self):
        config = load_config(None)
        assert len(config.raw["autopilots"]) == 8


class TestCellText:
    def test_reference_result_matrix_fixture(self):
        # hand-written cell reproducing a published-style result entry
        cell = CampaignCell(
            autopilot="modular_a",
            scenario_type="merge_yield",
            counts={"TF": 8, "IO": 127, "pass": 865},
            n_cells=1000,
            m_states=4,
        )
        assert cell_text(cell) == "TF (0.80%) IO (12.7%)"

    def test_high_frequency_fixture(self):
        cell = CampaignCell(
            autopilot="x", scenario_type="intersection_yield",
            counts={"TF": 286}, n_cells=400, m_states=2,
        )
        assert cell_text(cell) == "TF (71.5%)"

    def test_overall_failure_fixture(self):
        cell = CampaignCell(
            autopilot="x", scenario_type="lane_change",
            counts={"TF": 100}, n_cells=400, of_counts={"OF-PD": 2}, m_states=4,
        )
        assert cell_text(cell) == "OF-PD (2/4)"

    def test_clean_cell(self):
        cell = CampaignCell(
            autopilot="x", scenario_type="merge_yield",
            counts={"pass": 400}, n_cells=400, m_states=1,
        )
        assert cell_text(cell) == "pass"

    def test_protocol_error_cell(self):
        cell = CampaignCell(autopilot="x", scenario_type="merge_yield", protocol_error=True)
        assert cell_text(cell) == "protocol-error"

    def test_pct_formatting(self):
        assert format_pct(0.008) == "0.80"
        assert format_pct(0.127) == "12.7"
        assert format_pct(0.0099) == "0.99"
        assert format_pct(0.01) == "1.0"


class TestRendering:
    def _empty_report(self):
        return CampaignReport(
            scenario_types=[], autopilot_names=[], cells={},
            determinacy=[], coverage=[], meta={"seed": 0, "dt": 0.1},
        )

    def test_empty_report_headers_only(self):
        text = render_report(self._empty_report(), "csv")
        assert text.splitlines() == ["scenario_type"]

    def test_one_cell_report(self):
        cell = CampaignCell(
            autopilot="reference", scenario_type="merge_yield",
            counts={"pass": 4}, n_cells=4, m_states=1,
        )
        report = CampaignReport(
            scenario_types=["merge_yield"], autopilot_names=["reference"],
            cells={("merge_yield", "reference"): cell},
            determinacy=[], coverage=[], meta={"seed": 0, "dt": 0.1},
        )
        lines = render_report(report, "csv").splitlines()
        assert lines == ["scenario_type,reference", "merge_yield,pass"]
        md = render_report(report, "markdown")
        assert "| merge_yield | pass |" in md

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(self._empty_report(), "yaml")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    config = small_config()
    report = run_campaign(config, out_dir=out)
    return config, report, out


class TestRunCampaign:
    def test_matrix_shape(self, small_run):
        _, report, _ = small_run
        assert report.scenario_types == ["merge_yield"]
        assert report.autopilot_names == ["reference", "irrational"]
        assert set(report.cells) == {
            ("merge_yield", "reference"), ("merge_yield", "irrational"),
        }

    def test_reference_cell_clean(self, small_run):
        _, report, _ = small_run
        cell = report.cells[("merge_yield", "reference")]
        assert cell.counts.get("IS", 0) == 0
        assert cell.counts.get("IO", 0) == 0
        assert not cell.of_counts

    def test_irrational_cell_dirty(self, small_run):
        _, report, _ = small_run
        cell = report.cells[("merge_yield", "irrational")]
        assert cell.counts.get("IS", 0) > 0

    def test_raw_files_persisted(self, small_run):
        _, _, out = small_run
        raw = sorted((out / "raw").glob("*/*/*.json"))
        assert len(raw) == 2  # one grid per (autopilot, scenario, state)
        data = json.loads(raw[0].read_text())
        assert set(data["of"]) == {"kind"}
        assert len(data["grid"]) == 64

    def test_report_regenerated_from_raw(self, small_run):
        _, report, out = small_run
        rebuilt = report_from_raw(out / "raw")
        for key, cell in report.cells.items():
            other = rebuilt.cells[key]
            assert cell_text(other) == cell_text(cell)

    def test_zone_bookkeeping(self, small_run):
        _, report, _ = small_run
        cell = report.cells[("merge_yield", "reference")]
        assert set(cell.zone_counts) >= {"safe_progress", "cautious_only", "irrelevant"}
        assert sum(cell.zone_counts.values()) == cell.n_cells
        assert cell.zone_counts.get("non_nominal", 0) == 0

    def test_determinacy_and_coverage_sections(self, small_run):
        _, report, _ = small_run
        assert any(r["maneuver"] == "braking" for r in report.determinacy)
        assert any(r["maneuver"] == "progress" for r in report.determinacy)
        ref_rows = [r for r in report.determinacy if r["autopilot"] == "reference"]
        assert all(r.get("determinate") for r in ref_rows if r.get("status") == "ok")
        assert report.coverage and 0.0 < report.coverage[0]["ratio"] <= 1.0

    def test_byte_determinism(self, small_run, tmp_path):
        config, report, _ = small_run
        report2 = run_campaign(small_config(), out_dir=tmp_path)
        for fmt in ("markdown", "csv", "json"):
            assert render_report(report, fmt) == render_report(report2, fmt)

    def test_write_outputs(self, small_run, tmp_path):
        _, report, _ = small_run
        paths = write_outputs(report, tmp_path / "out")
        assert paths["csv"].read_text().startswith("scenario_type,")
        assert paths["markdown"].read_text().startswith("# Campaign report")
        json.loads(paths["json"].read_text())


class TestGoldenFile:
    def test_reference_campaign_matches_frozen_summary(self):
        """First verified run froze this file; later changes must reproduce it."""
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw["autopilots"] = [{"name": "reference", "variant": "reference"}]
        raw["initial_states"] = [[20.0, 5.0], [30.0, 10.0]]
        raw["grid"] = {**raw["grid"], "n_a": 10, "n_f": 10}
        raw["partition"] = {"speeds": [10.0, 5.0], "x_f_cap": None, "steps": 50}
        report = run_campaign(CampaignConfig(raw=raw))
        golden = Path(__file__).parent / "data" / "golden_reference_summary.csv"
        assert render_report(report, "csv") == golden.read_text()


class TestExternalInCampaign:
    def test_protocol_error_marks_cell_and_continues(self, tmp_path):
        config = small_config(
            autopilots=[
                {"name": "reference", "variant": "reference"},
                {"name": "broken", "command": EXTERNAL + " garbage"},
            ]
        )
        report = run_campaign(config, out_dir=tmp_path)
        assert report.cells[("merge_yield", "broken")].protocol_error
        assert cell_text(report.cells[("merge_yield", "broken")]) == "protocol-error"
        assert not report.cells[("merge_yield", "reference")].protocol_error

    def test_external_pilot_runs_a_campaign_cell(self, tmp_path):
        config = small_config(
            autopilots=[{"name": "ext_cautious", "command": EXTERNAL + " cautious"}],
            grid={"n_a": 4, "n_f": 4},
        )
        report = run_campaign(config, out_dir=tmp_path)
        cell = report.cells[("merge_yield", "ext_cautious")]
        assert not cell.protocol_error
        assert cell.n_cells == 16
        assert report.metrics["grids"]["scalar_simulate_calls"] == 16


class TestWorkers:
    def test_parallel_matches_serial(self):
        serial = run_campaign(small_config(workers=1))
        parallel = run_campaign(small_config(workers=2))
        assert render_report(serial, "csv") == render_report(parallel, "csv")
        a, b = serial.to_dict(), parallel.to_dict()
        a.pop("meta"), b.pop("meta")  # meta echoes the differing worker count
        assert a == b


def four_type_config(**overrides):
    """Two built-in autopilots over all four scenario types, 5x5 cells."""
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    raw["autopilots"] = [
        {"name": "reference", "variant": "reference"},
        {"name": "transition_flawed", "variant": "transition_flawed", "optimism": 1.3},
    ]
    raw["grid"] = {**raw["grid"], "n_a": 5, "n_f": 5}
    raw["partition"] = {"speeds": [10.0, 5.0], "x_f_cap": None, "steps": 20}
    raw.update(overrides)
    return CampaignConfig(raw=raw)


def with_light(schedule):
    return {**DEFAULT_CONFIG["static"], "light_schedule": schedule}


class TestGridDedup:
    """Grids that differ only in scenario type are simulated once."""

    def _grid_runs(self, monkeypatch, config):
        calls = Counter()
        real = critlab.campaign.run_grid

        def counting(spec, x_e, v_e, *args, **kwargs):
            calls[(spec.name, x_e, v_e)] += 1
            return real(spec, x_e, v_e, *args, **kwargs)

        monkeypatch.setattr(critlab.campaign, "run_grid", counting)
        return run_campaign(config), calls

    def test_one_grid_per_pilot_and_start_without_light(self, monkeypatch):
        report, calls = self._grid_runs(monkeypatch, four_type_config())
        assert len(calls) == 2 * 4
        assert set(calls.values()) == {1}
        texts = {cell_text(report.cells[(sc, "reference")]) for sc in report.scenario_types}
        assert len(texts) == 1

    def test_light_schedule_splits_off_the_light_type(self, monkeypatch):
        config = four_type_config(static=with_light([2.0, 2.0]))
        report, calls = self._grid_runs(monkeypatch, config)
        assert len(calls) == 2 * 4
        assert set(calls.values()) == {2}
        light = report.cells[("intersection_light", "reference")]
        assert cell_text(light) == "OF-PD (4/4)"
        assert cell_text(report.cells[("merge_yield", "reference")]) != cell_text(light)

    def test_one_coverage_integral_for_all_types(self, monkeypatch):
        calls = []
        real = critlab.campaign.coverage_ratio

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(critlab.campaign, "coverage_ratio", counting)
        report = run_campaign(four_type_config())
        assert len(calls) == 1
        assert [row.pop("scenario_type") for row in report.coverage] == report.scenario_types
        assert all(row == report.coverage[0] for row in report.coverage)

    def test_raw_files_match_per_type_runs(self, tmp_path):
        joint = tmp_path / "joint"
        run_campaign(four_type_config(static=with_light([2.0, 2.0])), out_dir=joint)
        joint_files = sorted((joint / "raw").glob("*/*/*.json"))
        assert len(joint_files) == 2 * 4 * 4
        for sc in DEFAULT_CONFIG["scenario_types"]:
            alone = tmp_path / sc
            config = four_type_config(static=with_light([2.0, 2.0]), scenario_types=[sc])
            run_campaign(config, out_dir=alone)
            alone_files = sorted((alone / "raw").glob("*/*/*.json"))
            assert len(alone_files) == 2 * 4
            for path in alone_files:
                rel = path.relative_to(alone)
                assert json.loads(path.read_text())["scenario_type"] == sc
                assert (joint / rel).read_bytes() == path.read_bytes()


class TestLockstepCampaign:
    """The lockstep engine leaves every campaign output as the scalar path writes it."""

    def _outputs(self, out):
        files = {p.relative_to(out): p.read_bytes() for p in sorted((out / "raw").rglob("*.json"))}
        for name in ("report.json", "report.md", "summary.csv"):
            files[Path(name)] = (out / name).read_bytes()
        return files

    def test_outputs_match_the_scalar_path(self, tmp_path, monkeypatch):
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw["grid"] = {**raw["grid"], "n_a": 3, "n_f": 3}
        raw["static"] = with_light([2.0, 2.0])
        raw["partition"] = {"speeds": [10.0, 5.0], "x_f_cap": None, "steps": 20}
        for path in ("lockstep", "scalar"):
            if path == "scalar":
                monkeypatch.setattr(critlab.classify, "lockstep_applies", lambda *args: False)
            report = run_campaign(CampaignConfig(raw=raw), out_dir=tmp_path / path)
            write_outputs(report, tmp_path / path)
            stats = report.metrics["grids"]
            assert stats["simulated"] == 8 * 4 * 2  # the light type is its own grid
            assert stats["cells"] == stats["simulated"] * 9
            assert stats["scalar_simulate_calls"] == (stats["cells"] if path == "scalar" else 0)
            assert (stats["lockstep_steps"] > 0) == (path == "lockstep")
        lockstep, scalar = self._outputs(tmp_path / "lockstep"), self._outputs(tmp_path / "scalar")
        assert len(lockstep) == 8 * 4 * 4 + 3
        assert lockstep == scalar


class TestStepSize:
    @pytest.mark.parametrize("dt", [0.05, 0.02])
    def test_finer_step_campaign_runs_clean(self, dt):
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw["scenario_types"] = ["merge_yield"]
        raw["grid"] = {**raw["grid"], "n_a": 3, "n_f": 3}
        raw["partition"] = {"speeds": [10.0, 5.0], "x_f_cap": None, "steps": 20}
        raw["sim"] = {**raw["sim"], "dt": dt}
        report = run_campaign(CampaignConfig(raw=raw))
        assert report.meta["dt"] == dt
        assert sum(c.n_cells for c in report.cells.values()) == 8 * 4 * 9
        assert report.determinacy
        assert not any(c.protocol_error for c in report.cells.values())


def one_type_raw(**overrides):
    """A 1-type, 3x3 config as JSON, with top-level keys replaced."""
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    raw["scenario_types"] = ["merge_yield"]
    raw["grid"] = {**raw["grid"], "n_a": 3, "n_f": 3}
    raw.update(overrides)
    return raw


def _pilot(**entry):
    return {"autopilots": [{"name": "p", "variant": "reference", **entry}]}


class TestLoadTimeRejection:
    """A config the schema accepts runs, or is refused at load with a ConfigError."""

    @pytest.mark.parametrize("overrides", [
        _pilot(profile={"a_max": 2.0, "v_max": 15.0}),
        _pilot(profile={"a_max": -2.0, "b_max": 4.0, "v_max": 15.0}),
        {"profile": {"a_max": -1.0, "b_max": 4.0, "v_max": 15.0}},
        {"static": {"d": -1.0, "vl": 10.0, "light_schedule": None}},
        {"static": {"d": 5.0, "vl": 10.0, "light_schedule": [0, 1]}},
        {"sim": {"dt": 0, "zone_epsilon": 0.1}},
        {"grid": {"n_a": 1}},
        {"autopilots": [3]},
        _pilot(optimism=5),
        {"autopilots": [{"name": "ext", "command": "true", "optimism": 2}]},
        _pilot(variant="irrational", fail_region=[[29.0, 35.0]]),
        _pilot(variant="non_determinate_accel", rates=[1.0, 2.0]),
        _pilot(braking_check_v0=40.0),
        _pilot(braking_check_v0=0.0),
        {"partition": {"speeds": [5.0, 10.0]}},
        {"partition": {"speeds": [10.0]}},
        {"partition": {"speeds": [20.0, 5.0]}},
        {"partition": {"x_f_cap": 1.0}},
        {"partition": {"steps": 0}},
        {"partition": {"steps": "x"}},
        _pilot(name=5),
        _pilot(name="a/b"),
        _pilot(name=""),
        _pilot(name=".."),
    ], ids=[
        "pilot-profile-missing-b_max", "pilot-profile-negative-a_max",
        "base-profile-negative-a_max", "negative-d", "light-phase-zero", "dt-zero",
        "one-cell-axis", "entry-not-an-object", "key-the-variant-does-not-take",
        "key-an-external-pilot-does-not-take", "fail-region-one-axis", "rates-not-a-map",
        "braking-check-above-v_max", "braking-check-zero",
        "partition-speeds-increasing", "partition-one-speed", "partition-speed-above-v_max",
        "partition-cap-below-corner", "partition-zero-steps", "partition-steps-not-int",
        "name-not-a-string", "name-with-slash", "name-empty", "name-dot-dot",
    ])
    def test_refused_before_any_simulation(self, overrides, monkeypatch, tmp_path):
        def no_grid(*args, **kwargs):
            raise AssertionError("simulated a grid")

        monkeypatch.setattr(critlab.campaign, "run_grid", no_grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(one_type_raw(**overrides)))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_autopilot_names(self):
        pilots = [{"name": "a", "variant": "constant_speed"},
                  {"name": "a", "variant": "always_cautious"}]
        with pytest.raises(ConfigError, match="duplicate autopilot name"):
            CampaignConfig(raw=one_type_raw(autopilots=pilots))
