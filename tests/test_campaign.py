import concurrent.futures
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import critlab.autopilots
import critlab.campaign
import critlab.classify
import critlab.criticality
import critlab.simulator
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
from critlab.classify import run_grids
from critlab.kinematics import ADProfile
from critlab.scenario import (
    CAUTIOUS_MARGIN, HORIZON_SLACK, ScenarioType, TestCase, horizon_steps,
)
from critlab.simulator import VERDICTS, SimConfig, simulate, verdict

from conftest import WORK_KEYS

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
            assert (other.counts, other.n_cells, other.zone_counts, other.of_counts) == (
                cell.counts, cell.n_cells, cell.zone_counts, cell.of_counts)

    def test_zone_bookkeeping(self, small_run):
        _, report, _ = small_run
        cell = report.cells[("merge_yield", "reference")]
        assert set(cell.zone_counts) >= {"safe_progress", "cautious_only", "irrelevant"}
        assert sum(cell.zone_counts.values()) == cell.n_cells
        assert cell.zone_counts.get("non_nominal", 0) == 0

    def test_zone_counts_cover_repeated_axis_values(self):
        """From a start at ``v_max``, ``x_hat_a == x_tilde_a``, so ``a_lo`` and
        ``a_hi_tilde`` of 1 give one ``x_a`` value three times: every point
        counts, in the zones as in the labels."""
        grid = {**DEFAULT_CONFIG["grid"], "n_a": 3, "n_f": 3, "a_lo": 1.0, "a_hi_tilde": 1.0}
        raw = one_type_raw(autopilots=[{"name": "reference", "variant": "reference"}],
                           initial_states=[[35.0, 15.0]], grid=grid)
        cell = run_campaign(CampaignConfig(raw=raw)).cells[("merge_yield", "reference")]
        assert cell.n_cells == sum(cell.counts.values()) == sum(cell.zone_counts.values()) == 9

    def test_determinacy_and_coverage_sections(self, small_run):
        _, report, _ = small_run
        assert any(r["maneuver"] == "braking" for r in report.determinacy)
        assert any(r["maneuver"] == "progress" for r in report.determinacy)
        ref_rows = [r for r in report.determinacy if r["autopilot"] == "reference"]
        assert all(r.get("determinate") for r in ref_rows if r.get("status") == "ok")
        assert report.coverage and 0.0 < report.coverage[0]["ratio"] <= 1.0

    def test_throttle_rates_leave_the_braking_row_ok(self):
        """A ``non_determinate_accel`` entry's throttle rates, read as braking
        rates, once put the braking check's obstacle at 20.8 m, short of its
        36 m stop, and the row read ``aborted``."""
        raw = one_type_raw(profile={"a_max": 6.0, "b_max": 2.0, "v_max": 15.0},
                           autopilots=[{"name": "nda", "variant": "non_determinate_accel",
                                        "rates": {"5.0": 5.5}}],
                           initial_states=[[50.0, 5.0]])
        braking, _ = run_campaign(CampaignConfig(raw=raw)).determinacy
        assert braking["status"] == "ok" and braking["determinate"] is True

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


# Axis values whose text ``json.dumps`` writes in each of its forms.
_AXIS_VALUE = st.sampled_from([1e-05, 1e+16, 44.0, 0.1, -0.0, 5e-324]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def grid_reports(draw):
    """A grid report as ``grid_report_dict`` gives it, with random fields,
    axes (repeated values, ``x_a`` descending in half) and cell codes."""
    x_a = draw(st.lists(_AXIS_VALUE, min_size=1, max_size=6))
    x_f = draw(st.lists(_AXIS_VALUE, min_size=1, max_size=6))
    if draw(st.booleans()):
        x_a = sorted(x_a, reverse=True)
    n = len(x_a) * len(x_f)
    labels, verdicts, zones = (
        np.array(draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)),
                 dtype=int).reshape(len(x_a), len(x_f))
        for names in (critlab.classify.LABELS, critlab.simulator.VERDICTS,
                      critlab.criticality.ZONES))
    number = st.floats(allow_nan=False, allow_infinity=False)
    return {
        "autopilot": draw(st.text()),
        "scenario_type": "merge_yield",
        "x_e": draw(number), "v_e": draw(number),
        "boundary": {"x_hat_a": draw(number), "x_hat_f": draw(number),
                     "x_tilde_a": draw(st.none() | number), "cautious_feasible": draw(st.booleans())},
        "grid": (tuple(x_a), tuple(x_f), labels, verdicts, zones),
        "counts": {"TF": draw(st.integers(0, n))},
        "frequencies": {k: draw(number) for k in ("TF", "IS", "IO")},
        "frequencies_relevant": {k: draw(number) for k in ("TF", "IS", "IO")},
        "of": {"kind": draw(st.sampled_from([None, "OF-SF", "OF-PD"]))},
        "zone_counts": {z.value: draw(st.integers(0, n)) for z in critlab.criticality.ZONES},
    }


class TestRawWriter:
    @settings(max_examples=300, deadline=None)
    @given(grid_reports(), st.sampled_from(DEFAULT_CONFIG["scenario_types"]))
    def test_text_is_json_dumps_of_the_point_list(self, report, scenario_type):
        """The raw file is the report with its point list, as ``json.dumps``
        writes it, under the given type."""
        x_a, x_f, labels, verdicts, zones = report["grid"]
        points = [
            {"x_a": a, "x_f": f, "zone": critlab.criticality.ZONES[z].value,
             "verdict": critlab.simulator.VERDICTS[v].kind.value,
             "label": critlab.classify.LABELS[lab]}
            for (a, f), lab, v, z in zip(((a, f) for a in x_a for f in x_f), labels.ravel(),
                                         verdicts.ravel(), zones.ravel(), strict=True)
        ]
        fields = {k: v for k, v in report.items() if k != "counts"}
        expected = json.dumps({**fields, "grid": points, "scenario_type": scenario_type},
                              sort_keys=True, indent=1)
        head, tail = critlab.campaign._raw_text_parts(report)
        assert head + json.dumps(scenario_type) + tail == expected


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

    def test_stalled_pilot_marks_its_cell_and_the_campaign_ends(
        self, tmp_path, monkeypatch, hang_guard
    ):
        monkeypatch.setattr(critlab.autopilots, "STEP_DEADLINE_S", 0.3, raising=False)
        config = CampaignConfig(raw=one_type_raw(
            autopilots=[{"name": "stalled", "command": EXTERNAL + " sleep"}]))
        with hang_guard(10.0):
            report = run_campaign(config, out_dir=tmp_path)
        cell = report.cells[("merge_yield", "stalled")]
        assert cell_text(cell) == "protocol-error"
        assert "missed its deadline" in cell.protocol_error
        assert "missed its deadline" in render_report(report, "markdown")
        (row,) = report.to_dict()["cells"]
        assert row["protocol_error"] is True
        assert row["protocol_error_detail"] == cell.protocol_error

    def test_missing_program_marks_its_cell(self, tmp_path):
        config = CampaignConfig(raw=one_type_raw(
            autopilots=[{"name": "missing", "command": str(tmp_path / "no-such-pilot")}]))
        report = run_campaign(config, out_dir=tmp_path)
        assert "did not start" in report.cells[("merge_yield", "missing")].protocol_error

    def test_pilot_broken_mid_campaign_keeps_its_finished_grids(self, tmp_path):
        """Beside a built-in pilot, a pilot that breaks after its first grid
        of a type keeps that grid and loses the rest of the type; the error
        stops its process, so the next type starts a fresh one, which
        answers that type's first grid again.  The built-in cells and files
        are as a run without it has them."""
        raw = one_type_raw(
            scenario_types=["merge_yield", "lane_change"],
            initial_states=[[20.0, 5.0], [30.0, 10.0]],
            # The first grid of a type (from (20, 5)) takes 570 scenes; the
            # pilot breaks 30 scenes into the second.
            autopilots=[{"name": "reference", "variant": "reference"},
                        {"name": "broken", "command": EXTERNAL + " garbage 600"}],
        )
        runs = {
            "mixed": raw,
            "alone": {**raw, "autopilots": raw["autopilots"][:1]},
            "hold": {**raw, "initial_states": [[20.0, 5.0]],
                     "autopilots": [{"name": "broken", "command": EXTERNAL + " hold"}]},
        }
        reports, files = {}, {}
        for name, run_raw in runs.items():
            reports[name] = run_campaign(CampaignConfig(raw=run_raw), out_dir=tmp_path / name)
            raw_dir = tmp_path / name / "raw"
            files[name] = {p.relative_to(raw_dir).as_posix(): p.read_bytes()
                           for p in sorted(raw_dir.rglob("*.json"))}
        report = reports["mixed"]

        for sc in ("merge_yield", "lane_change"):
            broken = report.cells[(sc, "broken")]
            assert "malformed decision line" in broken.protocol_error
            assert (broken.counts, broken.of_counts, broken.m_states, broken.n_cells) == (
                {"TF": 9}, {"OF-SF": 1}, 1, 9)
            assert broken.zone_counts == {"cautious_only": 4, "safe_progress": 2,
                                          "irrelevant": 3, "non_nominal": 0}
        assert list(files["hold"]) == ["broken/lane_change/xe20_ve5.json",
                                       "broken/merge_yield/xe20_ve5.json"]
        assert {k: v for k, v in files["mixed"].items() if k.startswith("broken/")} == \
            files["hold"]

        errors = render_report(report, "markdown").split("## Protocol errors\n\n")[1]
        assert [line.split(":")[0] for line in errors.split("\n\n")[0].splitlines()] == [
            "- broken on merge_yield", "- broken on lane_change"]

        for sc in ("merge_yield", "lane_change"):
            assert report.cells[(sc, "reference")] == reports["alone"].cells[(sc, "reference")]
        assert {k: v for k, v in files["mixed"].items() if k.startswith("reference/")} == \
            files["alone"]

    def test_campaign_that_fails_midway_closes_its_pilot(self, tmp_path, monkeypatch):
        """A campaign that failed after its first external grid, here
        writing that grid's raw file under a plain file, once left the
        pilot's process running."""
        started = []
        start = critlab.autopilots.ExternalAutopilot._start
        monkeypatch.setattr(critlab.autopilots.ExternalAutopilot, "_start",
                            lambda pilot: started.append(pilot) or start(pilot))
        out = tmp_path / "out"
        out.write_text("")
        config = CampaignConfig(raw=one_type_raw(
            autopilots=[{"name": "ext", "command": EXTERNAL + " cautious"}]))
        with pytest.raises(NotADirectoryError):
            run_campaign(config, out_dir=out)
        assert len(started) == 1
        assert started[0]._proc is None

    def test_external_pilot_runs_a_campaign_cell(self, tmp_path):
        config = small_config(
            autopilots=[{"name": "ext_cautious", "command": EXTERNAL + " cautious"}],
            grid={"n_a": 4, "n_f": 4},
        )
        report = run_campaign(config, out_dir=tmp_path)
        cell = report.cells[("merge_yield", "ext_cautious")]
        assert not cell.protocol_error
        assert cell.n_cells == 16
        grids, determinacy = report.metrics["grids"], report.metrics["determinacy"]
        assert grids["scalar_simulate_calls"] == 16
        assert set(grids) == WORK_KEYS | {"simulated", "early_exit_frac"}
        assert set(determinacy) == WORK_KEYS
        assert grids["lockstep_batches"] == determinacy["lockstep_batches"] == 0


class TestWorkers:
    def test_parallel_matches_serial(self):
        serial = run_campaign(small_config(workers=1))
        parallel = run_campaign(small_config(workers=2))
        assert render_report(serial, "csv") == render_report(parallel, "csv")
        a, b = serial.to_dict(), parallel.to_dict()
        a.pop("meta"), b.pop("meta")  # meta echoes the differing worker count
        assert a == b

    def test_raw_tree_and_reports_match_byte_for_byte(self, tmp_path):
        """Each worker batches its own group of pilots; no file can tell."""
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            config = four_type_config(static=with_light([2.0, 2.0]), workers=workers)
            report = run_campaign(config, out_dir=out)
            report.meta.pop("workers")  # the one field that echoes the worker count
            write_outputs(report, out)
            assert report.metrics["grids"]["lockstep_batches"] == 2 * workers
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 2 * 4 * 4 + 3
        assert trees[0] == trees[1]

    @staticmethod
    def _pool_sizes(monkeypatch, cpus: int, **overrides) -> list[int]:
        """The size of each pool a campaign of ``overrides`` starts on a
        machine of ``cpus`` CPUs, recorded by a thread pool in its place, so
        that no process starts."""
        sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        raw = small_config().raw
        run_campaign(small_config(autopilots=raw["autopilots"][:1], **overrides))
        return sizes

    def test_pool_has_one_process_per_task_at_most(self, monkeypatch):
        """One pilot from two starts is two tasks: four workers start two
        processes, not four."""
        starts = [[20.0, 5.0], [25.0, 7.5]]
        assert self._pool_sizes(monkeypatch, 8, initial_states=starts, workers=4) == [2]

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, []), (None, [])],
                             ids=["two-cpus", "one-cpu", "cpus-unknown"])
    def test_pool_has_one_process_per_cpu_at_most(self, monkeypatch, cpus, sizes):
        """One pilot from four starts is four tasks: on two CPUs, four workers
        once started four processes.  One CPU, or an unknown count, runs the
        tasks in the campaign's own process."""
        starts = [[20.0, 5.0], [25.0, 7.5], [30.0, 10.0], [35.0, 12.0]]
        assert self._pool_sizes(monkeypatch, cpus, initial_states=starts, workers=4) == sizes


@st.composite
def ordered_configs(draw):
    """A small config of 1-3 of the default config's pilots from 1-3 of its
    starts, over 1-2 scenario types, and the same config with its pilots
    and its starts in a drawn order."""
    pilots = draw(st.lists(st.sampled_from(DEFAULT_CONFIG["autopilots"]), min_size=1,
                           max_size=3, unique_by=lambda entry: entry["name"]))
    starts = draw(st.lists(st.sampled_from(DEFAULT_CONFIG["initial_states"]), min_size=1,
                           max_size=3, unique_by=tuple))
    raw = one_type_raw(
        scenario_types=draw(st.lists(st.sampled_from(DEFAULT_CONFIG["scenario_types"]),
                                     min_size=1, max_size=2, unique=True)),
        autopilots=pilots, initial_states=starts,
        static=with_light(draw(st.sampled_from([None, [2.0, 2.0]]))),
        grid={**DEFAULT_CONFIG["grid"], "n_a": draw(st.integers(2, 4)),
              "n_f": draw(st.integers(2, 4))})
    return raw, {**raw, "autopilots": draw(st.permutations(pilots)),
                 "initial_states": draw(st.permutations(starts))}


def _cells_and_raw_files(raw: dict, workers: int) -> tuple[dict, dict]:
    """A campaign's ``report.json`` cells by ``(autopilot, scenario_type)``,
    and its raw files' bytes by path."""
    with tempfile.TemporaryDirectory() as out:
        report = run_campaign(CampaignConfig(raw={**raw, "workers": workers}), out_dir=out)
        files = {path.relative_to(out): path.read_bytes()
                 for path in Path(out).rglob("*") if path.is_file()}
    return {(c["autopilot"], c["scenario_type"]): c for c in report.to_dict()["cells"]}, files


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs=ordered_configs())
def test_results_depend_on_neither_the_workers_nor_the_order(configs):
    """One worker over a config, and two over the same config with its
    pilots and starts reordered, give each (pilot, type) the same cell and
    each grid the same raw file.  (The determinacy and coverage rows read
    the first start, so they follow the order by design.)"""
    raw, reordered = configs
    assert _cells_and_raw_files(raw, 1) == _cells_and_raw_files(reordered, 2)



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
        real = critlab.campaign.run_grids

        def counting(static, jobs, *args, **kwargs):
            for spec, (x_e, v_e, *_) in jobs:
                calls[(spec.name, x_e, v_e)] += 1
            return real(static, jobs, *args, **kwargs)

        monkeypatch.setattr(critlab.campaign, "run_grids", counting)
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

    @pytest.mark.parametrize("schedule, batches", [(None, 1), ([2.0, 2.0], 2)])
    def test_one_engine_call_per_schedule(self, monkeypatch, schedule, batches):
        calls = []
        real = critlab.classify.simulate_lockstep

        def counting(specs, static, x_e, v_e, *args, **kwargs):
            calls.append({(spec.name, *start) for spec, start in zip(specs, zip(x_e, v_e))})
            return real(specs, static, x_e, v_e, *args, **kwargs)

        monkeypatch.setattr(critlab.classify, "simulate_lockstep", counting)
        report = run_campaign(four_type_config(static=with_light(schedule)))
        # The first runs the determinacy baselines, from the first start; their
        # restarts ride the first task's grids.
        assert len(calls) == 1 + batches
        starts = set(map(tuple, DEFAULT_CONFIG["initial_states"]))
        names = ("reference", "transition_flawed")
        every = {(name, *start) for name in names for start in starts}
        assert calls[0] == {(name, *DEFAULT_CONFIG["initial_states"][0]) for name in names}
        assert every < calls[1] and {name for name, *_ in calls[1] - every} == set(names)
        assert all(batch == every for batch in calls[2:])
        assert report.metrics["grids"]["lockstep_batches"] == batches

    def test_one_boundary_per_grid(self, monkeypatch):
        """``most_critical`` runs once per pilot and start, where the config
        sizes the grids, though each grid runs for two static parts; a
        progress probe reads the boundary of its pilot's first grid, where
        it once computed its own."""
        calls = Counter()
        for module in (critlab.campaign, critlab.classify):
            def counting(*args, real=module.most_critical, name=module.__name__):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, "most_critical", counting)
        report = run_campaign(four_type_config(static=with_light([2.0, 2.0])))
        assert calls["critlab.campaign"] == 2 * 4
        assert report.metrics["grids"]["simulated"] == 2 * 4 * 2
        assert calls["critlab.classify"] == 0

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
            assert set(stats) == WORK_KEYS | {"simulated", "early_exit_frac"}
            assert stats["simulated"] == 8 * 4 * 2  # the light type is its own grid
            assert stats["cells"] == stats["simulated"] * 9
            assert stats["scalar_simulate_calls"] == (stats["cells"] if path == "scalar" else 0)
            assert (stats["lockstep_steps"] > 0) == (path == "lockstep")
        lockstep, scalar = self._outputs(tmp_path / "lockstep"), self._outputs(tmp_path / "scalar")
        assert len(lockstep) == 8 * 4 * 4 + 3
        assert lockstep == scalar

    @pytest.mark.parametrize("batch_cells, tasks", [(75, 3), (60, 4), (10, 8)])
    def test_tasks_cut_at_batch_cells_match_one_task_per_part(
        self, tmp_path, monkeypatch, batch_cells, tasks
    ):
        """Two pilots x four starts of 5x5 cells per static part, cut into
        ``tasks`` engine calls per part (one grid each if a grid alone
        exceeds the bound), or one per worker if that is more."""
        outputs = []
        for workers, cut in ((1, False), (1, True), (2, True)):
            if cut:
                monkeypatch.setattr(critlab.campaign, "BATCH_CELLS", batch_cells)
            out = tmp_path / f"w{workers}-{cut}"
            config = four_type_config(static=with_light([2.0, 2.0]), workers=workers)
            report = run_campaign(config, out_dir=out)
            report.meta.pop("workers")  # the one field that echoes the worker count
            write_outputs(report, out)
            calls = max(workers, tasks) if cut else 1
            assert report.metrics["grids"]["lockstep_batches"] == 2 * calls
            outputs.append(self._outputs(out))
        assert len(outputs[0]) == 2 * 4 * 4 + 3
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.integers(1, 1 << 18), st.integers(1, 8))
@example(32, 100 * 100, 1)
@example(7, (1 << 16) + 1, 2)
def test_split_keeps_whole_grids_in_order_within_the_cell_bound(n_jobs, grid_cells, workers):
    jobs = list(range(n_jobs))
    tasks = critlab.campaign._groups(jobs, grid_cells, workers)
    bound = critlab.campaign.BATCH_CELLS
    assert [job for task in tasks for job in task] == jobs
    assert all(len(task) * grid_cells <= bound or len(task) == 1 for task in tasks)
    assert all(tasks) and len(tasks) >= min(workers, n_jobs)


class TestRunMetrics:
    """``metrics.json`` counts the work as it happens."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of ``simulate`` and ``verdict`` and ``SimOutcome``s built."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountedOutcome(critlab.simulator.SimOutcome):
            def __init__(self, *args, **kwargs):
                calls["SimOutcome"] += 1
                super().__init__(*args, **kwargs)

        for name in ("simulate", "verdict"):
            monkeypatch.setattr(critlab.classify, name,
                                counting(name, getattr(critlab.classify, name)))
        monkeypatch.setattr(critlab.simulator, "SimOutcome", CountedOutcome)
        return calls

    def test_default_config_at_6x6(self, calls, monkeypatch):
        """One engine call for the 8 determinacy baselines, and one for the
        grids of all 8 pilots, which carries the 25 restarts (3 of the 8
        checks are inapplicable); no ``simulate`` call.  The counters keep
        the grids' cells and the checks' cells apart."""
        engine_runs = []
        real = critlab.classify.simulate_lockstep

        def counting(pilots, *args, **kwargs):
            engine_runs.append(len(pilots))
            return real(pilots, *args, **kwargs)

        monkeypatch.setattr(critlab.classify, "simulate_lockstep", counting)
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw["grid"] = {**raw["grid"], "n_a": 6, "n_f": 6}
        report = run_campaign(CampaignConfig(raw=raw))
        assert report.metrics["grids"] == {
            "simulated": 32, "cells": 1152, "cell_steps": 54744, "early_exits": 1152,
            "early_exit_frac": 1.0, "lockstep_batches": 1, "lockstep_steps": 117,
            "scalar_simulate_calls": 0}
        assert report.metrics["determinacy"] == {
            "cells": 33, "cell_steps": 1292, "early_exits": 33, "lockstep_batches": 1,
            "lockstep_steps": 53, "scalar_simulate_calls": 0}
        assert calls["simulate"] == 0
        assert engine_runs == [8, 8 * 4 + 25]

    def test_lockstep_grids_build_no_outcome_and_call_no_verdict(self, calls):
        """A campaign of built-in pilots, its determinacy checks included,
        calls no ``simulate`` and no ``verdict`` and builds no outcome."""
        report = run_campaign(four_type_config(static=with_light([2.0, 2.0])))
        assert report.metrics["grids"]["cells"] == 2 * 2 * 4 * 25
        assert report.metrics["determinacy"]["scalar_simulate_calls"] == 0
        assert dict(calls) == {}


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

    def test_raw_cells_re_simulate_to_their_verdicts(self, tmp_path):
        """Every raw cell, run again as the ``TestCase`` of its geometry
        under the config's ``SimConfig``, gets the verdict of its raw file.
        A case once sized its horizon in 0.1 s steps whatever step it ran
        at, and 51 of these 512 cells got another verdict at 0.05 s."""
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
        raw["scenario_types"] = ["merge_yield"]
        raw["grid"] = {**raw["grid"], "n_a": 4, "n_f": 4}
        raw["sim"] = {**raw["sim"], "dt": 0.05}
        config = CampaignConfig(raw=raw)
        run_campaign(config, out_dir=tmp_path)
        pilots = {pilot.name: pilot for pilot in config.pilots}
        static = config.static_for(ScenarioType.MERGE_YIELD)
        verdicts = []
        for path in sorted((tmp_path / "raw").rglob("*.json")):
            grid = json.loads(path.read_text())
            for point in grid["grid"]:
                tc = TestCase(static, grid["x_e"], grid["v_e"], point["x_a"], point["x_f"])
                out = simulate(pilots[grid["autopilot"]], tc, config.sim_config())
                verdicts.append((verdict(out).kind.value, point["verdict"]))
        assert len(verdicts) == 8 * 4 * 16
        assert [got for got, _ in verdicts] == [want for _, want in verdicts]


def one_type_raw(**overrides):
    """A 1-type, 3x3 config as JSON, with top-level keys replaced."""
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    raw["scenario_types"] = ["merge_yield"]
    raw["grid"] = {**raw["grid"], "n_a": 3, "n_f": 3}
    raw.update(overrides)
    return raw


def _pilot(**entry):
    return {"autopilots": [{"name": "p", "variant": "reference", **entry}]}


@st.composite
def fold_configs(draw):
    """A small config of 1-3 of the default config's pilots from 1-2 of its
    starts, over 1-4 scenario types in a drawn order, with no light schedule,
    ``[2, 2]`` or ``[1, 1]``, at ``dt`` 0.1 or 0.05.  Of the two schedules,
    only ``[1, 1]`` turns red while a default probe's restarts run, and so
    tells the first static part from the light's."""
    pilots = draw(st.lists(st.sampled_from(DEFAULT_CONFIG["autopilots"]), min_size=1,
                           max_size=3, unique_by=lambda entry: entry["name"]))
    starts = draw(st.lists(st.sampled_from(DEFAULT_CONFIG["initial_states"]), min_size=1,
                           max_size=2, unique_by=tuple))
    types = draw(st.permutations(DEFAULT_CONFIG["scenario_types"]))[:draw(st.integers(1, 4))]
    return one_type_raw(
        scenario_types=types, autopilots=pilots, initial_states=starts,
        static=with_light(draw(st.sampled_from([None, [2.0, 2.0], [1.0, 1.0]]))),
        sim={**DEFAULT_CONFIG["sim"], "dt": draw(st.sampled_from([0.1, 0.05]))})


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=fold_configs())
@example(raw=one_type_raw(autopilots=DEFAULT_CONFIG["autopilots"][:3],
                          scenario_types=["merge_yield", "intersection_light"],
                          static=with_light([1.0, 1.0])))
def test_determinacy_rows_match_the_checks_run_alone(raw):
    """A campaign's restarts ride a grid task's engine call, and its
    ``report.json`` determinacy rows are those of ``determinacy_rows`` run
    alone, bit for bit, at one worker and at two."""
    config = CampaignConfig(raw=raw)
    alone = json.dumps(critlab.campaign.determinacy_rows(config.determinacy_checks,
                                                         config.sim_config()))
    for workers in (1, 2):
        report = run_campaign(CampaignConfig(raw={**raw, "workers": workers}))
        assert json.dumps(report.to_dict()["determinacy"]) == alone


@st.composite
def dt_grids(draw):
    """The default config's pilots from one drawn start, over a 3x3 to 5x5
    grid, at ``dt`` 0.1 or 0.05.  The start can brake to a stop at least
    0.5 m short of the cautious stop point, ``d + CAUTIOUS_MARGIN`` before
    the conflict point, on the default profile, and so on every pilot's.
    Nearer starts include those on the frontier of a start's own, between
    stopping short and not, which no grid cell borders: from (5.5, 2.0) the
    ego brakes to a stop just at the zone's edge, and
    ``always_cautious`` passes every cell at ``dt`` 0.1 and fails every
    cell at 0.05."""
    v_e = draw(st.floats(0.5, DEFAULT_CONFIG["profile"]["v_max"]))
    stop = DEFAULT_CONFIG["static"]["d"] + CAUTIOUS_MARGIN
    x_e = stop + v_e * v_e / (2 * DEFAULT_CONFIG["profile"]["b_max"]) + draw(st.floats(0.5, 30.0))
    return one_type_raw(
        initial_states=[[x_e, v_e]],
        grid={**DEFAULT_CONFIG["grid"], "n_a": draw(st.integers(3, 5)),
              "n_f": draw(st.integers(3, 5))},
        sim={**DEFAULT_CONFIG["sim"], "dt": draw(st.sampled_from([0.1, 0.05]))})


# A start whose verdict kinds move with the step: at dt / 2, the second row
# of reference's 5x5 grid turns from cautious passes to failures.
_FLIPS_AT_HALF_DT = one_type_raw(
    initial_states=[[16.0, 11.0]], grid={**DEFAULT_CONFIG["grid"], "n_a": 5, "n_f": 5})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=dt_grids())
@example(raw=_FLIPS_AT_HALF_DT)
def test_halving_dt_changes_verdict_kinds_only_on_a_frontier(raw):
    """A cell whose verdict kind differs between ``dt`` and ``dt / 2`` has a
    4-neighbour of its other kind in one of the two grids: ``dt`` moves a
    frontier by about one step, and changes no cell inside a region of one
    kind.  It reads the cells whose four neighbours are all in the grid: a
    frontier may run just outside it.  (The slowest starts show why: from
    0.5 m/s, ``non_determinate_brake`` stops in one step of 0.1 s, but at
    0.05 s it creeps on and runs out of horizon, all along the grid's
    lowest ``x_a``.)"""
    config = CampaignConfig(raw=raw)
    jobs = [(pilot, grid) for pilot in config.pilots for grid in config.grids[pilot.name]]
    dt, static = config.sim_config().dt, config.static_for(ScenarioType.MERGE_YIELD)
    coarse, fine = ([[[VERDICTS[code].kind for code in row] for row in result.verdicts.tolist()]
                     for result in run_grids(static, jobs, SimConfig(dt=step))]
                    for step in (dt, dt / 2))
    for (pilot, _), a, b in zip(jobs, coarse, fine):
        for i, j in itertools.product(range(1, len(a) - 1), range(1, len(a[0]) - 1)):
            if a[i][j] is not b[i][j]:
                around = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                assert any(a[k][m] is b[i][j] or b[k][m] is a[i][j] for k, m in around), \
                    (pilot.name, i, j)


class TestLoadTimeRejection:
    """A config the schema accepts runs, or is refused at load with a ConfigError."""

    # A row's ``field``, if any, is text the refusal must hold: the key and
    # the JSON type it expects.
    @pytest.mark.parametrize("overrides, field", [(row, None) for row in [
        _pilot(profile={"a_max": 2.0, "c_max": 15.0}),
        _pilot(profile={"a_max": -2.0, "b_max": 4.0, "v_max": 15.0}),
        {"profile": {"a_max": -1.0, "b_max": 4.0, "v_max": 15.0}},
        {"static": {"d": -1.0, "vl": 10.0, "light_schedule": None}},
        {"static": {"d": 5.0, "vl": 10.0, "light_schedule": [0, 1]}},
        {"sim": {"dt": 0, "zone_epsilon": 0.1}},
        {"grid": {"n_a": 1}},
        {"autopilots": [3]},
        _pilot(optimism=5),
        {"autopilots": [{"name": "ext", "command": "true", "optimism": 2}]},
        {"autopilots": [{"name": "ext", "command": ""}]},
        {"autopilots": [{"name": "ext", "command": "'unclosed"}]},
        {"autopilots": [{"name": "ext", "command": ["python3", "pilot.py"]}]},
        _pilot(variant="irrational", fail_region=[[29.0, 35.0]]),
        _pilot(variant="non_determinate_accel", rates=[1.0, 2.0]),
        _pilot(braking_check_v0=40.0),
        _pilot(braking_check_v0=0.0),
        {"partition": {"speeds": [5.0, 10.0]}},
        {"partition": {"speeds": [10.0]}},
        {"partition": {"speeds": [20.0, 5.0]}},
        {"partition": {"x_f_cap": 1.0}},
        {"partition": {"steps": 0}},
        _pilot(name=5),
        _pilot(name="a/b"),
        _pilot(name=""),
        _pilot(name=".."),
        {"grid": {"a_lo": math.nan}},
        {"grid": {"a_hi_tilde": math.inf}},
        {"grid": {"f_lo": math.nan}},
        {"static": {"d": math.nan}},
        {"static": {"vl": math.inf}},
        {"static": {"light_schedule": [math.nan, 2.0]}},
        {"sim": {"dt": math.nan}},
        {"sim": {"dt": math.inf}},
        {"sim": {"zone_epsilon": math.nan}},
        {"partition": {"x_f_cap": math.nan}},
        _pilot(variant="transition_flawed", optimism=math.inf),
        _pilot(variant="non_determinate_accel", rates={"nan": 1.0}),
        {"workers": 0},
        {"workers": -1},
        {"workers": "x"},
        {"workers": None},
        {"workers": [2]},
        {"workers": 2.0},
        {"initial_states": [[20.0, 5.0], [20, 5]]},
        {"initial_states": [[20.0, 5.0], [20.000001, 5.0]]},
        _pilot(profile={"a_max": 2.0, "b_max": 4.0, "v_max": 10.0}),
        {"autopilots": [{"name": "reference", "variant": "reference"},
                        {"name": "cautious", "command": EXTERNAL + " cautious",
                         "profile": {"a_max": 2.0, "b_max": 4.0, "v_max": 10.0}}],
         "initial_states": [[20, 5], [35, 12]],
         "scenario_types": ["merge_yield", "lane_change"]},
        {**_pilot(profile={"a_max": 2.0, "b_max": 1.0, "v_max": 15.0}),
         "initial_states": [[20.0, 12.0]]},
        {"scenario_types": ["merge_yield", "merge_yield"]},
        _pilot(name="ref\0x"),
        {"initial_states": [[20.0, True]]},
        {"grid": {"a_lo": True}},
        {"autopilots": [{"name": "ext", "command": EXTERNAL, "braking_check_v0": 10.0}]},
        {"autopilots": [{"name": "ext", "command": EXTERNAL, "variant": "always_cautious"}]},
        {"initial_states": [[1e300, 5.0]]},
        {"sim": {"dt": 1e-300}},
        {"autopilots": ["reference"], "initial_states": [[20.0, 5.0]],
         "grid": {"a_hi_tilde": 1e-17}},
    ]] + [
        ({"profile": None}, "profile must be a JSON object, got null"),
        ({"static": None}, "static must be a JSON object, got null"),
        ({"grid": [20, 20]}, "grid must be a JSON object, got [20, 20]"),
        ({"partition": None}, "partition must be a JSON object, got null"),
        ({"sim": 0.1}, "sim must be a JSON object, got 0.1"),
        (_pilot(profile=None), "autopilot 'p' profile must be a JSON object, got null"),
        ({"autopilots": "reference"}, 'autopilots must be a non-empty JSON array, got "reference"'),
        ({"scenario_types": "merge_yield"},
         'scenario_types must be a non-empty JSON array, got "merge_yield"'),
        ({"initial_states": [20.0, 5.0]}, "initial_states[0] must be an [x_e, v_e] array"),
        ({"initial_states": [[20.0, 5.0], [25.0]]},
         "initial_states[1] must be an [x_e, v_e] array"),
        ({"initial_states": [[20.0, "5"]]}, "initial_states[0] must be an [x_e, v_e] array"),
        ({"scenario_types": ["merge"]}, 'scenario_types[0] must be one of ["merge_yield", '),
        ({"partition": {"speeds": "10"}},
         'partition speeds must be an array of numbers, got "10"'),
        ({"partition": {"speeds": [10.0, "a"]}}, 'partition speeds[1] must be a number, got "a"'),
        ({"partition": {"x_f_cap": "1"}}, 'partition x_f_cap must be null or a number, got "1"'),
        ({"sim": {"dt": "0.1"}}, 'sim dt must be a number, got "0.1"'),
        ({"sim": {"zone_epsilon": None}}, "sim zone_epsilon must be a number, got null"),
        ({"static": {"d": "5"}}, 'static d must be a number, got "5"'),
        ({"static": {"light_schedule": [2.0, "x"]}},
         'static light_schedule[1] must be a number, got "x"'),
        ({"profile": {"a_max": "2"}}, 'profile a_max must be a number, got "2"'),
        (_pilot(profile={"v_max": "15"}),
         "autopilot 'p' profile v_max must be a number, got \"15\""),
        ({"partition": {"steps": "x"}}, 'partition steps must be an integer >= 1, got "x"'),
        (_pilot(braking_check_v0="30"),
         "autopilot 'p' braking_check_v0 must be null or a number, got \"30\""),
    ], ids=[
        "pilot-profile-typo", "pilot-profile-negative-a_max",
        "base-profile-negative-a_max", "negative-d", "light-phase-zero", "dt-zero",
        "one-cell-axis", "entry-not-an-object", "key-the-variant-does-not-take",
        "key-an-external-pilot-does-not-take", "empty-command", "command-unclosed-quote",
        "command-not-a-string", "fail-region-one-axis", "rates-not-a-map",
        "braking-check-above-v_max", "braking-check-zero",
        "partition-speeds-increasing", "partition-one-speed", "partition-speed-above-v_max",
        "partition-cap-below-corner", "partition-zero-steps",
        "name-not-a-string", "name-with-slash", "name-empty", "name-dot-dot",
        "grid-a_lo-nan", "grid-a_hi_tilde-inf", "grid-f_lo-nan", "static-d-nan",
        "static-vl-inf", "light-phase-nan", "dt-nan", "dt-inf", "zone-epsilon-nan",
        "partition-cap-nan", "pilot-parameter-inf", "rate-speed-nan", "workers-zero",
        "workers-negative", "workers-string", "workers-null", "workers-list", "workers-float",
        "start-repeated", "start-sharing-a-raw-file", "start-above-builtin-pilot-v_max",
        "start-above-external-pilot-v_max", "start-unstoppable-for-pilot-profile",
        "scenario-type-repeated", "name-with-nul", "start-speed-true", "grid-a_lo-true",
        "braking-check-on-an-external-pilot", "variant-on-an-external-pilot",
        "start-with-runs-past-int64-steps", "dt-with-runs-past-int64-steps",
        "grid-x_a-axis-reaching-zero",
        "profile-null", "static-null", "grid-an-array", "partition-null", "sim-a-number",
        "pilot-profile-null", "autopilots-a-string", "scenario-types-a-string",
        "initial-state-a-number", "initial-state-one-number", "initial-state-speed-a-string",
        "scenario-type-unknown", "partition-speeds-a-string", "partition-speed-a-string",
        "partition-cap-a-string", "dt-a-string", "zone-epsilon-null", "static-d-a-string",
        "light-phase-a-string", "profile-a_max-a-string", "pilot-profile-v_max-a-string",
        "partition-steps-not-int", "braking-check-a-string",
    ])
    def test_refused_before_any_simulation(self, overrides, field, monkeypatch, tmp_path):
        def no_grid(*args, **kwargs):
            raise AssertionError("simulated a grid")

        monkeypatch.setattr(critlab.campaign, "run_grids", no_grid)
        monkeypatch.setattr(critlab.classify, "simulate", no_grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(one_type_raw(**overrides)))
        with pytest.raises(ConfigError, match=field and re.escape(field)):
            load_config(path)

    def test_light_schedule_of_three_phases_is_named(self):
        """It once read ``too many values to unpack (expected 2)``."""
        raw = one_type_raw(static={"d": 5.0, "vl": 10.0, "light_schedule": [2.0, 2.0, 2.0]})
        with pytest.raises(ConfigError, match="light_schedule must be two phases"):
            CampaignConfig(raw=raw)

    def test_entry_profile_takes_missing_keys_from_the_config_profile(self):
        """It was once refused: ``bad autopilot entry 'p': KeyError: 'a_max'``,
        where the same object as the top-level ``profile`` loads."""
        config = CampaignConfig(raw=one_type_raw(
            profile={"a_max": 3.0, "b_max": 5.0}, **_pilot(profile={"v_max": 20.0})))
        assert config.profile == ADProfile(3.0, 5.0, 15.0)
        assert config.pilots[0].profile == ADProfile(3.0, 5.0, 20.0)

    def test_duplicate_autopilot_names(self):
        pilots = [{"name": "a", "variant": "constant_speed"},
                  {"name": "a", "variant": "always_cautious"}]
        with pytest.raises(ConfigError, match="duplicate autopilot name"):
            CampaignConfig(raw=one_type_raw(autopilots=pilots))


# -- an accepted config runs ------------------------------------------------------

# Where a drawn value goes: a path into the config, or a function of the
# config and the value.  Each is a key of ``DEFAULT_CONFIG`` a campaign reads.
_EDITS = [
    *(("profile", k) for k in ("a_max", "b_max", "v_max")),
    *(("autopilots", 4, "profile", k) for k in ("a_max", "b_max", "v_max")),
    ("autopilots", 4, "braking_check_v0"),
    ("autopilots", 4, "rates", "27.5"),
    ("autopilots", 5, "rates", "7.5"),
    lambda raw, x: raw["autopilots"][4]["rates"].update({repr(x): 3.0}),
    lambda raw, x: raw["autopilots"][5]["rates"].update({repr(x): 1.5}),
    *(("static", k) for k in ("d", "vl")),
    lambda raw, x: raw["static"].update(light_schedule=[x, 2.0]),
    lambda raw, x: raw["static"].update(light_schedule=[2.0, x]),
    *(("sim", k) for k in ("dt", "zone_epsilon")),
    *(("grid", k) for k in ("a_lo", "a_hi_tilde", "f_lo", "f_hi")),
    *(("initial_states", i, j) for i in range(4) for j in range(2)),
    ("partition", "x_f_cap"),
]


def _edit(raw: dict, where, value: float) -> None:
    if callable(where):
        where(raw, value)
        return
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value


@st.composite
def extreme_configs(draw):
    """``DEFAULT_CONFIG`` at 2-3 cells per axis and at most 5 partition
    steps, with one to three values replaced by finite extremes."""
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    raw["grid"].update(n_a=draw(st.integers(2, 3)), n_f=draw(st.integers(2, 3)))
    raw["partition"]["steps"] = draw(st.integers(1, 5))
    extremes = st.floats(1e-15, 1e-3) | st.floats(1e3, 1e15)
    for where in draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3)):
        _edit(raw, where, draw(extremes))
    return raw


def _plan_cost(config: CampaignConfig) -> dict[str, float]:
    """What running ``config`` costs, in closed form from its planned runs:
    the engine's batch steps (its longest run), the cell steps of the grids
    and progress checks (horizons, at most), and the braking checks' array
    steps and lane steps.  The baselines brake together and then all the
    restarts, so the array steps are the longest baseline's ``N`` steps from
    ``v0`` and the longest restart's ``N_max``; a check's lanes take about
    ``N + N / 5 * N_max`` steps."""
    static, dt = config.static_for(config.scenario_types[0]), config.sim_config().dt
    parts = len({critlab.campaign._part_key(config.static_for(sc))
                 for sc in config.scenario_types})
    batch = cells = lanes = 0
    longest = [0.0, 0.0]  # the longest baseline and restart, in steps
    for grids in config.grids.values():
        for _, _, x_a, x_f, _ in grids:
            horizons = horizon_steps(static, np.asarray(x_a), dt, HORIZON_SLACK)
            batch = max(batch, int(horizons.max()))
            cells += parts * int(horizons.sum()) * len(x_f)
    for pilot, v0, probe in config.determinacy_checks:
        n = probe.steps(dt)
        batch = max(batch, n)
        cells += n + n // 5 * n  # the baseline, then a restart every 5 steps
        rates = [pilot.brake_rate_for(v) for v in (v0, *dict(pilot.rate_by_initial_speed))]
        n, n_max = v0 / (pilot.brake_rate_for(v0) * dt), v0 / (min(rates) * dt)
        longest = [max(longest[0], n), max(longest[1], n_max)]
        lanes += n + n / 5 * n_max
    return {"batch_steps": batch, "cell_steps": cells, "braking_steps": sum(longest),
            "braking_lane_steps": lanes}


_COST_BOUND = {"batch_steps": 3_000, "cell_steps": 300_000, "braking_steps": 300_000,
               "braking_lane_steps": 30_000_000}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(raw=extreme_configs())
@example(raw={"scenario_types": ["merge_yield"], "autopilots": ["reference"],
          "initial_states": [[20.0, 5.0]], "grid": {"a_hi_tilde": 1e-17}})
def test_an_accepted_config_runs(raw, hang_guard):
    """Every config the loader accepts runs: ``CampaignConfig`` refuses it
    with a ``ConfigError``, or ``run_campaign`` returns.  Only a config whose
    planned runs cost too much to run here is left out, never one for how it
    fails.  The example's last ``x_a`` rounds to 0.0, which the loader once
    accepted and the engine refused after load."""
    try:
        config = CampaignConfig(raw=raw)
    except ConfigError:
        return
    cost = _plan_cost(config)
    assume(all(cost[k] <= bound for k, bound in _COST_BOUND.items()))
    with hang_guard(60.0):
        run_campaign(config)
