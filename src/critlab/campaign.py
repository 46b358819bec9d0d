"""Campaign orchestration: grids, determinacy, coverage, and reporting.

A campaign config (JSON, strict keys) names the autopilot variants, scenario
types, ego initial states and grid shape.  For every (autopilot, scenario
type) pair the runner classifies one grid per initial state, persists the raw
per-grid JSON (so summaries can be regenerated without re-simulating), and
aggregates a result matrix whose cells read like ``TF (9.0%) IS (4.2%)`` or
``OF-PD (2/4)``.  Grids of a built-in autopilot that differ only in scenario
type are simulated once and written under every type.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .autopilots import FACTORIES, AutopilotSpec, ExternalAutopilot, ProtocolError
from .classify import (
    CheckAbortedError,
    classify_grid,
    determinacy_check_braking,
    determinacy_check_progress,
    grid_report_dict,
    progress_probe,
    run_grid,
)
from .criticality import most_critical
from .kinematics import ADProfile
from .partition import build_partition, coverage_cap, coverage_ratio
from .scenario import ScenarioType, StaticPart, TestCase, static_from_dict
from .simulator import SimConfig

__all__ = [
    "ConfigError",
    "CampaignConfig",
    "CampaignCell",
    "CampaignReport",
    "DEFAULT_CONFIG",
    "load_config",
    "run_campaign",
    "build_autopilot",
    "determinacy_rows",
    "render_report",
    "write_outputs",
    "cell_text",
    "format_pct",
]

FAILURE_ORDER = ("TF", "IS", "IO")
OF_ORDER = ("OF-SF", "OF-PD")


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values in a campaign config."""


DEFAULT_CONFIG: dict = {
    "scenario_types": [
        "merge_yield",
        "lane_change",
        "intersection_yield",
        "intersection_light",
    ],
    "autopilots": [
        {"name": "reference", "variant": "reference"},
        {"name": "transition_flawed", "variant": "transition_flawed", "optimism": 1.3},
        {
            "name": "irrational",
            "variant": "irrational",
            "fail_region": [[29.0, 35.0], [16.0, 24.0]],
        },
        {"name": "overcautious", "variant": "overcautious", "margin_inflation": 1.15},
        {
            "name": "non_determinate_brake",
            "variant": "non_determinate_brake",
            "rates": {"5.0": 5.0, "27.5": 3.0, "30.0": 5.0},
            "profile": {"a_max": 2.0, "b_max": 5.0, "v_max": 30.0},
            "braking_check_v0": 30.0,
        },
        {
            "name": "non_determinate_accel",
            "variant": "non_determinate_accel",
            "rates": {"5.0": 2.0, "7.5": 1.0},
        },
        {"name": "always_cautious", "variant": "always_cautious"},
        {"name": "constant_speed", "variant": "constant_speed"},
    ],
    "profile": {"a_max": 2.0, "b_max": 4.0, "v_max": 15.0},
    "static": {"d": 5.0, "vl": 10.0, "light_schedule": None},
    "initial_states": [[20.0, 5.0], [25.0, 7.5], [30.0, 10.0], [35.0, 12.0]],
    "grid": {"n_a": 20, "n_f": 20, "a_lo": 0.5, "a_hi_tilde": 1.1, "f_lo": 0.5, "f_hi": 2.5},
    "partition": {"speeds": [10.0, 7.5, 5.0], "x_f_cap": None, "steps": 100},
    "sim": {"dt": 0.1, "zone_epsilon": 0.1},
    "workers": 1,
    "seed": 0,
}

_TOP_KEYS = set(DEFAULT_CONFIG)
# The object-valued sections and the keys each may carry.
_SECTION_KEYS = {k: set(v) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)}
# Autopilot entry keys read by ``build_autopilot``; the rest go to the factory.
_ENTRY_KEYS = {"name", "variant", "profile", "command", "braking_check_v0"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass
class CampaignConfig:
    """A campaign config (``raw``, the JSON as given), checked and built once.

    Everything a run uses is built here, so a config either runs or is
    refused with a ``ConfigError`` before anything is simulated.
    """

    raw: dict

    def __post_init__(self) -> None:
        try:
            self._build()
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid config: {type(exc).__name__}: {exc}") from exc

    def _section(self, key: str) -> dict:
        return {**DEFAULT_CONFIG[key], **self.raw.get(key, {})}

    def _build(self) -> None:
        cfg = self.raw
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(cfg, _TOP_KEYS, "config")
        for required in ("scenario_types", "autopilots", "initial_states"):
            if not cfg.get(required):
                raise ConfigError(f"config needs a non-empty {required!r} list")
        for section, allowed in _SECTION_KEYS.items():
            _check_keys(cfg.get(section, {}), allowed, section)

        self.scenario_types = [ScenarioType(s) for s in cfg["scenario_types"]]
        p = self._section("profile")
        self.profile = ADProfile.constant(p["a_max"], p["b_max"], p["v_max"])
        s = self._section("static")
        self._statics = {sc: static_from_dict({**s, "scenario_type": sc}) for sc in ScenarioType}
        s = self._section("sim")
        self._sim = SimConfig(dt=s["dt"], zone_epsilon=s["zone_epsilon"])
        g = self.grid = self._section("grid")
        if not all(type(g[k]) is int and g[k] >= 2 for k in ("n_a", "n_f")):
            raise ConfigError(f"grid n_a and n_f must be integers >= 2: {g['n_a']!r}, {g['n_f']!r}")
        bounds = [g[k] for k in ("a_lo", "a_hi_tilde", "f_lo", "f_hi")]
        if not all(isinstance(b, (int, float)) for b in bounds) or min(bounds[:2]) <= 0:
            raise ConfigError("grid bounds must be numbers, a_lo and a_hi_tilde positive")

        self.initial_states = [(x_e, v_e) for x_e, v_e in cfg["initial_states"]]
        for x_e, v_e in self.initial_states:
            if v_e <= 0 or v_e > self.profile.v_max:
                raise ConfigError(f"initial speed {v_e} outside (0, v_max]")
            if self.profile.braking_distance(v_e) > x_e:
                raise ConfigError(
                    f"initial state ({x_e}, {v_e}) admits no cautious stop: "
                    "every generated case would be unwinnable"
                )

        # The partition reads only the speed limit, which every scenario type
        # shares, so one partition serves the coverage row of every type.
        p = self._section("partition")
        self.partition = build_partition(
            self.initial_states[0][0], p["speeds"], self.profile,
            self.static_for(self.scenario_types[0]),
        )
        self.coverage_steps = p["steps"]
        self.x_f_cap = coverage_cap(self.partition, p["x_f_cap"], self.coverage_steps)

        self.pilots = [self.build_autopilot(e) for e in cfg["autopilots"]]
        names = [pilot.name for pilot in self.pilots]
        for name in names:
            # Each name is a directory under raw/: one path component.
            if not isinstance(name, str) or name in ("", ".", "..") or "/" in name:
                raise ConfigError(f"autopilot name {name!r} is not one non-empty path component")
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate autopilot name(s) {dupes}")
        self.braking_v0 = []  # start speed of each pilot's braking determinacy check
        for pilot, entry in zip(self.pilots, cfg["autopilots"]):
            v0 = entry.get("braking_check_v0") if isinstance(entry, dict) else None
            v0 = 0.8 * pilot.profile.v_max if v0 is None else v0
            if not 0 < v0 <= pilot.profile.v_max:
                raise ConfigError(f"braking_check_v0 {v0} of {pilot.name!r} outside (0, v_max]")
            self.braking_v0.append(v0)

    def static_for(self, scenario_type: ScenarioType) -> StaticPart:
        return self._statics[scenario_type]

    def sim_config(self) -> SimConfig:
        return self._sim

    def build_autopilot(self, entry) -> AutopilotSpec | ExternalAutopilot:
        return build_autopilot(entry, self.profile)


def build_autopilot(entry, default_profile: ADProfile) -> AutopilotSpec | ExternalAutopilot:
    """Instantiate one autopilot from a config entry (dict, name, or exec:cmd).

    A built-in entry's keys outside ``_ENTRY_KEYS`` are keyword arguments of
    its variant's factory, so a key the factory does not take is refused.
    """
    if isinstance(entry, str) and entry.startswith("exec:"):
        entry = {"command": entry[len("exec:"):]}
    elif isinstance(entry, str):
        entry = {"name": entry, "variant": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"autopilot entry {entry!r} is neither a name nor an object")
    name = entry.get("name")
    params = {k: v for k, v in entry.items() if k not in _ENTRY_KEYS}
    try:
        profile = default_profile
        if entry.get("profile"):
            p = entry["profile"]
            _check_keys(p, _SECTION_KEYS["profile"], f"autopilot {name!r} profile")
            profile = ADProfile.constant(p["a_max"], p["b_max"], p["v_max"])
        if entry.get("command"):
            _check_keys(params, set(), f"external autopilot {name!r}")
            return ExternalAutopilot(entry["command"], profile, name=name)
        variant = entry.get("variant", "reference")
        if variant not in FACTORIES:
            raise ConfigError(f"unknown autopilot variant {variant!r}")
        return FACTORIES[variant](profile, name=entry.get("name", variant), **params)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad autopilot entry {name!r}: {type(exc).__name__}: {exc}") from exc


def load_config(path: str | Path | None = None) -> CampaignConfig:
    if path is None:
        return CampaignConfig(raw=json.loads(json.dumps(DEFAULT_CONFIG)))
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return CampaignConfig(raw=data)


# -- execution -------------------------------------------------------------------


@dataclass
class CampaignCell:
    autopilot: str
    scenario_type: str
    counts: dict[str, int] = field(default_factory=dict)
    n_cells: int = 0
    of_counts: dict[str, int] = field(default_factory=dict)  # kind -> states hit
    m_states: int = 0
    zone_counts: dict[str, int] = field(default_factory=dict)
    protocol_error: bool = False

    def frequency(self, label: str) -> float:
        return self.counts.get(label, 0) / self.n_cells if self.n_cells else 0.0

    @property
    def any_failure(self) -> bool:
        return (
            self.protocol_error
            or any(self.counts.get(lab, 0) for lab in FAILURE_ORDER)
            or any(self.of_counts.values())
        )


@dataclass
class CampaignReport:
    scenario_types: list[str]
    autopilot_names: list[str]
    cells: dict[tuple[str, str], CampaignCell]
    determinacy: list[dict]
    coverage: list[dict]
    meta: dict
    # What the run did and how long each stage took; never part of the report
    # files, which stay byte-identical from run to run.
    metrics: dict = field(default_factory=dict)

    @property
    def any_failure(self) -> bool:
        if any(c.any_failure for c in self.cells.values()):
            return True
        return any(not d.get("determinate", True) for d in self.determinacy
                   if d.get("status") == "ok")

    def to_dict(self) -> dict:
        return {
            "scenario_types": self.scenario_types,
            "autopilots": self.autopilot_names,
            "cells": [
                {
                    "autopilot": c.autopilot,
                    "scenario_type": c.scenario_type,
                    "text": cell_text(c),
                    "counts": dict(sorted(c.counts.items())),
                    "n_cells": c.n_cells,
                    "of": dict(sorted(c.of_counts.items())),
                    "m_states": c.m_states,
                    "zone_counts": dict(sorted(c.zone_counts.items())),
                    "protocol_error": c.protocol_error,
                }
                for c in (self.cells[(sc, ap)] for sc in self.scenario_types
                          for ap in self.autopilot_names)
            ],
            "determinacy": self.determinacy,
            "coverage": self.coverage,
            "meta": self.meta,
        }


def _grid_values(boundary, spec: dict) -> tuple[list[float], list[float]]:
    x_tilde = boundary.x_tilde_a
    if math.isinf(x_tilde):
        x_tilde = boundary.x_hat_a * 2.0
    a_lo = spec["a_lo"] * boundary.x_hat_a
    a_hi = spec["a_hi_tilde"] * x_tilde
    f_lo = max(spec["f_lo"] * boundary.x_hat_f, 0.5)
    f_hi = max(spec["f_hi"] * boundary.x_hat_f, f_lo + 1.0)
    n_a, n_f = spec["n_a"], spec["n_f"]
    xa = [a_lo + i * (a_hi - a_lo) / (n_a - 1) for i in range(n_a)]
    xf = [f_lo + i * (f_hi - f_lo) / (n_f - 1) for i in range(n_f)]
    return xa, xf


def _task_key(pilot_index: int, static: StaticPart, x_e: float, v_e: float) -> tuple:
    # A built-in policy never reads the scenario type or the light, and the
    # type reaches a simulation only through the light and the red-light goal,
    # which cannot fire without a red phase.  So grids that differ in type
    # alone are one grid: key them by pilot, start and the schedule in effect.
    light = static.light_schedule
    if static.scenario_type is not ScenarioType.INTERSECTION_LIGHT:
        light = None
    return (pilot_index, x_e, v_e, light)


def _one_grid(args) -> tuple[dict, dict]:
    """The raw report of one grid, and its work counters (``GridResult.stats``)."""
    spec, static, x_e, v_e, grid_spec, sim_cfg = args
    boundary = most_critical(x_e, v_e, spec.profile, static)
    xa, xf = _grid_values(boundary, grid_spec)
    grid = run_grid(spec, x_e, v_e, static, xa, xf, sim_cfg)
    cls = classify_grid(grid)
    report = grid_report_dict(grid, cls)
    report["autopilot"] = spec.name
    return report, grid.stats


def _accumulate(cell: CampaignCell, report: dict) -> None:
    """Add one grid report (one ego start) into its campaign cell."""
    cell.m_states += 1
    cell.n_cells += len(report["grid"])
    for point in report["grid"]:
        cell.counts[point["label"]] = cell.counts.get(point["label"], 0) + 1
    for zone, n in report["zone_counts"].items():
        cell.zone_counts[zone] = cell.zone_counts.get(zone, 0) + n
    kind = report["of"]["kind"]
    if kind:
        cell.of_counts[kind] = cell.of_counts.get(kind, 0) + 1


def run_campaign(config: CampaignConfig, out_dir: str | Path | None = None) -> CampaignReport:
    """Run the full pipeline and (optionally) persist raw grid reports."""
    cfg = config.raw
    scenario_types = config.scenario_types
    pilots = config.pilots
    states = config.initial_states
    grid_spec = config.grid
    sim_cfg = config.sim_config()
    workers = int(cfg.get("workers", 1))
    out_path = Path(out_dir) if out_dir is not None else None

    builtin_tasks = []
    task_index: dict[tuple, int] = {}
    for i, pilot in enumerate(pilots):
        if isinstance(pilot, ExternalAutopilot):
            continue
        for sc in scenario_types:
            static = config.static_for(sc)
            for x_e, v_e in states:
                key = _task_key(i, static, x_e, v_e)
                if key not in task_index:
                    task_index[key] = len(builtin_tasks)
                    builtin_tasks.append((pilot, static, x_e, v_e, grid_spec, sim_cfg))

    stage_s: dict[str, float] = {}
    start = time.perf_counter()
    if workers > 1 and builtin_tasks:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_grid, builtin_tasks))
    else:
        results = [_one_grid(t) for t in builtin_tasks]
    grid_stats = [stats for _, stats in results]
    stage_s["builtin_grids"] = time.perf_counter() - start

    start, external_s = time.perf_counter(), 0.0
    cells: dict[tuple[str, str], CampaignCell] = {}
    for i, pilot in enumerate(pilots):
        for sc in scenario_types:
            cell = CampaignCell(autopilot=pilot.name, scenario_type=sc.value)
            static = config.static_for(sc)
            for x_e, v_e in states:
                if isinstance(pilot, ExternalAutopilot):
                    grid_start = time.perf_counter()
                    try:
                        report, stats = _one_grid((pilot, static, x_e, v_e, grid_spec, sim_cfg))
                    except ProtocolError:
                        cell.protocol_error = True
                        break
                    finally:
                        external_s += time.perf_counter() - grid_start
                    grid_stats.append(stats)
                else:
                    report = {**results[task_index[_task_key(i, static, x_e, v_e)]][0],
                              "scenario_type": sc.value}
                _accumulate(cell, report)
                if out_path is not None:
                    raw_dir = out_path / "raw" / pilot.name / sc.value
                    raw_dir.mkdir(parents=True, exist_ok=True)
                    raw_file = raw_dir / f"xe{x_e:g}_ve{v_e:g}.json"
                    raw_file.write_text(json.dumps(report, sort_keys=True, indent=1))
            cells[(sc.value, pilot.name)] = cell
    stage_s["external_grids"] = external_s
    stage_s["raw_files"] = time.perf_counter() - start - external_s

    start = time.perf_counter()
    determinacy = _determinacy_summaries(config)
    stage_s["determinacy"] = time.perf_counter() - start
    start = time.perf_counter()
    coverage = _coverage_summaries(config)
    stage_s["coverage"] = time.perf_counter() - start

    report = CampaignReport(
        scenario_types=[s.value for s in scenario_types],
        autopilot_names=[p.name for p in pilots],
        cells=cells,
        determinacy=determinacy,
        coverage=coverage,
        meta={"seed": cfg.get("seed", 0), "dt": sim_cfg.dt, "workers": workers},
        metrics=_run_metrics(grid_stats, stage_s),
    )
    for pilot in pilots:
        if isinstance(pilot, ExternalAutopilot):
            pilot.close()
    return report


def _run_metrics(grid_stats: list[dict], stage_s: dict[str, float]) -> dict:
    """``metrics.json``: the summed work counters of the grids simulated
    (each distinct grid once) and the wall time of each stage, in seconds."""
    grids = {"simulated": len(grid_stats)}
    for stats in grid_stats:
        for key, n in stats.items():
            grids[key] = grids.get(key, 0) + n
    cells = grids.get("cells", 0)
    grids["early_exit_frac"] = grids.get("early_exits", 0) / cells if cells else 0.0
    return {"grids": grids, "stage_s": stage_s}


def determinacy_rows(
    pilot: AutopilotSpec,
    v0: float,
    x_f: float,
    probe: TestCase,
    sim_cfg: SimConfig,
    restart_every: int = 5,
) -> tuple[dict, dict]:
    """The braking row (from ``v0``, obstacle at ``x_f``) and the progress row
    (restarts of ``probe``) of one built-in autopilot's determinacy checks.

    A check whose baseline run is unusable gives a row with status
    ``aborted`` (braking) or ``inapplicable`` (progress) and its ``detail``.
    """
    braking = {"autopilot": pilot.name, "maneuver": "braking", "v0": v0}
    try:
        rep = determinacy_check_braking(pilot, v0, x_f, restart_every=restart_every,
                                        dt=sim_cfg.dt)
        braking.update(status="ok", max_deviation=rep.max_deviation,
                       tol=rep.tol, determinate=rep.determinate)
    except CheckAbortedError as exc:
        braking.update(status="aborted", detail=str(exc))

    progress = {"autopilot": pilot.name, "maneuver": "progress",
                "x_e": probe.x_e, "v_e": probe.v_e}
    try:
        rep = determinacy_check_progress(pilot, probe, restart_every=restart_every,
                                         cfg=sim_cfg)
        progress.update(status="ok", max_deviation=rep.max_deviation, tol=rep.tol,
                        verdict_flips=rep.verdict_flips, determinate=rep.determinate)
    except CheckAbortedError as exc:
        progress.update(status="inapplicable", detail=str(exc))
    return braking, progress


def _determinacy_summaries(config) -> list[dict]:
    """Both checks of every built-in autopilot, from the first type and start."""
    rows = []
    static = config.static_for(config.scenario_types[0])
    x_e, v_e = config.initial_states[0]
    sim_cfg = config.sim_config()
    for pilot, v0 in zip(config.pilots, config.braking_v0):
        if isinstance(pilot, ExternalAutopilot):
            continue
        rates = [r for _, r in pilot.rate_by_initial_speed] or [pilot.profile.b_max]
        guard = 1.5 * v0 * v0 / (2.0 * min(rates)) + v0 * sim_cfg.dt
        probe = progress_probe(static, x_e, v_e, pilot.profile, sim_cfg.dt)
        rows.extend(determinacy_rows(pilot, v0, guard, probe, sim_cfg))
    return rows


def _coverage_summaries(config) -> list[dict]:
    part = config.partition
    result = coverage_ratio(part, config.x_f_cap, config.coverage_steps)
    return [
        {
            "scenario_type": sc.value,
            "x_e": part.x_e,
            "speeds": list(part.speeds),
            "ratio": result.ratio,
            "covered_volume": result.covered_volume,
            "safe_volume": result.safe_volume,
        }
        for sc in config.scenario_types
    ]


# -- rendering -------------------------------------------------------------------


def format_pct(fraction: float) -> str:
    pct = fraction * 100.0
    return f"{pct:.2f}" if pct < 1.0 else f"{pct:.1f}"


def cell_text(cell: CampaignCell) -> str:
    if cell.protocol_error:
        return "protocol-error"
    of_parts = [
        f"{kind} ({cell.of_counts[kind]}/{cell.m_states})"
        for kind in OF_ORDER
        if cell.of_counts.get(kind)
    ]
    if of_parts:
        return " ".join(of_parts)
    parts = [
        f"{lab} ({format_pct(cell.frequency(lab))}%)"
        for lab in FAILURE_ORDER
        if cell.counts.get(lab)
    ]
    return " ".join(parts) if parts else "pass"


def render_report(report: CampaignReport, fmt: str = "markdown") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario_type"] + report.autopilot_names)
        for sc in report.scenario_types:
            writer.writerow(
                [sc] + [cell_text(report.cells[(sc, ap)]) for ap in report.autopilot_names]
            )
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["# Campaign report", ""]
        lines.append(f"Seed {report.meta.get('seed')}, dt {report.meta.get('dt')} s.")
        lines.append("")
        header = "| Scenario type | " + " | ".join(report.autopilot_names) + " |"
        lines.append(header)
        lines.append("|" + " --- |" * (len(report.autopilot_names) + 1))
        for sc in report.scenario_types:
            row = [cell_text(report.cells[(sc, ap)]) for ap in report.autopilot_names]
            lines.append("| " + sc + " | " + " | ".join(row) + " |")
        lines.append("")
        lines.append("## Determinacy")
        lines.append("")
        lines.append("| autopilot | maneuver | status | max deviation | determinate |")
        lines.append("| --- | --- | --- | --- | --- |")
        for row in report.determinacy:
            dev = row.get("max_deviation")
            dev_s = f"{dev:.3f}" if isinstance(dev, float) and math.isfinite(dev) else "-"
            det = row.get("determinate")
            det_s = "-" if det is None else ("yes" if det else "no")
            lines.append(
                f"| {row['autopilot']} | {row['maneuver']} | {row.get('status')} "
                f"| {dev_s} | {det_s} |"
            )
        lines.append("")
        lines.append("## Coverage")
        lines.append("")
        lines.append("| scenario type | speeds | ratio |")
        lines.append("| --- | --- | --- |")
        for row in report.coverage:
            speeds = ", ".join(f"{v:g}" for v in row["speeds"])
            lines.append(f"| {row['scenario_type']} | {speeds} | {row['ratio']:.4f} |")
        lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")


def write_outputs(report: CampaignReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fmt, name in (("csv", "summary.csv"), ("markdown", "report.md"), ("json", "report.json")):
        path = out / name
        path.write_text(render_report(report, fmt))
        paths[fmt] = path
    return paths


def report_from_raw(raw_dir: str | Path) -> CampaignReport:
    """Rebuild the summary matrix from persisted per-grid JSON files.

    Orders rows and columns alphabetically; determinacy and coverage sections
    are not persisted per grid and come back empty.
    """
    raw = Path(raw_dir)
    cells: dict[tuple[str, str], CampaignCell] = {}
    for grid_file in sorted(raw.glob("*/*/*.json")):
        data = json.loads(grid_file.read_text())
        ap = grid_file.parent.parent.name
        sc = grid_file.parent.name
        cell = cells.setdefault(
            (sc, ap), CampaignCell(autopilot=ap, scenario_type=sc)
        )
        _accumulate(cell, data)
    if not cells:
        raise ConfigError(f"no raw grid files under {raw}")
    scenario_types = sorted({sc for sc, _ in cells})
    autopilot_names = sorted({ap for _, ap in cells})
    for sc in scenario_types:
        for ap in autopilot_names:
            cells.setdefault((sc, ap), CampaignCell(autopilot=ap, scenario_type=sc))
    return CampaignReport(
        scenario_types=scenario_types,
        autopilot_names=autopilot_names,
        cells=cells,
        determinacy=[],
        coverage=[],
        meta={"regenerated_from": str(raw)},
    )
