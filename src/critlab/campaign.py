"""Campaign orchestration: grids, determinacy, coverage, and reporting.

A campaign config (JSON, strict keys) names the autopilot variants, scenario
types, ego initial states and grid shape.  For every (autopilot, scenario
type) pair the runner classifies one grid per initial state, persists the raw
per-grid JSON (so summaries can be regenerated without re-simulating), and
aggregates a result matrix whose cells read like ``TF (9.0%) IS (4.2%)`` or
``OF-PD (2/4)``.  Grids of a built-in autopilot that differ only in scenario
type are simulated and serialised once and written under every type.  The
built-in grids, one per (pilot, start) job, are split once into tasks of
whole grids (``_groups``): one per worker, or more to keep each within
``BATCH_CELLS`` cells; each task over a static part is one ``run_grids``
call, which steps all its grids together, the first task the restarts of
the determinacy checks with them.  Each grid report, built-in or
external, is recorded as its task finishes: added to its cells, serialised
once, written under each of its types, and dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .autopilots import FACTORIES, AutopilotSpec, ExternalAutopilot, ProtocolError
from .classify import (
    FAILURE_LABELS,
    LABELS,
    RESTART_EVERY,
    CheckAbortedError,
    Grid,
    Riders,
    classify_grid,  # noqa: F401  re-exported: callers look it up on this module
    classify_grids,
    determinacy_check_braking,
    determinacy_check_progress,
    progress_baselines,
    progress_probe,
    progress_reports,
    run_grid,  # noqa: F401  re-exported: callers look it up on this module
    run_grids,
)
from .criticality import ZONES, most_critical
from .kinematics import ADProfile
from .partition import COVERAGE_STEPS, build_partition, coverage_ratio
from .scenario import (
    DEFAULT_D,
    DEFAULT_DT,
    HORIZON_SLACK,
    ScenarioType,
    StaticPart,
    TestCase,
    horizon_steps,
    static_from_dict,
)
from .simulator import VERDICTS, ZONE_EPSILON, SimConfig

__all__ = [
    "ConfigError",
    "CampaignConfig",
    "CampaignCell",
    "CampaignReport",
    "DEFAULT_CONFIG",
    "load_config",
    "run_campaign",
    "build_autopilot",
    "determinacy_check",
    "determinacy_rows",
    "render_report",
    "write_outputs",
    "cell_text",
    "format_pct",
]

OF_ORDER = ("OF-SF", "OF-PD")


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values in a campaign config."""


DEFAULT_CONFIG: dict = {
    "scenario_types": ["merge_yield", "lane_change", "intersection_yield", "intersection_light"],
    "autopilots": [
        {"name": "reference", "variant": "reference"},
        {"name": "transition_flawed", "variant": "transition_flawed", "optimism": 1.3},
        {"name": "irrational", "variant": "irrational",
         "fail_region": [[29.0, 35.0], [16.0, 24.0]]},
        {"name": "overcautious", "variant": "overcautious", "margin_inflation": 1.15},
        {
            "name": "non_determinate_brake",
            "variant": "non_determinate_brake",
            "rates": {"5.0": 5.0, "27.5": 3.0, "30.0": 5.0},
            "profile": {"a_max": 2.0, "b_max": 5.0, "v_max": 30.0},
            "braking_check_v0": 30.0,
        },
        {"name": "non_determinate_accel", "variant": "non_determinate_accel",
         "rates": {"5.0": 2.0, "7.5": 1.0}},
        {"name": "always_cautious", "variant": "always_cautious"},
        {"name": "constant_speed", "variant": "constant_speed"},
    ],
    "profile": {"a_max": 2.0, "b_max": 4.0, "v_max": 15.0},
    "static": {"d": DEFAULT_D, "vl": 10.0, "light_schedule": None},
    "initial_states": [[20.0, 5.0], [25.0, 7.5], [30.0, 10.0], [35.0, 12.0]],
    "grid": {"n_a": 20, "n_f": 20, "a_lo": 0.5, "a_hi_tilde": 1.1, "f_lo": 0.5, "f_hi": 2.5},
    "partition": {"speeds": [10.0, 7.5, 5.0], "x_f_cap": None, "steps": COVERAGE_STEPS},
    "sim": {"dt": DEFAULT_DT, "zone_epsilon": ZONE_EPSILON},
    "workers": 1,
    "seed": 0,
}

_TOP_KEYS = set(DEFAULT_CONFIG)
# The object-valued sections and the keys each may carry.
_SECTION_KEYS = {k: set(v) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)}
# Autopilot entry keys read by ``build_autopilot``; the rest go to the factory.
_ENTRY_KEYS = {"name", "variant", "profile", "command", "braking_check_v0"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(section)}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check_number(value, where: str, nullable: bool = False) -> None:
    """Refuse ``value`` unless it is a JSON number (or null, if ``nullable``),
    naming the field ``where``; a boolean is not a number."""
    if not (type(value) in (int, float) or nullable and value is None):
        raise ConfigError(f"{where} must be {'null or ' * nullable}a number, "
                          f"got {json.dumps(value)}")


def _check_numbers(value, where: str, nullable: bool = False) -> None:
    """``_check_number`` for an array of numbers."""
    if nullable and value is None:
        return
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be {'null or ' * nullable}an array of numbers, "
                          f"got {json.dumps(value)}")
    for i, item in enumerate(value):
        _check_number(item, f"{where}[{i}]")


def _check_finite(value, where: str) -> None:
    """Refuse a NaN or infinite number anywhere in ``value``: Python's JSON
    parser reads ``NaN`` and ``Infinity``; and a boolean, which no key takes
    and Python would read as the number 0 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{json.dumps(value)} in {where}: a boolean or non-finite number")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_finite(item, f"{where}[{key!r}]")


@dataclass
class CampaignConfig:
    """A campaign config (``raw``, the JSON as given), checked and built once.

    Everything a run uses is built here, the runs included (the pilots split
    into ``builtin`` and ``external``, each pilot's ``grids``, each built-in
    pilot's ``determinacy_checks``), so a config either runs or is refused
    with a ``ConfigError`` before anything is simulated.
    """

    raw: dict

    def __post_init__(self) -> None:
        start = time.perf_counter()
        try:
            self._build()
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid config: {type(exc).__name__}: {exc}") from exc
        self.load_s = time.perf_counter() - start  # s, checking and planning

    def _section(self, key: str) -> dict:
        return {**DEFAULT_CONFIG[key], **self.raw.get(key, {})}

    def _build(self) -> None:
        cfg = self.raw
        _check_keys(cfg, _TOP_KEYS, "config")
        _check_finite(cfg, "config")
        for required in ("scenario_types", "autopilots", "initial_states"):
            if not isinstance(cfg.get(required), list) or not cfg[required]:
                raise ConfigError(f"{required} must be a non-empty JSON array, "
                                  f"got {json.dumps(cfg.get(required))}")
        for section, allowed in _SECTION_KEYS.items():
            _check_keys(cfg.get(section, {}), allowed, section)

        names = [sc.value for sc in ScenarioType]
        for i, name in enumerate(cfg["scenario_types"]):
            if name not in names:
                raise ConfigError(f"scenario_types[{i}] must be one of {json.dumps(names)}, "
                                  f"got {json.dumps(name)}")
        self.scenario_types = [ScenarioType(s) for s in cfg["scenario_types"]]
        if len(set(self.scenario_types)) < len(self.scenario_types):
            raise ConfigError(f"repeated scenario type in {cfg['scenario_types']}")
        self.profile = _read_profile(cfg.get("profile", {}), ADProfile(**DEFAULT_CONFIG["profile"]),
                                    "profile")
        s = self._section("static")
        for key in ("d", "vl"):
            _check_number(s[key], f"static {key}")
        _check_numbers(s["light_schedule"], "static light_schedule", nullable=True)
        self._statics = {sc: static_from_dict({**s, "scenario_type": sc}) for sc in ScenarioType}
        s = self._section("sim")
        for key in s:
            _check_number(s[key], f"sim {key}")
        self._sim = SimConfig(dt=s["dt"], zone_epsilon=s["zone_epsilon"])
        g = self.grid = self._section("grid")
        if not all(type(g[k]) is int and g[k] >= 2 for k in ("n_a", "n_f")):
            raise ConfigError(f"grid n_a and n_f must be integers >= 2: {g['n_a']!r}, {g['n_f']!r}")
        for key in ("a_lo", "a_hi_tilde", "f_lo", "f_hi"):
            _check_number(g[key], f"grid {key}")
        if min(g["a_lo"], g["a_hi_tilde"]) <= 0:
            raise ConfigError("grid a_lo and a_hi_tilde must be positive")
        self.workers = cfg.get("workers", DEFAULT_CONFIG["workers"])
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1: {self.workers!r}")

        self.initial_states, raw_files = [], set()
        for i, state in enumerate(cfg["initial_states"]):
            if not (type(state) is list and len(state) == 2
                    and all(type(n) in (int, float) for n in state)):
                raise ConfigError(f"initial_states[{i}] must be an [x_e, v_e] array of two "
                                  f"numbers, got {json.dumps(state)}")
            name = _raw_name(*state)
            if name in raw_files:
                raise ConfigError(f"repeated initial state {tuple(state)} (raw file {name})")
            raw_files.add(name)
            self.initial_states.append(tuple(state))
        self._check_starts(self.profile, "the default profile")

        # The partition, the grids' boundaries and a run's step count read
        # only the speed limit, which every scenario type shares: one
        # partition and its coverage, computed here, serve the coverage row
        # of every type, and one plan the runs.  A step count must stay
        # below 2**63 (``horizon_steps`` raises).
        static, dt = self.static_for(self.scenario_types[0]), self._sim.dt
        p = self._section("partition")
        _check_numbers(p["speeds"], "partition speeds")
        _check_number(p["x_f_cap"], "partition x_f_cap", nullable=True)
        if type(p["steps"]) is not int or p["steps"] < 1:
            raise ConfigError(f"partition steps must be an integer >= 1, "
                              f"got {json.dumps(p['steps'])}")
        self.partition = build_partition(self.initial_states[0][0], p["speeds"], self.profile, static)
        self.coverage = coverage_ratio(self.partition, p["x_f_cap"], p["steps"])

        # One pass per autopilot entry: build the pilot, check it, and plan
        # its runs, so that a config either runs or is refused before any of
        # them has.  A grid's axes are closed forms of the config.
        self.pilots, self.builtin, self.external = [], [], []
        self.grids: dict[str, list[Grid]] = {}
        self.determinacy_checks: list[tuple[AutopilotSpec, float, TestCase]] = []
        for entry in map(_entry_dict, cfg["autopilots"]):
            pilot = self.build_autopilot(entry)
            name = pilot.name
            # Each name is a directory under raw/: one path component.
            if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
                raise ConfigError(f"autopilot name {name!r} is not one non-empty path component")
            if name in self.grids:
                raise ConfigError(f"duplicate autopilot name {name!r}")
            self._check_starts(pilot.profile, repr(name))
            grids = self.grids[name] = []
            for x_e, v_e in self.initial_states:
                boundary = most_critical(x_e, v_e, pilot.profile, static)
                x_a, x_f = _grid_values(boundary, g)
                if min(x_a + x_f) <= 0:
                    raise ConfigError(
                        f"grid of {name!r} from ({x_e}, {v_e}) holds a distance that is not "
                        f"positive: x_a from {x_a[0]} to {x_a[-1]}, x_f from {x_f[0]} to {x_f[-1]}")
                horizon_steps(static, max(x_a), dt, HORIZON_SLACK)
                grids.append((x_e, v_e, x_a, x_f, boundary))
            self.pilots.append(pilot)
            if isinstance(pilot, ExternalAutopilot):
                self.external.append(pilot)
                continue
            self.builtin.append(pilot)
            v0 = entry.get("braking_check_v0")
            _check_number(v0, f"autopilot {name!r} braking_check_v0", nullable=True)
            x_e, v_e, _, _, boundary = grids[0]
            self.determinacy_checks.append(determinacy_check(
                pilot, v0, (x_e, v_e), boundary, static, dt))

    def _check_starts(self, profile: ADProfile, whose: str) -> None:
        """Refuse a start speed outside ``(0, v_max]`` of ``profile``, or one
        it cannot brake to a stop from within ``x_e``: every case from it
        would be unwinnable."""
        for x_e, v_e in self.initial_states:
            if not 0 < v_e <= profile.v_max:
                raise ConfigError(f"initial speed {v_e} outside (0, v_max {profile.v_max}] "
                                  f"of {whose}")
            if profile.braking_distance(v_e) > x_e:
                raise ConfigError(f"initial state ({x_e}, {v_e}) admits no cautious stop for {whose}")

    def static_for(self, scenario_type: ScenarioType) -> StaticPart:
        return self._statics[scenario_type]

    def sim_config(self) -> SimConfig:
        return self._sim

    def build_autopilot(self, entry) -> AutopilotSpec | ExternalAutopilot:
        return build_autopilot(entry, self.profile)


def _read_profile(section: dict, base: ADProfile, where: str) -> ADProfile:
    """The profile a config's ``profile`` object ``section`` gives: its keys
    those of the default profile, and any key it leaves out ``base``'s."""
    _check_keys(section, _SECTION_KEYS["profile"], where)
    for key, value in section.items():
        _check_number(value, f"{where} {key}")
    return ADProfile(**{**vars(base), **section})


def _entry_dict(entry) -> dict:
    """An autopilot entry as an object: ``exec:<cmd>`` runs that command, and
    any other bare name is that variant."""
    if isinstance(entry, str):
        return ({"command": entry[len("exec:"):]} if entry.startswith("exec:")
                else {"name": entry, "variant": entry})
    if not isinstance(entry, dict):
        raise ConfigError(f"autopilot entry {entry!r} is neither a name nor an object")
    return entry


def build_autopilot(entry, default_profile: ADProfile) -> AutopilotSpec | ExternalAutopilot:
    """Instantiate one autopilot from a config entry (dict, name, or exec:cmd),
    its ``profile`` completed by ``default_profile``.

    A built-in entry's keys outside ``_ENTRY_KEYS`` are keyword arguments of
    its variant's factory, so a key the factory does not take is refused.
    """
    entry = _entry_dict(entry)
    name = entry.get("name")
    params = {k: v for k, v in entry.items() if k not in _ENTRY_KEYS}
    try:
        profile = _read_profile(entry.get("profile", {}), default_profile,
                               f"autopilot {name!r} profile")
        if "command" in entry:
            # braking_check_v0 too: the determinacy checks run built-in pilots only
            _check_keys(entry, _ENTRY_KEYS - {"variant", "braking_check_v0"},
                        f"external autopilot {name!r}")
            if not isinstance(entry["command"], str):
                raise ConfigError(f"external autopilot {name!r}: command is not a string")
            return ExternalAutopilot(entry["command"], profile, name=name)
        variant = entry.get("variant", "reference")
        if variant not in FACTORIES:
            raise ConfigError(f"unknown autopilot variant {variant!r}")
        return FACTORIES[variant](profile, name=entry.get("name", variant), **params)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad autopilot entry {name!r}: {type(exc).__name__}: {exc}") from exc


def load_config(path: str | Path | None = None, workers: int | None = None) -> CampaignConfig:
    """The config in JSON file ``path``, or the default one; ``workers``, if
    given, replaces its ``workers`` key before it is checked."""
    text = json.dumps(DEFAULT_CONFIG) if path is None else Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if workers is not None and isinstance(raw, dict):  # any other JSON is refused as it is
        raw["workers"] = workers
    return CampaignConfig(raw=raw)


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
    protocol_error: str = ""  # the ProtocolError that ended the cell, if one did

    def frequency(self, label: str) -> float:
        return self.counts.get(label, 0) / self.n_cells if self.n_cells else 0.0

    @property
    def any_failure(self) -> bool:
        return (
            self.protocol_error
            or any(self.counts.get(lab, 0) for lab in FAILURE_LABELS)
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
                    "protocol_error": bool(c.protocol_error),
                    **({"protocol_error_detail": c.protocol_error} if c.protocol_error else {}),
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


def _part_key(static: StaticPart) -> object:
    """The static part in effect for a built-in pilot: its light schedule.

    A built-in policy never reads the scenario type or the light, and the
    type reaches a simulation only through the light and the red-light goal,
    which cannot fire without a red phase.  So grids that differ in type
    alone are one grid: key them by the schedule in effect.
    """
    if static.scenario_type is not ScenarioType.INTERSECTION_LIGHT:
        return None
    return static.light_schedule


# The most cells one task simulates, unless one grid alone has more: a task
# makes one ``simulate_lockstep`` call, and this keeps its arrays small on
# fine grids.
BATCH_CELLS = 1 << 16


def _groups(jobs: list, grid_cells: int, workers: int) -> list[list]:
    """``jobs``, each a grid of ``grid_cells`` cells, in contiguous tasks of
    sizes that differ by at most one: ``workers`` tasks, or as many more as
    keep each within ``BATCH_CELLS`` cells, but never an empty one."""
    per_task = max(1, BATCH_CELLS // grid_cells)
    n = min(len(jobs), max(workers, -(-len(jobs) // per_task)))
    return [jobs[k * len(jobs) // n:(k + 1) * len(jobs) // n] for k in range(n)]


def _grid_reports(args) -> tuple[list[dict], Counter, Riders | None]:
    """The reports of some ``(pilot, grid)`` jobs over one static part, one
    per job: ``classify_grids`` labels and reports all the grids at once, and
    each report gains its pilot's ``autopilot`` name.  Returned with the work
    of simulating them, ``run_grids``' counters and the grids, ``simulated``;
    and the riders of the call, if any, with their results."""
    jobs, static, sim_cfg, riders = args
    work = Counter(simulated=len(jobs))
    results = classify_grids(run_grids(static, jobs, sim_cfg, work, riders))
    reports = [{**report, "autopilot": spec.name} for (spec, _), report in zip(jobs, results)]
    return reports, work, riders


def _raw_name(x_e: float, v_e: float) -> str:
    """The name of the raw file of the grid from ego start ``(x_e, v_e)``."""
    return f"xe{x_e:g}_ve{v_e:g}.json"


# Stand in for the scenario type and the point list while a grid report is
# serialised, so that one dump serves the raw file of every type.
_TYPE_SLOT, _GRID_SLOT = "\0", "\1"
# A point as ``json.dumps(..., indent=1)`` writes it in a report, in pieces:
# up to ``x_a`` by label and verdict code, then ``x_a`` and ``x_f``, then the
# rest by zone code.
_POINT_HEADS = [f'  {{\n   "label": {json.dumps(label)},\n   "verdict": '
                f'{json.dumps(vd.kind.value)},\n   "x_a": ' for label in LABELS for vd in VERDICTS]
_POINT_TAILS = [f',\n   "zone": {json.dumps(zone.value)}\n  }},\n' for zone in ZONES]


def _points_text(points: tuple) -> str:
    """The JSON text of a report's point list from its columns, as
    ``json.dumps`` writes it in the report: each axis value, a float, is
    encoded once, by ``float.__repr__`` as ``json`` does."""
    x_a_values, x_f_values, labels, verdicts, zones = points
    x_a_text = [float.__repr__(x_a) + ',\n   "x_f": ' for x_a in x_a_values]
    pieces = [""] * (4 * labels.size)
    heads = (labels * len(VERDICTS) + verdicts).ravel().tolist()
    pieces[0::4] = map(_POINT_HEADS.__getitem__, heads)
    pieces[1::4] = [text for text in x_a_text for _ in x_f_values]
    pieces[2::4] = list(map(float.__repr__, x_f_values)) * len(x_a_values)
    pieces[3::4] = map(_POINT_TAILS.__getitem__, zones.ravel().tolist())
    return "[\n" + "".join(pieces)[:-2] + "\n ]"


def _raw_text_parts(report: dict) -> tuple[str, str]:
    """``(head, tail)`` of a grid report's raw file text around its scenario
    type: ``head + json.dumps(type) + tail`` is ``json.dumps(..., sort_keys=True,
    indent=1)`` of the report, without ``counts``, under that type.  Every key
    after ``scenario_type`` holds numbers or zone names, and only ``of`` lies
    between ``grid`` and it, so each slot is the last of its kind."""
    fields = {k: v for k, v in report.items() if k != "counts"}
    text = json.dumps({**fields, "grid": _GRID_SLOT, "scenario_type": _TYPE_SLOT},
                      sort_keys=True, indent=1)
    head, _, tail = text.rpartition(json.dumps(_TYPE_SLOT))
    before, _, after = head.rpartition(json.dumps(_GRID_SLOT))
    return before + _points_text(report["grid"]) + after, tail


def _accumulate(cell: CampaignCell, report: dict) -> None:
    """Add one grid report (one ego start) into its campaign cell: its label
    counts (``counts``), zone counts and overall failure."""
    cell.m_states += 1
    for label, n in report["counts"].items():
        cell.counts[label] = cell.counts.get(label, 0) + n
        cell.n_cells += n
    for zone, n in report["zone_counts"].items():
        cell.zone_counts[zone] = cell.zone_counts.get(zone, 0) + n
    kind = report["of"]["kind"]
    if kind:
        cell.of_counts[kind] = cell.of_counts.get(kind, 0) + 1


def run_campaign(config: CampaignConfig, out_dir: str | Path | None = None) -> CampaignReport:
    """Run the full pipeline and (optionally) persist raw grid reports."""
    scenario_types = config.scenario_types
    pilots = config.pilots
    sim_cfg = config.sim_config()
    workers = config.workers
    out_path = Path(out_dir) if out_dir is not None else None

    # In pilot x type order, the order ``report.md`` lists protocol errors in.
    cells = {(sc.value, pilot.name): CampaignCell(autopilot=pilot.name, scenario_type=sc.value)
             for pilot in pilots for sc in scenario_types}
    grid_work = Counter()  # of every grid simulated, summed with ``update`` to keep zeros
    stage_s = {"load": config.load_s, "builtin_grids": 0.0, "external_grids": 0.0,
               "raw_files": 0.0, "determinacy": 0.0}
    made: set[Path] = set()  # the raw directories made so far

    def record(pilot, types: list[ScenarioType], report: dict) -> None:
        """Add one grid report to its pilot's cell of each of ``types`` and
        write its raw file under each, serialised and encoded once."""
        for sc in types:
            _accumulate(cells[(sc.value, pilot.name)], report)
        if out_path is None:
            return
        start = time.perf_counter()
        # Encoded once, as bytes: the text is ASCII JSON.
        head, tail = (part.encode() for part in _raw_text_parts(report))
        for sc in types:
            raw_dir = out_path / "raw" / pilot.name / sc.value
            if raw_dir not in made:
                raw_dir.mkdir(parents=True, exist_ok=True)
                made.add(raw_dir)
            (raw_dir / _raw_name(report["x_e"], report["v_e"])).write_bytes(
                head + json.dumps(sc.value).encode() + tail)
        stage_s["raw_files"] += time.perf_counter() - start

    # The progress determinacy checks' baselines, one engine call; their
    # restarts ride the grids' call of the first task, whose static part is
    # the probes', that of the first scenario type.
    start = time.perf_counter()
    checks = config.determinacy_checks
    determinacy_work = Counter()
    bases, restarts = progress_baselines([(pilot, probe) for pilot, _, probe in checks],
                                         RESTART_EVERY, sim_cfg, determinacy_work)
    riders = Riders(restarts)
    stage_s["determinacy"] += time.perf_counter() - start

    # The (pilot, start) jobs of the built-in pilots, split into tasks once,
    # the same way for every static part in effect; a task's reports go to
    # every type that shares its part.
    parts: dict[object, list[ScenarioType]] = {}
    for sc in scenario_types:
        parts.setdefault(_part_key(config.static_for(sc)), []).append(sc)
    jobs = [(pilot, grid) for pilot in config.builtin for grid in config.grids[pilot.name]]
    groups = _groups(jobs, config.grid["n_a"] * config.grid["n_f"], workers)
    tasks = [(types, group) for types in parts.values() for group in groups]
    args = [(group, config.static_for(types[0]), sim_cfg, None if k else riders)
            for k, (types, group) in enumerate(tasks)]

    start = time.perf_counter()
    # One process per task at most, and no more than the machine has CPUs.
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    parallel = processes > 1
    if parallel:  # imported here: it costs every start ~10 ms, and one worker needs no pool
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(processes) if parallel else nullcontext() as pool:
        results = (pool.map if parallel else map)(_grid_reports, args)
        for (types, group), (reports, work, ridden) in zip(tasks, results):
            riders = ridden or riders  # a worker's riders come back as a copy
            grid_work.update(work)
            for (pilot, _), report in zip(group, reports):
                record(pilot, types, report)
    stage_s["builtin_grids"] = time.perf_counter() - start - stage_s["raw_files"]

    # External grids one by one; a ProtocolError ends its pilot's type.  A
    # pilot's process is closed after its grids, or when any error ends them.
    start, raw_s = time.perf_counter(), stage_s["raw_files"]
    for pilot in config.external:
        with pilot:
            for sc in scenario_types:
                for grid in config.grids[pilot.name]:
                    try:
                        (report,), work, _ = _grid_reports(
                            ([(pilot, grid)], config.static_for(sc), sim_cfg, None))
                    except ProtocolError as exc:
                        cells[(sc.value, pilot.name)].protocol_error = str(exc)
                        break
                    grid_work.update(work)
                    record(pilot, [sc], report)
    stage_s["external_grids"] = time.perf_counter() - start - (stage_s["raw_files"] - raw_s)

    start = time.perf_counter()
    determinacy_work.update(riders.work)
    determinacy = _determinacy_rows(
        checks, progress_reports(bases, riders.codes, riders.v_cross), RESTART_EVERY, sim_cfg.dt)
    stage_s["determinacy"] += time.perf_counter() - start

    # ``metrics.json``: the work, as ``classify._run_cells`` counts it, and
    # the wall time of each stage, in seconds, the config's load included.
    n = grid_work["cells"]
    grids = {**grid_work, "early_exit_frac": grid_work["early_exits"] / n if n else 0.0}
    return CampaignReport(
        scenario_types=[s.value for s in scenario_types], autopilot_names=[p.name for p in pilots],
        cells=cells, determinacy=determinacy, coverage=_coverage_summaries(config),
        meta={"seed": config.raw.get("seed", 0), "dt": sim_cfg.dt, "workers": workers},
        metrics={"grids": grids, "determinacy": dict(determinacy_work), "stage_s": stage_s})


def determinacy_check(pilot: AutopilotSpec, v0: float | None, start: tuple[float, float],
                      boundary, static: StaticPart, dt: float) -> tuple:
    """The determinacy check ``(pilot, v0, probe)`` of a built-in pilot: it
    brakes from ``v0`` in ``(0, v_max]`` (``0.8 * v_max`` if None) and
    restarts the probe, the crossing case from ``start`` just past its
    ``boundary``, refused at 2**63 steps of ``dt`` as a grid's runs are."""
    v_max = pilot.profile.v_max
    v0 = 0.8 * v_max if v0 is None else v0
    if not 0 < v0 <= v_max:
        raise ConfigError(f"braking check v0 {v0} outside (0, v_max {v_max}] of {pilot.name!r}")
    probe = progress_probe(static, *start, boundary, dt)
    probe.steps(dt)
    return pilot, v0, probe


def determinacy_rows(checks: list[tuple], sim_cfg: SimConfig,
                     restart_every: int = RESTART_EVERY, work: Counter | None = None) -> list[dict]:
    """The braking row (from ``v0``) and the progress row (restarts of
    ``probe``) of each ``(pilot, v0, probe)`` check, as ``determinacy_check``
    builds them, in order.  The progress checks' simulations, all in one
    ``determinacy_check_progress`` call, are added to ``work``; the braking
    checks take one ``determinacy_check_braking`` call.

    A braking row's status is ``ok``.  A progress check whose baseline run
    is not a progress pass gives a row with status ``inapplicable`` and its
    ``detail``.
    """
    reports = determinacy_check_progress([(pilot, probe) for pilot, _, probe in checks],
                                         restart_every, sim_cfg, work)
    return _determinacy_rows(checks, reports, restart_every, sim_cfg.dt)


def _determinacy_rows(checks: list[tuple], reports: list, restart_every: int,
                      dt: float) -> list[dict]:
    """``determinacy_rows`` of ``checks``, given their progress ``reports``."""
    brakes = determinacy_check_braking([(pilot, v0) for pilot, v0, _ in checks],
                                       restart_every, dt)
    rows = []
    for (pilot, v0, probe), rep, brake in zip(checks, reports, brakes):
        braking = {"autopilot": pilot.name, "maneuver": "braking", "v0": v0, "status": "ok",
                   "max_deviation": brake.max_deviation, "tol": brake.tol,
                   "determinate": brake.determinate}
        progress = {"autopilot": pilot.name, "maneuver": "progress",
                    "x_e": probe.x_e, "v_e": probe.v_e}
        if isinstance(rep, CheckAbortedError):
            progress.update(status="inapplicable", detail=str(rep))
        else:
            progress.update(status="ok", max_deviation=rep.max_deviation, tol=rep.tol,
                            verdict_flips=rep.verdict_flips, determinate=rep.determinate)
        rows += [braking, progress]
    return rows


def _coverage_summaries(config) -> list[dict]:
    part, result = config.partition, config.coverage
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
        for lab in FAILURE_LABELS
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
        meta = report.meta
        lines = ["# Campaign report", "",
                 f"Seed {meta['seed']}, dt {meta['dt']} s." if "seed" in meta
                 else f"Rebuilt from the raw grid files under {meta['regenerated_from']}.", "",
                 "| Scenario type | " + " | ".join(report.autopilot_names) + " |",
                 "|" + " --- |" * (len(report.autopilot_names) + 1)]
        for sc in report.scenario_types:
            row = [cell_text(report.cells[(sc, ap)]) for ap in report.autopilot_names]
            lines.append("| " + sc + " | " + " | ".join(row) + " |")
        lines.append("")
        errors = [c for c in report.cells.values() if c.protocol_error]
        if errors:
            lines += ["## Protocol errors", ""]
            lines += [f"- {c.autopilot} on {c.scenario_type}: {c.protocol_error}" for c in errors]
            lines.append("")
        lines += ["## Determinacy", "", "| autopilot | maneuver | status | max deviation | "
                  "determinate |", "| --- | --- | --- | --- | --- |"]
        for row in report.determinacy:
            dev = row.get("max_deviation")
            dev_s = f"{dev:.3f}" if isinstance(dev, float) and math.isfinite(dev) else "-"
            det = row.get("determinate")
            det_s = "-" if det is None else ("yes" if det else "no")
            lines.append(
                f"| {row['autopilot']} | {row['maneuver']} | {row.get('status')} "
                f"| {dev_s} | {det_s} |"
            )
        lines += ["", "## Coverage", "", "| scenario type | speeds | ratio |", "| --- | --- | --- |"]
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

    Each file's label counts come from its point list.  Orders rows and
    columns alphabetically; determinacy and coverage sections are not
    persisted per grid and come back empty.  A file that is not a grid report
    is refused with a ``ConfigError`` that names it.
    """
    raw = Path(raw_dir)
    cells: dict[tuple[str, str], CampaignCell] = {}
    for grid_file in sorted(raw.glob("*/*/*.json")):
        ap, sc = grid_file.parent.parent.name, grid_file.parent.name
        cell = cells.setdefault((sc, ap), CampaignCell(autopilot=ap, scenario_type=sc))
        try:
            data = json.loads(grid_file.read_text())
            _accumulate(cell, {**data, "counts": Counter(p["label"] for p in data["grid"])})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{grid_file} is not a raw grid report: {exc!r}") from exc
    if not cells:
        raise ConfigError(f"no raw grid files under {raw}")
    scenario_types = sorted({sc for sc, _ in cells})
    autopilot_names = sorted({ap for _, ap in cells})
    for sc in scenario_types:
        for ap in autopilot_names:
            cells.setdefault((sc, ap), CampaignCell(autopilot=ap, scenario_type=sc))
    return CampaignReport(scenario_types=scenario_types, autopilot_names=autopilot_names,
                          cells=cells, determinacy=[], coverage=[],
                          meta={"regenerated_from": str(raw)})
