"""Grid-level failure taxonomy, rationality and determinacy checks.

A grid runs one autopilot over a lattice of ``(x_a, x_f)`` geometries sharing
an ego start.  Failed or overcautious cells are then labelled:

* ``OF-SF``  -- every cell fails (per ego start),
* ``OF-PD``  -- no safe-progress cell ever crosses (per ego start),
* ``IS``     -- a failure strictly dominated by a passing, more critical cell,
* ``TF``     -- any remaining failure (the frontier band),
* ``IO``     -- a cautious pass well inside the safe-progress region.

``IS`` takes priority over ``TF``: it is the order-theoretic diagnosis, and
what remains is exactly the transition band along the critical frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .autopilots import AutopilotSpec
from .criticality import CriticalBoundary, Zone, classify_zone, most_critical
from .kinematics import ADProfile, advance
from .scenario import (
    DEFAULT_DT,
    Goal,
    StaticPart,
    TestCase,
    default_goal,
    equivalence_mutations,
)
from .simulator import (
    SimConfig,
    VerdictKind,
    Verdict,
    lockstep_applies,
    simulate,
    simulate_lockstep,
    verdict,
)

__all__ = [
    "CellResult",
    "GridResult",
    "GridClassification",
    "RestartRecord",
    "DeterminacyReport",
    "CheckAbortedError",
    "run_grid",
    "classify_grid",
    "rationality_check",
    "determinacy_check_braking",
    "determinacy_check_progress",
    "progress_probe",
    "equivalence_check",
    "grid_report_dict",
]

LABEL_PASS = "pass"
LABEL_CAUTIOUS = "cautious_pass"
FAILURE_LABELS = ("TF", "IS", "IO")


class CheckAbortedError(RuntimeError):
    """Raised when a determinacy check's baseline run is unusable."""


@dataclass(frozen=True)
class CellResult:
    zone: Zone
    verdict: Verdict


@dataclass
class GridResult:
    static: StaticPart
    x_e: float
    v_e: float
    boundary: CriticalBoundary
    x_a_values: tuple[float, ...]
    x_f_values: tuple[float, ...]
    cells: dict[tuple[float, float], CellResult]
    dt: float = DEFAULT_DT
    # Work counters: ``cells``, ``cell_steps`` (policy steps over all cells),
    # ``early_exits`` (cells ended before their horizon), ``lockstep_steps``
    # (array steps; 0 when simulated cell by cell) and ``scalar_simulate_calls``.
    stats: dict[str, int] = field(default_factory=dict)


def run_grid(
    autopilot: AutopilotSpec,
    x_e: float,
    v_e: float,
    static: StaticPart,
    x_a_values: Sequence[float],
    x_f_values: Sequence[float],
    cfg: SimConfig = SimConfig(),
    goal: Optional[Goal] = None,
) -> GridResult:
    """Simulate every geometry of the lattice under one autopilot.

    A built-in autopilot on a constant profile steps all cells together
    (``simulate_lockstep``); any other runs ``simulate`` cell by cell.
    """
    boundary = most_critical(x_e, v_e, autopilot.profile, static)
    goal = goal if goal is not None else default_goal(static)
    cases = [
        TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f, dt=cfg.dt)
        for x_a in x_a_values
        for x_f in x_f_values
    ]
    lockstep = lockstep_applies(autopilot, v_e)
    if lockstep:
        outcomes = simulate_lockstep(autopilot, cases, cfg)
    else:
        outcomes = [simulate(autopilot, tc, cfg, record=False) for tc in cases]
    cells = {
        (tc.x_a, tc.x_f): CellResult(zone=classify_zone(tc, boundary), verdict=verdict(out, goal))
        for tc, out in zip(cases, outcomes)
    }
    steps = [out.steps for out in outcomes]
    stats = {
        "cells": len(outcomes),
        "cell_steps": sum(steps),
        "early_exits": sum(out.steps < out.tc.horizon for out in outcomes),
        "lockstep_steps": max(steps, default=0) if lockstep else 0,
        "scalar_simulate_calls": 0 if lockstep else len(outcomes),
    }
    return GridResult(
        static=static,
        x_e=x_e,
        v_e=v_e,
        boundary=boundary,
        x_a_values=tuple(x_a_values),
        x_f_values=tuple(x_f_values),
        cells=cells,
        dt=cfg.dt,
        stats=stats,
    )


@dataclass
class GridClassification:
    labels: dict[tuple[float, float], str]
    of_kind: Optional[str]  # "OF-SF" | "OF-PD" | None
    counts: dict[str, int]
    n_cells: int
    n_relevant: int  # cells outside the undiscriminating region

    @property
    def frequencies(self) -> dict[str, float]:
        return {k: self.counts.get(k, 0) / self.n_cells for k in FAILURE_LABELS}

    @property
    def frequencies_relevant(self) -> dict[str, float]:
        if self.n_relevant == 0:
            return {k: 0.0 for k in FAILURE_LABELS}
        return {k: self.counts.get(k, 0) / self.n_relevant for k in FAILURE_LABELS}


def _dominating_passes(grid: GridResult) -> dict[tuple[float, float], tuple[float, float]]:
    """For each failed cell, a crossing pass at coordinatewise-smaller geometry.

    Only progress passes count as dominators: a cautious stop at a harder
    geometry demonstrates nothing about crossing ability, so it cannot indict
    a crossing failure as irrational.  Frontier failures below the critical
    corner therefore stay in the transition class.
    """
    passes = [
        key for key, cell in grid.cells.items()
        if cell.verdict.kind is VerdictKind.PROGRESS_PASS
    ]
    out: dict[tuple[float, float], tuple[float, float]] = {}
    for key, cell in grid.cells.items():
        if cell.verdict.kind is not VerdictKind.FAIL:
            continue
        for p in passes:
            if p[0] <= key[0] and p[1] <= key[1] and p != key:
                out[key] = p
                break
    return out


def classify_grid(grid: GridResult) -> GridClassification:
    """Label every cell of a completed grid.

    A cautious pass counts as overcaution only beyond the critical corner by
    more than two environment steps, the finest distinction the
    discretisation supports.
    """
    if not grid.cells:
        raise ValueError("grid is empty")
    delta_margin = 2.0 * grid.static.vl * grid.dt
    b = grid.boundary
    labels: dict[tuple[float, float], str] = {}
    dominated = _dominating_passes(grid)

    n_fail = sum(1 for c in grid.cells.values() if c.verdict.kind is VerdictKind.FAIL)
    sp_cells = [k for k, c in grid.cells.items() if c.zone is Zone.SAFE_PROGRESS]
    sp_progress = sum(
        1
        for k in sp_cells
        if grid.cells[k].verdict.kind is VerdictKind.PROGRESS_PASS
    )
    of_kind: Optional[str] = None
    if n_fail == len(grid.cells):
        of_kind = "OF-SF"
    elif sp_cells and sp_progress == 0:
        of_kind = "OF-PD"

    for key, cell in grid.cells.items():
        if cell.verdict.kind is VerdictKind.FAIL:
            labels[key] = "IS" if key in dominated else "TF"
        elif (
            cell.verdict.kind is VerdictKind.CAUTIOUS_PASS
            and cell.zone is Zone.SAFE_PROGRESS
            and key[0] - b.x_hat_a > delta_margin
            and key[1] - b.x_hat_f > delta_margin
        ):
            labels[key] = "IO"
        elif cell.verdict.kind is VerdictKind.CAUTIOUS_PASS:
            labels[key] = LABEL_CAUTIOUS
        else:
            labels[key] = LABEL_PASS

    counts: dict[str, int] = {}
    for lab in labels.values():
        counts[lab] = counts.get(lab, 0) + 1
    n_relevant = sum(1 for c in grid.cells.values() if c.zone is not Zone.IRRELEVANT)
    return GridClassification(
        labels=labels,
        of_kind=of_kind,
        counts=counts,
        n_cells=len(grid.cells),
        n_relevant=n_relevant,
    )


def rationality_check(grid: GridResult) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Witness pairs ``(passing cell, dominated failing cell)``.

    Empty iff the verdict is monotone along the criticality order; each
    witness shows a pass at a harder geometry together with a failure at an
    easier one.
    """
    return [(p, key) for key, p in sorted(_dominating_passes(grid).items())]


# -- determinacy ---------------------------------------------------------------


@dataclass(frozen=True)
class RestartRecord:
    t: float  # s, restart time on the original trace
    x: float  # m, restart position (maneuver-local or route coordinate)
    v: float  # m/s, restart speed
    deviation: float  # m for braking checks, m/s for progress checks
    passed: bool = True


@dataclass
class DeterminacyReport:
    maneuver: str  # "braking" | "progress"
    restarts: list[RestartRecord]
    tol: float
    max_deviation: float = 0.0
    verdict_flips: int = 0

    @property
    def determinate(self) -> bool:
        return self.verdict_flips == 0 and self.max_deviation <= self.tol


def _brake_trace(v0: float, rate: float, dt: float, v_max: float) -> list[tuple[float, float]]:
    """States ``(travelled, speed)`` braking to a stop at a constant rate."""
    states = [(0.0, v0)]
    x, v = 0.0, v0
    while v > 0.0:
        x, v = advance(x, v, -rate, dt, v_max)
        states.append((x, v))
    return states


def determinacy_check_braking(
    autopilot: AutopilotSpec,
    v0: float,
    x_f: float,
    restart_every: int = 5,
    dt: float = DEFAULT_DT,
) -> DeterminacyReport:
    """Compare a full braking run against fresh runs started mid-curve.

    The baseline brakes from ``v0`` to a stop; every ``restart_every``-th state
    of that curve seeds a fresh braking run whose rate the autopilot picks for
    the restart speed.  Deviation is the gap between stopping positions; the
    tolerance is one step of travel at ``v0`` plus 0.25 m.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be at least 1")
    v_max = autopilot.profile.v_max
    if v0 > v_max:
        raise CheckAbortedError(f"braking check speed {v0} above v_max {v_max}")
    tol = v0 * dt + 0.25
    base = _brake_trace(v0, autopilot.brake_rate_for(v0), dt, v_max)
    stop = base[-1][0]
    if stop > x_f:
        raise CheckAbortedError(
            f"baseline braking run stops at {stop:.2f} m, past the obstacle at {x_f} m"
        )
    restarts = []
    for i in range(0, len(base), restart_every):
        x_i, v_i = base[i]
        if v_i <= 0.0:
            continue
        fresh = _brake_trace(v_i, autopilot.brake_rate_for(v_i), dt, v_max)
        deviation = abs(x_i + fresh[-1][0] - stop)
        restarts.append(RestartRecord(t=i * dt, x=x_i, v=v_i, deviation=deviation))
    max_dev = max((r.deviation for r in restarts), default=0.0)
    return DeterminacyReport(
        maneuver="braking", restarts=restarts, tol=tol, max_deviation=max_dev
    )


def _speed_at_conflict(outcome) -> Optional[float]:
    prev = None
    for frame in outcome.scenario.frames:
        if frame.ego.x >= 0.0 and prev is not None:
            span = frame.ego.x - prev.ego.x
            if span <= 0.0:
                return frame.ego.v
            w = (0.0 - prev.ego.x) / span
            return prev.ego.v + w * (frame.ego.v - prev.ego.v)
        prev = frame
    return None


def progress_probe(
    static: StaticPart, x_e: float, v_e: float, profile: ADProfile, dt: float = DEFAULT_DT
) -> TestCase:
    """The crossing case a progress determinacy check starts from: just past
    the safe-progress boundary, by two arriving-vehicle steps (at least 1 m)
    in ``x_a`` and by 1 m in ``x_f``."""
    b = most_critical(x_e, v_e, profile, static)
    return TestCase(
        static=static, x_e=x_e, v_e=v_e,
        x_a=b.x_hat_a + max(2.0 * static.vl * dt, 1.0), x_f=b.x_hat_f + 1.0, dt=dt,
    )


def determinacy_check_progress(
    autopilot: AutopilotSpec,
    tc: TestCase,
    restart_every: int = 5,
    cfg: SimConfig = SimConfig(),
    goal: Optional[Goal] = None,
) -> DeterminacyReport:
    """Restart a passing crossing maneuver from states of its own trace.

    Each restart becomes a fresh test case: the ego resumes at the visited
    state while the environment is shifted to its state at that time.  The
    report records verdict flips and the spread of conflict-point speeds,
    tolerated up to 0.2 m/s.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be at least 1")
    goal = goal if goal is not None else default_goal(tc.static)
    base = simulate(autopilot, tc, cfg, record=True)
    base_verdict = verdict(base, goal)
    if base_verdict.kind is not VerdictKind.PROGRESS_PASS:
        raise CheckAbortedError(
            f"baseline run did not cross and pass (verdict {base_verdict.kind.value})"
        )
    v_ref = _speed_at_conflict(base)
    restarts = []
    flips = 0
    vl = tc.static.vl
    frames = base.scenario.frames
    for i in range(0, len(frames), restart_every):
        frame = frames[i]
        if frame.ego.x >= 0.0:
            break  # restarts past the conflict point have an empty approach
        x_a_i = tc.x_a - vl * frame.t
        if x_a_i <= 0.0:
            continue  # arriving vehicle already past: the race is decided
        x_e_i = -frame.ego.x
        tci = TestCase(static=tc.static, x_e=x_e_i, v_e=frame.ego.v, x_a=x_a_i, x_f=tc.x_f,
                       dt=cfg.dt)
        out = simulate(autopilot, tci, cfg, record=True)
        vd = verdict(out, goal)
        passed = vd.kind is VerdictKind.PROGRESS_PASS
        if not passed:
            flips += 1
            deviation = math.inf
        else:
            v_i = _speed_at_conflict(out)
            deviation = abs(v_i - v_ref) if v_i is not None and v_ref is not None else math.inf
        restarts.append(
            RestartRecord(t=frame.t, x=frame.ego.x, v=frame.ego.v, deviation=deviation,
                          passed=passed)
        )
    max_dev = max((r.deviation for r in restarts if r.passed), default=0.0)
    return DeterminacyReport(
        maneuver="progress",
        restarts=restarts,
        tol=0.2,
        max_deviation=max_dev,
        verdict_flips=flips,
    )


# -- logical equivalence ---------------------------------------------------------


def equivalence_check(
    autopilot: AutopilotSpec,
    tc: TestCase,
    mutants: Optional[Sequence[TestCase]] = None,
    cfg: SimConfig = SimConfig(),
    goal: Optional[Goal] = None,
    headway: float = 10.0,
) -> list[tuple[int, str, str]]:
    """Verdict mismatches between a test case and its padded equivalents."""
    goal = goal if goal is not None else default_goal(tc.static)
    if mutants is None:
        mutants = equivalence_mutations(tc, headway)
    base = verdict(simulate(autopilot, tc, cfg, record=False), goal)
    mismatches = []
    for i, m in enumerate(mutants):
        vd = verdict(simulate(autopilot, m, cfg, record=False), goal)
        if vd.kind is not base.kind:
            mismatches.append((i, base.kind.value, vd.kind.value))
    return mismatches


# -- reporting -------------------------------------------------------------------


def grid_report_dict(grid: GridResult, cls: GridClassification) -> dict:
    """JSON-able report for one (autopilot, scenario, ego start) grid."""
    return {
        "scenario_type": grid.static.scenario_type.value,
        "x_e": grid.x_e,
        "v_e": grid.v_e,
        "boundary": grid.boundary.to_dict(),
        "grid": [
            {
                "x_a": x_a,
                "x_f": x_f,
                "zone": grid.cells[(x_a, x_f)].zone.value,
                "verdict": grid.cells[(x_a, x_f)].verdict.kind.value,
                "label": cls.labels[(x_a, x_f)],
            }
            for x_a in grid.x_a_values
            for x_f in grid.x_f_values
        ],
        "frequencies": cls.frequencies,
        "frequencies_relevant": cls.frequencies_relevant,
        "of": {"kind": cls.of_kind},
        "zone_counts": {
            zone.value: sum(1 for c in grid.cells.values() if c.zone is zone)
            for zone in Zone
        },
    }
