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

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .autopilots import AutopilotSpec
from .criticality import CriticalBoundary, Zone, classify_zone, most_critical
from .kinematics import ADProfile, advance
from .scenario import (
    DEFAULT_DT,
    StaticPart,
    TestCase,
    equivalence_mutations,
)
from .simulator import (
    VERDICT_CODES,
    VERDICTS,
    SimConfig,
    VerdictKind,
    Verdict,
    lockstep_applies,
    simulate,
    simulate_lockstep,
    verdict,
    verdict_arrays,
)

__all__ = [
    "CellResult",
    "GridResult",
    "GridClassification",
    "RestartRecord",
    "DeterminacyReport",
    "CheckAbortedError",
    "run_grids",
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
    # ``early_exits`` (cells ended before their horizon), ``lockstep_batches``
    # and ``lockstep_steps`` (the engine calls and their array steps, each
    # counted on the first grid of its call), and ``scalar_simulate_calls``;
    # summed over grids, each counts the work once.
    stats: dict[str, int] = field(default_factory=dict)


# One grid to run: ``(x_e, v_e, x_a_values, x_f_values)``.
Grid = tuple[float, float, Sequence[float], Sequence[float]]


def run_grids(
    static: StaticPart,
    jobs: Sequence[tuple[AutopilotSpec, Grid]],
    cfg: SimConfig = SimConfig(),
) -> list[GridResult]:
    """Simulate every geometry of each job's grid over one static part.

    ``jobs`` pairs a pilot with a grid; a ``GridResult`` comes back per job,
    in order.  The cells of the grids that the lockstep engine can run
    (``lockstep_applies``: a built-in autopilot on a constant profile),
    whatever their pilot, take one ``simulate_lockstep`` call together and
    are graded by ``verdict_arrays``; any other grid runs ``simulate`` and
    ``verdict`` cell by cell.  The caller bounds the cells of one call.
    Cells with the same zone and verdict share one ``CellResult``.
    """
    grid_cases = [[TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f, dt=cfg.dt)
                   for x_a in x_a_values for x_f in x_f_values]
                  for _, (x_e, v_e, x_a_values, x_f_values) in jobs]
    # Per job: each cell's verdict code, steps and horizon, and the scalar
    # ``simulate`` calls they took.
    runs: list = [None] * len(jobs)
    engine = {}  # the engine call's counters, kept on the first grid it ran
    batched = [i for i, (pilot, grid) in enumerate(jobs) if lockstep_applies(pilot, grid[1])]
    if batched:
        lockstep = simulate_lockstep([jobs[i][0] for i in batched for _ in grid_cases[i]],
                                     [tc for i in batched for tc in grid_cases[i]], cfg)
        codes, steps = verdict_arrays(lockstep).tolist(), lockstep.steps.tolist()
        horizons, end = lockstep.horizon.tolist(), 0
        for i in batched:
            start, end = end, end + len(grid_cases[i])
            runs[i] = codes[start:end], steps[start:end], horizons[start:end], 0
        engine[batched[0]] = {"lockstep_batches": 1, "lockstep_steps": max(steps, default=0)}

    shared: dict[tuple[Zone, int], CellResult] = {}
    results = []
    for i, ((pilot, (x_e, v_e, x_a_values, x_f_values)), cases) in enumerate(zip(jobs, grid_cases)):
        if runs[i] is None:
            outcomes = [simulate(pilot, tc, cfg, record=False) for tc in cases]
            runs[i] = ([VERDICT_CODES[verdict(out)] for out in outcomes],
                       [out.steps for out in outcomes], [tc.horizon for tc in cases], len(cases))
        codes, steps, horizons, scalar_calls = runs[i]
        boundary = most_critical(x_e, v_e, pilot.profile, static)
        cells = {}
        for tc, code in zip(cases, codes):
            key = (classify_zone(tc, boundary), code)
            cell = shared.get(key)
            if cell is None:
                cell = shared[key] = CellResult(zone=key[0], verdict=VERDICTS[code])
            cells[tc.x_a, tc.x_f] = cell
        stats = {"cells": len(codes), "cell_steps": sum(steps),
                 "early_exits": sum(n < h for n, h in zip(steps, horizons)),
                 "lockstep_batches": 0, "lockstep_steps": 0,
                 "scalar_simulate_calls": scalar_calls, **engine.get(i, {})}
        results.append(GridResult(
            static=static, x_e=x_e, v_e=v_e, boundary=boundary,
            x_a_values=tuple(x_a_values), x_f_values=tuple(x_f_values),
            cells=cells, dt=cfg.dt, stats=stats,
        ))
    return results


def run_grid(
    autopilot: AutopilotSpec,
    x_e: float,
    v_e: float,
    static: StaticPart,
    x_a_values: Sequence[float],
    x_f_values: Sequence[float],
    cfg: SimConfig = SimConfig(),
) -> GridResult:
    """``run_grids`` of the one grid from ego start ``(x_e, v_e)``."""
    return run_grids(static, [(autopilot, (x_e, v_e, x_a_values, x_f_values))], cfg)[0]


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

    The witness of a failed cell is, of the progress passes at ``x_a`` and
    ``x_f`` no larger than its own, the one smallest in ``(x_a, x_f)``.  A
    staircase sweep finds it in O(cells log cells): the lowest passing
    ``x_f`` of each ``x_a`` column, its running minimum over ascending
    ``x_a``, and a binary search of that staircase for each failed cell.
    """
    lowest: dict[float, float] = {}  # x_a -> lowest x_f of a progress pass there
    for (x_a, x_f), cell in grid.cells.items():
        if cell.verdict.kind is VerdictKind.PROGRESS_PASS and x_f < lowest.get(x_a, math.inf):
            lowest[x_a] = x_f
    columns = sorted(lowest)
    # Negated running minimum: ascending, the first entry at or above -x_f
    # is the first column with a pass at or below x_f.
    stair = [-f for f in itertools.accumulate((lowest[x_a] for x_a in columns), min)]
    out: dict[tuple[float, float], tuple[float, float]] = {}
    for key, cell in grid.cells.items():
        if cell.verdict.kind is VerdictKind.FAIL:
            j = bisect.bisect_left(stair, -key[1])
            if j < len(columns) and columns[j] <= key[0]:
                out[key] = (columns[j], lowest[columns[j]])
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
    """Witness pairs ``(passing cell, dominated failing cell)``, by failing cell.

    Empty iff the verdict is monotone along the criticality order; each
    witness shows a pass at a harder geometry together with a failure at an
    easier one.  The pass is the dominating progress pass smallest in
    ``(x_a, x_f)``.
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
    simulations: int = 0  # scalar ``simulate`` runs the check made

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
) -> DeterminacyReport:
    """Restart a passing crossing maneuver from states of its own trace.

    Each restart becomes a fresh test case: the ego resumes at the visited
    state while the environment is shifted to its state at that time.  The
    report records verdict flips and the spread of conflict-point speeds,
    tolerated up to 0.2 m/s.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be at least 1")
    base = simulate(autopilot, tc, cfg, record=True)
    base_verdict = verdict(base)
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
        vd = verdict(out)
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
        simulations=1 + len(restarts),
    )


# -- logical equivalence ---------------------------------------------------------


def equivalence_check(
    autopilot: AutopilotSpec,
    tc: TestCase,
    mutants: Optional[Sequence[TestCase]] = None,
    cfg: SimConfig = SimConfig(),
    headway: float = 10.0,
) -> list[tuple[int, str, str]]:
    """Verdict mismatches between a test case and its padded equivalents."""
    if mutants is None:
        mutants = equivalence_mutations(tc, headway)
    base = verdict(simulate(autopilot, tc, cfg, record=False))
    mismatches = []
    for i, m in enumerate(mutants):
        vd = verdict(simulate(autopilot, m, cfg, record=False))
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
