"""Grid-level failure taxonomy, grid reports, rationality and determinacy checks.

A grid runs one autopilot over a lattice of ``(x_a, x_f)`` geometries sharing
an ego start.  Failed or overcautious cells are then labelled:

* ``OF-SF``  -- every cell fails (per ego start),
* ``OF-PD``  -- no safe-progress cell ever crosses (per ego start),
* ``IS``     -- a failure strictly dominated by a passing, more critical cell,
* ``TF``     -- any remaining failure (the frontier band),
* ``IO``     -- a cautious pass well inside the safe-progress region.

``IS`` takes priority over ``TF``: it is the order-theoretic diagnosis, and
what remains is exactly the transition band along the critical frontier.
``classify_grids`` labels the grids of one task together and builds each
grid's report, the one record every output is written from.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autopilots import AutopilotSpec
from .criticality import (
    ZONES,
    CriticalBoundary,
    Zone,
    classify_zone,  # noqa: F401  re-exported: callers look it up on this module
    most_critical,
    zone_codes,
)
from .kinematics import advance_arrays
from .scenario import DEFAULT_DT, StaticPart, TestCase
from .simulator import (
    VERDICTS,
    Runs,
    SimConfig,
    VerdictKind,
    lockstep_applies,
    simulate,
    simulate_lockstep,
    verdict,  # noqa: F401  re-exported: callers look it up on this module
    verdict_arrays,
)

__all__ = [
    "FAILURE_LABELS",
    "LABELS",
    "GridResult",
    "RestartRecord",
    "DeterminacyReport",
    "CheckAbortedError",
    "run_grids",
    "run_grid",
    "classify_grids",
    "classify_grid",
    "rationality_check",
    "determinacy_check_braking",
    "determinacy_check_progress",
    "progress_baselines",
    "progress_reports",
    "Riders",
    "progress_probe",
    "RESTART_EVERY",
]

RESTART_EVERY = 5  # steps from one restart of a determinacy check to the next

LABEL_PASS = "pass"
LABEL_CAUTIOUS = "cautious_pass"
FAILURE_LABELS = ("TF", "IS", "IO")
# Every label once; a classification gives labels as indices into it.
LABELS = (LABEL_PASS, LABEL_CAUTIOUS, *FAILURE_LABELS)
_PASS, _CAUTIOUS, _TF, _IS, _IO = range(len(LABELS))
# The verdict kind of each entry of ``VERDICTS``, as its index in ``_KINDS``.
_KINDS = (VerdictKind.PROGRESS_PASS, VerdictKind.CAUTIOUS_PASS, VerdictKind.FAIL)
_KIND_OF_VERDICT = np.array([_KINDS.index(vd.kind) for vd in VERDICTS])
_PROGRESS, _FAIL = _KINDS.index(VerdictKind.PROGRESS_PASS), _KINDS.index(VerdictKind.FAIL)


class CheckAbortedError(RuntimeError):
    """A progress determinacy check's baseline run that is not a progress pass."""


@dataclass
class GridResult:
    """A completed grid: each cell's verdict and zone, as indices in
    ``VERDICTS`` and ``ZONES``, in arrays over the ``(x_a, x_f)`` axes."""

    static: StaticPart
    x_e: float
    v_e: float
    boundary: CriticalBoundary
    x_a_values: tuple[float, ...]
    x_f_values: tuple[float, ...]
    verdicts: np.ndarray
    zones: np.ndarray
    dt: float = DEFAULT_DT


# One grid to run: ``(x_e, v_e, x_a_values, x_f_values, boundary)``, the
# boundary being ``most_critical`` of the start for the grid's pilot.
Grid = tuple[float, float, Sequence[float], Sequence[float], CriticalBoundary]


# A run: a pilot from an ego start ``(x_e, v_e)`` at the geometries
# ``(x_a, x_f)`` of its cells, as ``(pilot, x_e, v_e, x_a, x_f)``; a run of
# one cell may give its geometry as two numbers.
Run = tuple[AutopilotSpec, float, float, float | np.ndarray, float | np.ndarray]


def _run_cells(static: StaticPart, runs: Sequence[Run], cfg: SimConfig, work: Counter,
               states: bool = False, riders: int = 0, rider_work: Optional[Counter] = None):
    """Simulate the cells of ``runs``, for any pilots.

    A run's cells are its ``x_a`` and ``x_f`` arrays (of one shape) read in
    C order, or its one geometry; a cell's horizon is the one
    ``TestCase.steps`` sizes at ``cfg.dt``.  A call whose pilots the
    lockstep engine can all run (``lockstep_applies``: built-in autopilots)
    is one ``simulate_lockstep`` call, with no ``TestCase``; the cells of
    any other call go through ``simulate``, one ``TestCase`` at a time, in
    order, and their one-cell records are joined into one as they come,
    each trace let go unless ``states`` asks for it.  Either record
    is graded by one ``verdict_arrays`` call.  Returns each cell's verdict
    code (its index in ``VERDICTS``), crossing speed (0.0 where it did not
    cross) and, if ``states`` asks for them, its states (None otherwise),
    in run order.

    Adds the work done to ``work``, every key on every call: ``cells``,
    ``cell_steps`` (policy steps over all cells), ``early_exits`` (cells ended
    before their horizon), ``lockstep_batches`` and ``lockstep_steps`` (the
    engine calls and their array steps), and ``scalar_simulate_calls``.  The
    last ``riders`` runs ride the call: their work goes to ``rider_work``
    instead, which counts no engine call and no array step.
    """
    pilots, x_e, v_e, run_a, run_f = zip(*runs) if runs else [()] * 5
    sizes = [getattr(a, "size", 1) for a in run_a]  # a number is one cell
    run = np.repeat(np.arange(len(sizes)), sizes)
    x_a, x_f = (np.concatenate(col or [()], axis=None, dtype=float) for col in (run_a, run_f))
    batched = run.size > 0 and all(lockstep_applies(pilot) for pilot in pilots)
    if batched:
        done = simulate_lockstep(pilots, static, x_e, v_e, run, x_a, x_f, cfg, states)
    else:
        done = Runs.join(static, cfg, (
            simulate(pilots[r], TestCase(static, x_e[r], v_e[r], a, f), cfg)
            for r, a, f in zip(run.tolist(), x_a.tolist(), x_f.tolist())), states)
    codes, steps, early = verdict_arrays(done), done.steps, done.steps < done.horizon
    own = sum(sizes[:len(sizes) - riders])
    for counter, cells, engine in ((work, slice(own), batched),
                                   (rider_work, slice(own, None), False)):
        if counter is not None:
            n = steps[cells].size
            counter.update(cells=n, cell_steps=int(steps[cells].sum()),
                           early_exits=int(early[cells].sum()), lockstep_batches=int(engine),
                           lockstep_steps=int(steps.max()) if engine else 0,
                           scalar_simulate_calls=0 if batched else n)
    return codes, done.v_cross, done.states


@dataclass
class Riders:
    """Runs of one cell that ride a ``run_grids`` call after its grids' cells.

    ``run_grids`` sets each run's verdict code (``codes``, its index in
    ``VERDICTS``) and crossing speed (``v_cross``, 0.0 where it did not
    cross), and adds the runs' work to ``work`` as ``_run_cells`` counts
    riders.  The engine steps every cell on its own, so these results are
    bit for bit those of a call of their own."""

    runs: Sequence[Run]
    work: Counter = field(default_factory=Counter)
    codes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    v_cross: np.ndarray = field(default_factory=lambda: np.zeros(0))


def run_grids(
    static: StaticPart,
    jobs: Sequence[tuple[AutopilotSpec, Grid]],
    cfg: SimConfig = SimConfig(),
    work: Optional[Counter] = None,
    riders: Optional[Riders] = None,
) -> list[GridResult]:
    """Simulate every geometry of each job's grid over one static part.

    ``jobs`` pairs a pilot with a grid; a ``GridResult`` comes back per job,
    in order.  Each grid is a run of ``_run_cells``, its cells ``x_a``-major:
    the grids take one ``simulate_lockstep`` call if the lockstep engine can
    run every pilot, whatever the pilot, and otherwise run ``simulate`` cell
    by cell.  The caller bounds the cells of one call.  The work done is
    added to ``work``, as ``_run_cells`` counts it.  The runs of ``riders``,
    if given, join that call after the grids' runs, and their results and
    work are set on ``riders``.
    """
    grids = [grid for _, grid in jobs]
    runs = [(pilot, x_e, v_e, *np.meshgrid(x_a, x_f, indexing="ij"))
            for pilot, (x_e, v_e, x_a, x_f, _) in jobs]
    rides = riders.runs if riders is not None else ()
    codes, v_cross, _ = _run_cells(static, [*runs, *rides], cfg,
                                   Counter() if work is None else work, riders=len(rides),
                                   rider_work=riders.work if riders is not None else None)
    n = codes.size - len(rides)
    if riders is not None:
        riders.codes, riders.v_cross = codes[n:], v_cross[n:]
    ends = np.cumsum([x_a.size for *_, x_a, _ in runs])
    return [GridResult(static=static, x_e=x_e, v_e=v_e, boundary=boundary,
                       x_a_values=tuple(x_a_values), x_f_values=tuple(x_f_values),
                       verdicts=codes.reshape(len(x_a_values), len(x_f_values)),
                       zones=zone_codes(boundary, x_a_values, x_f_values), dt=cfg.dt)
            for (x_e, v_e, x_a_values, x_f_values, boundary), codes
            in zip(grids, np.split(codes[:n], ends[:-1]))]


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
    boundary = most_critical(x_e, v_e, autopilot.profile, static)
    return run_grids(static, [(autopilot, (x_e, v_e, x_a_values, x_f_values, boundary))],
                     cfg)[0]


def _dominated(x_a: np.ndarray, x_f: np.ndarray, kinds: np.ndarray):
    """The failed cells that a progress pass dominates, and the witness of
    each ``x_f`` column as ``(x_a, x_f)`` arrays, for grids stacked on the
    first axis; ``kinds`` indexes ``_KINDS`` per cell.

    Only progress passes count as dominators: a cautious stop at a harder
    geometry demonstrates nothing about crossing ability, so it cannot indict
    a crossing failure as irrational.  Frontier failures below the critical
    corner therefore stay in the transition class.

    The witness of a failed cell is, of the progress passes at ``x_a`` and
    ``x_f`` no larger than its own, the one smallest in ``(x_a, x_f)``.  A
    staircase sweep finds it: each ``x_a`` column's lowest pass, and for each
    ``x_f`` the first column in ``(x_a, lowest)`` order whose lowest pass is
    at or below it, a witness from that column's ``x_a`` on.
    """
    lowest = np.where(kinds == _PROGRESS, x_f[:, None, :], np.inf).min(axis=2)
    order = np.lexsort((lowest, x_a), axis=-1)
    col_a, col_f = (np.take_along_axis(a, order, -1) for a in (x_a, lowest))
    below = col_f[:, :, None] <= x_f[:, None, :]
    first = below.argmax(axis=1)
    wit_a, wit_f = (np.take_along_axis(a, first, 1) for a in (col_a, col_f))
    dominated = ((kinds == _FAIL) & below.any(axis=1)[:, None, :]
                 & (wit_a[:, None, :] <= x_a[:, :, None]))
    return dominated, wit_a, wit_f


def classify_grids(grids: Sequence[GridResult]) -> list[dict]:
    """Label every cell of completed grids of one shape, all grids at once,
    and return each grid's report.

    A cautious pass counts as overcaution only beyond the critical corner by
    more than two environment steps, the finest distinction the
    discretisation supports.  The grids are stacked into arrays, and each
    rule is an array comparison over all their cells.

    A report holds its raw file's fields, but with the point list as columns
    ``(x_a_values, x_f_values, labels, verdicts, zones)`` (codes indexing
    ``LABELS``, ``VERDICTS`` and ``ZONES``), and the cells per label,
    ``counts``, which the file leaves out.  ``frequencies_relevant`` divides
    by the cells outside the irrelevant zone, and is 0.0 where there are none.
    """
    if not grids or not grids[0].verdicts.size:
        raise ValueError("grid is empty")
    verdicts = np.stack([g.verdicts for g in grids])
    zones = np.stack([g.zones for g in grids])
    x_a = np.array([g.x_a_values for g in grids], dtype=float)
    x_f = np.array([g.x_f_values for g in grids], dtype=float)
    margin, x_hat_a, x_hat_f = (np.array(col)[:, None, None] for col in zip(*(
        (2.0 * g.static.vl * g.dt, g.boundary.x_hat_a, g.boundary.x_hat_f) for g in grids)))
    kinds = _KIND_OF_VERDICT[verdicts]
    dominated, _, _ = _dominated(x_a, x_f, kinds)
    progress, cautious, fail = (kinds == k for k in range(len(_KINDS)))  # by ``_KINDS``
    safe_progress = zones == ZONES.index(Zone.SAFE_PROGRESS)
    overcautious = (cautious & safe_progress & (x_a[:, :, None] - x_hat_a > margin)
                    & (x_f[:, None, :] - x_hat_f > margin))
    labels = np.select([dominated, fail, overcautious, cautious], [_IS, _TF, _IO, _CAUTIOUS],
                       _PASS)

    cells, n_cells = (1, 2), verdicts[0].size
    counts, zone_counts = (np.stack([(codes == k).sum(axis=cells) for k in range(n)], 1).tolist()
                           for codes, n in ((labels, len(LABELS)), (zones, len(ZONES))))
    no_progress = safe_progress.any(axis=cells) & ~(safe_progress & progress).any(axis=cells)
    of_kinds = np.where(fail.all(axis=cells), "OF-SF", np.where(no_progress, "OF-PD", None))
    reports = []
    for g, grid_labels, of_kind, by_label, by_zone in zip(grids, labels, of_kinds.tolist(),
                                                         counts, zone_counts):
        count = {LABELS[k]: n for k, n in enumerate(by_label) if n}
        relevant = n_cells - by_zone[ZONES.index(Zone.IRRELEVANT)]
        reports.append({
            "scenario_type": g.static.scenario_type.value,
            "x_e": g.x_e,
            "v_e": g.v_e,
            "boundary": g.boundary.to_dict(),
            "grid": (g.x_a_values, g.x_f_values, grid_labels, g.verdicts, g.zones),
            "counts": count,
            "frequencies": {k: count.get(k, 0) / n_cells for k in FAILURE_LABELS},
            "frequencies_relevant": {k: count.get(k, 0) / relevant if relevant else 0.0
                                     for k in FAILURE_LABELS},
            "of": {"kind": of_kind},
            "zone_counts": {zone.value: n for zone, n in zip(ZONES, by_zone)},
        })
    return reports


def classify_grid(grid: GridResult) -> dict:
    """``classify_grids`` of the one grid."""
    return classify_grids([grid])[0]


def rationality_check(grid: GridResult) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Witness pairs ``(passing cell, dominated failing cell)``, by failing cell.

    Empty iff the verdict is monotone along the criticality order; each
    witness shows a pass at a harder geometry together with a failure at an
    easier one.  The pass is the dominating progress pass smallest in
    ``(x_a, x_f)``.
    """
    if not grid.verdicts.size:
        return []
    x_a, x_f = np.array([grid.x_a_values], dtype=float), np.array([grid.x_f_values], dtype=float)
    dominated, wit_a, wit_f = _dominated(x_a, x_f, _KIND_OF_VERDICT[grid.verdicts][None])
    pairs = [((wit_a[0, j].item(), wit_f[0, j].item()), (grid.x_a_values[i], grid.x_f_values[j]))
             for i, j in np.argwhere(dominated[0]).tolist()]
    return sorted(pairs, key=lambda pair: pair[::-1])


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


def _brake_to_stop(lanes: Sequence[tuple[AutopilotSpec, float]], dt: float, every: int = 0):
    """Brake ``(pilot, v0)`` lanes from ``(0.0, v0)``, ``v0`` positive, to a
    stop, each at the rate its pilot picks for ``v0``, all in one
    ``advance_arrays`` step (bit for bit ``advance``) a time step; a lane
    leaves when it stops.  Returns each lane's stopping distance and, for
    ``every`` > 0, its ``(step, travelled, speed)`` every ``every`` steps
    while it still moves."""
    v, rate, v_max = np.array([(v0, pilot.brake_rate_for(v0), pilot.profile.v_max)
                               for pilot, v0 in lanes], dtype=float).reshape(-1, 3).T
    idx, x, stop = np.arange(v.size), np.zeros(v.size), np.zeros(v.size)
    picked = [[] for _ in lanes]
    k = 0
    while idx.size:
        if every and k % every == 0:
            for lane, x_k, v_k in zip(idx.tolist(), x.tolist(), v.tolist()):
                picked[lane].append((k, x_k, v_k))
        x, v = advance_arrays(x, v, -rate, dt, v_max)
        k += 1
        moving = v > 0.0
        if not moving.all():
            stop[idx[~moving]] = x[~moving]
            idx, x, v, rate, v_max = (col[moving] for col in (idx, x, v, rate, v_max))
    return stop.tolist(), picked


def determinacy_check_braking(
    checks: Sequence[tuple[AutopilotSpec, float]],
    restart_every: int = RESTART_EVERY,
    dt: float = DEFAULT_DT,
) -> list[DeterminacyReport]:
    """Compare full braking runs against fresh runs started mid-curve.

    Each check is an autopilot and a ``v0`` in ``(0, v_max]``: the baseline
    brakes from ``v0`` to a stop, and every ``restart_every``-th state of
    that curve seeds a fresh braking run whose rate the autopilot picks for
    the restart speed.  Deviation is the gap between stopping positions; the
    tolerance is one step of travel at ``v0`` plus 0.25 m.  The baselines
    of all checks brake together, and then all their restarts.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be at least 1")
    for pilot, v0 in checks:
        if not 0 < v0 <= pilot.profile.v_max:
            raise ValueError(f"braking check v0 {v0} outside (0, v_max {pilot.profile.v_max}]")
    stops, picked = _brake_to_stop(checks, dt, restart_every)
    fresh = iter(_brake_to_stop([(pilot, v) for (pilot, _), states in zip(checks, picked)
                                 for _, _, v in states], dt)[0])
    reports = []
    for (_, v0), stop, states in zip(checks, stops, picked):
        restarts = [RestartRecord(t=k * dt, x=x_k, v=v_k, deviation=abs(x_k + next(fresh) - stop))
                    for k, x_k, v_k in states]
        reports.append(DeterminacyReport(
            maneuver="braking", restarts=restarts, tol=v0 * dt + 0.25,
            max_deviation=max((r.deviation for r in restarts), default=0.0)))
    return reports


def progress_probe(
    static: StaticPart, x_e: float, v_e: float, boundary: CriticalBoundary, dt: float = DEFAULT_DT
) -> TestCase:
    """The crossing case a progress determinacy check starts from: just past
    the start's ``most_critical`` boundary, by two arriving-vehicle steps (at
    least 1 m) in ``x_a`` and by 1 m in ``x_f``."""
    return TestCase(
        static=static, x_e=x_e, v_e=v_e,
        x_a=boundary.x_hat_a + max(2.0 * static.vl * dt, 1.0), x_f=boundary.x_hat_f + 1.0,
    )


def _restart_states(tc: TestCase, states, restart_every: int, dt: float):
    """The restart states ``(t, x, v, x_a)`` of a progress check from case
    ``tc``, picked from its baseline run's ``states``."""
    picked = []
    # From one period in: the state at t = 0 is the baseline's own case.
    for k in range(restart_every, len(states), restart_every):
        x, v = states[k]
        if x >= 0.0:
            break  # restarts past the conflict point have an empty approach
        t = k * dt  # the time of its frame
        x_a = tc.x_a - tc.static.vl * t
        if x_a <= 0.0:
            continue  # arriving vehicle already past: the race is decided
        picked.append((t, x, v, x_a))
    return picked


# Per progress check: its baseline's crossing speed and restart states, or
# the ``CheckAbortedError`` that says why it has none.
Base = tuple[float, list] | CheckAbortedError


def progress_baselines(
    checks: Sequence[tuple[AutopilotSpec, TestCase]],
    restart_every: int = RESTART_EVERY,
    cfg: SimConfig = SimConfig(),
    work: Optional[Counter] = None,
) -> tuple[list[Base], list[Run]]:
    """The first half of ``determinacy_check_progress``: run the baselines
    of ``checks``, in one ``_run_cells`` call, and pick their restarts.

    Returns each check's base and the restart runs of all checks, in check
    order, each a run of one cell over the checks' static part; the work
    done is added to ``work``.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be at least 1")
    if any(tc.static != checks[0][1].static for _, tc in checks):
        raise ValueError("progress determinacy checks over different static parts")
    if any(tc.mutations or tc.horizon is not None for _, tc in checks):
        raise ValueError("progress determinacy checks take cases without extra vehicles "
                         "or an explicit horizon")
    static = checks[0][1].static if checks else None
    codes, v_cross, traces = _run_cells(
        static, [(pilot, tc.x_e, tc.v_e, tc.x_a, tc.x_f) for pilot, tc in checks], cfg,
        Counter() if work is None else work, states=True)
    bases, runs = [], []
    for (pilot, tc), code, v_base, states in zip(checks, codes.tolist(), v_cross.tolist(), traces):
        kind = VERDICTS[code].kind
        if kind is not VerdictKind.PROGRESS_PASS:
            bases.append(CheckAbortedError(
                f"baseline run did not cross and pass (verdict {kind.value})"))
            continue
        picked = _restart_states(tc, states, restart_every, cfg.dt)
        bases.append((v_base, picked))
        runs += [(pilot, -x, v, x_a, tc.x_f) for _, x, v, x_a in picked]
    return bases, runs


def progress_reports(bases: Sequence[Base], codes: np.ndarray,
                     v_cross: np.ndarray) -> list[DeterminacyReport | CheckAbortedError]:
    """The second half of ``determinacy_check_progress``: grade each base's
    restarts, from the verdict codes and crossing speeds of the restart runs
    ``progress_baselines`` gave, in their order."""
    results = zip((_KIND_OF_VERDICT[codes] == _PROGRESS).tolist(), v_cross.tolist())
    reports = []
    for base in bases:
        if isinstance(base, CheckAbortedError):
            reports.append(base)
            continue
        v_base, states = base
        restarts = []
        for (t, x, v, _), (passed, v_cross) in zip(states, results):
            # A progress pass has crossed, so its crossing speed is known.
            deviation = abs(v_cross - v_base) if passed else math.inf
            restarts.append(RestartRecord(t=t, x=x, v=v, deviation=deviation, passed=passed))
        reports.append(DeterminacyReport(
            maneuver="progress", restarts=restarts, tol=0.2,
            max_deviation=max((r.deviation for r in restarts if r.passed), default=0.0),
            verdict_flips=sum(not r.passed for r in restarts)))
    return reports


def determinacy_check_progress(
    checks: Sequence[tuple[AutopilotSpec, TestCase]],
    restart_every: int = RESTART_EVERY,
    cfg: SimConfig = SimConfig(),
    work: Optional[Counter] = None,
) -> list[DeterminacyReport | CheckAbortedError]:
    """Restart passing crossing maneuvers from states of their own traces.

    Each check is an autopilot and the case of its baseline run, over one
    static part shared by all checks, without extra vehicles or an explicit
    horizon.  Every ``restart_every``-th state of a baseline's trace after
    its start and before the conflict point, while the arriving vehicle has
    not reached it, becomes a fresh test case: the ego resumes at the
    visited state while the environment is shifted to its state at that
    time.  The baselines are the runs of one ``_run_cells`` call and the
    restarts of all checks those of a second, so checks of built-in pilots
    alone take two engine calls (which, as for a grid, refuse a start above
    the pilot's ``v_max``).  A report records verdict flips and the spread
    of conflict-point speeds, tolerated up to 0.2 m/s; a check whose
    baseline is not a progress pass gets the ``CheckAbortedError`` that says
    so in place of its report.  The work done is added to ``work``.

    ``progress_baselines`` and ``progress_reports`` are its two halves, so a
    caller can run the restarts with other cells.
    """
    work = Counter() if work is None else work
    bases, runs = progress_baselines(checks, restart_every, cfg, work)
    codes, v_cross, _ = _run_cells(checks[0][1].static if checks else None, runs, cfg, work)
    return progress_reports(bases, codes, v_cross)
