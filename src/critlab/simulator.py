"""Discrete-time closed-loop engine and per-run verdict.

Each step integrates the ego with ``kinematics.advance``.

Collision with the arriving vehicle is a crossing-order event: it fires when
the ego has not cleared the conflict point by the time the arriving vehicle
reaches it (within a small boundary tolerance) while both are inside the
critical zone.  An ego that crosses first is out of the arriving vehicle's
way; mere co-occupancy of the zone is recorded as its own event and never
fails a run.

``simulate`` runs one case with any autopilot, stepping on plain numbers
through one decision function per run, and is the reference.
``simulate_lockstep`` runs many cases over one static part together, one
numpy array step per time step, for any mix of built-in autopilots, and
gives every case the run ``simulate`` gives it.  Both return one record,
``Runs``: the events, crossing, final state and, where asked for, states of
each cell, as arrays by cell.  ``verdict_arrays`` grades every cell of a
record, ``verdict`` the one cell of a ``simulate`` call, and ``event_list``
lists a cell's events in time order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .autopilots import AutopilotSpec, PolicyColumns, step_arrays
from .kinematics import advance, advance_arrays
from .scenario import (
    DEFAULT_DT,
    HORIZON_SLACK,
    Property,
    StaticPart,
    TestCase,
    default_goal,
    expand,  # noqa: F401  re-exported: callers look it up on this module
    horizon_steps,
)

__all__ = [
    "ZONE_EPSILON",
    "SimConfig",
    "EventKind",
    "VerdictKind",
    "Verdict",
    "Runs",
    "simulate",
    "lockstep_applies",
    "simulate_lockstep",
    "event_list",
    "VERDICTS",
    "VERDICT_CODES",
    "verdict",
    "verdict_arrays",
]

_EPS = 1e-9
ZONE_EPSILON = 0.1  # m, default boundary tolerance for crossing-order ties


class EventKind(str, enum.Enum):
    COLLISION_ARRIVING = "collision_arriving"
    COLLISION_FRONT = "collision_front"
    RED_LIGHT_ENTRY = "red_light_entry"
    ZONE_COOCCUPANCY = "zone_cooccupancy"
    CROSSED_CONFLICT = "crossed_conflict"
    STOPPED_BEFORE_ZONE = "stopped_before_zone"
    HORIZON_EXHAUSTED = "horizon_exhausted"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SimConfig:
    dt: float = DEFAULT_DT  # s
    zone_epsilon: float = ZONE_EPSILON  # m

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite: {self.dt}")
        if not 0 <= self.zone_epsilon < math.inf:
            raise ValueError(f"zone_epsilon must be non-negative and finite: {self.zone_epsilon}")


class VerdictKind(str, enum.Enum):
    PROGRESS_PASS = "progress_pass"
    CAUTIOUS_PASS = "cautious_pass"
    FAIL = "fail"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.kind is not VerdictKind.FAIL


_PROPERTY_EVENTS = {
    Property.NO_COLLISION_ARRIVING: EventKind.COLLISION_ARRIVING,
    Property.NO_COLLISION_FRONT: EventKind.COLLISION_FRONT,
    Property.NO_RED_LIGHT_ENTRY: EventKind.RED_LIGHT_ENTRY,
}

# The rows of ``Runs.event_step``: the events that fire at the end of a step,
# in the order a step checks them (a crossing comes before all of them), and
# ``aborted``, which fires at the start of the step whose decision was not
# finite.  Only ``simulate`` sets ``aborted``: a built-in pilot commands
# finite accelerations.
_STEP_EVENTS = (
    EventKind.ZONE_COOCCUPANCY,
    EventKind.COLLISION_ARRIVING,
    EventKind.RED_LIGHT_ENTRY,
    EventKind.COLLISION_FRONT,
    EventKind.STOPPED_BEFORE_ZONE,
    EventKind.HORIZON_EXHAUSTED,
    EventKind.ABORTED,
)
_COOC, _COLL_A, _RED, _COLL_F, _STOP, _HORIZON, _ABORT = range(len(_STEP_EVENTS))


@dataclass(eq=False)
class Runs:
    """The runs of one ``simulate`` or ``simulate_lockstep`` call, as arrays
    by cell.

    ``x_f`` and ``horizon`` are the cells' own, ``horizon`` as
    ``TestCase.steps`` sizes it.  ``event_step[k]`` holds the step in which
    ``_STEP_EVENTS[k]`` first fired (-1: never), and ``cross_step`` that of
    the crossing, which happened at ``t_cross`` at speed ``v_cross`` (both
    0.0 where ``cross_step`` is -1), interpolated linearly within the step.
    ``final_p`` and ``final_v`` are the ego's last state, ``steps`` the
    steps taken, ``race_won`` whether the ego cleared the point no later
    than the arriving vehicle, and ``states``, for a call that asks for
    them, each cell's ``(p, v)`` states: the start and one per step taken,
    ``dt`` apart.  A ``simulate`` call also keeps its case, ``tc``, with the
    horizon it ran to.
    """

    static: StaticPart
    cfg: SimConfig
    x_f: np.ndarray
    horizon: np.ndarray
    event_step: np.ndarray
    cross_step: np.ndarray
    t_cross: np.ndarray
    v_cross: np.ndarray
    final_p: np.ndarray
    final_v: np.ndarray
    steps: np.ndarray
    race_won: np.ndarray
    states: Optional[list[list[tuple[float, float]]]]
    tc: Optional[TestCase] = None

    @classmethod
    def blank(cls, static: StaticPart, cfg: SimConfig, x_f: np.ndarray, horizon: np.ndarray,
              states: bool) -> Runs:
        """A record of the cells ``x_f`` and ``horizon`` before any step."""
        n = len(x_f)
        return cls(static, cfg, x_f, horizon, np.full((len(_STEP_EVENTS), n), -1),
                   np.full(n, -1), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
                   np.zeros(n, dtype=int), np.zeros(n, dtype=bool), [] if states else None)

    @classmethod
    def join(cls, static: StaticPart, cfg: SimConfig, parts: Iterable[Runs],
             states: bool = False) -> Runs:
        """The cells of ``parts``, runs over ``static`` at ``cfg``, as one
        record, in order, with their states if ``states`` asks for them.
        ``parts`` is read once, so the records of a generator, and the
        states not asked for, are let go one by one."""
        joined = cls.blank(static, cfg, np.zeros(0), np.zeros(0, dtype=np.int64), states)
        rows = []
        for part in parts:
            rows.append(_cell_arrays(part))
            if states:
                joined.states += part.states
        for name, col in zip(_CELL_ARRAYS, zip(*rows)):  # no rows: the blank's columns
            setattr(joined, name, np.concatenate(col, axis=-1))
        return joined


_CELL_ARRAYS = ("x_f", "horizon", "event_step", "cross_step", "t_cross", "v_cross", "final_p",
                "final_v", "steps", "race_won")
_cell_arrays = attrgetter(*_CELL_ARRAYS)


def simulate(
    autopilot,
    tc: TestCase,
    cfg: SimConfig = SimConfig(),
    record: bool = True,
) -> Runs:
    """Run one closed-loop scenario to a stable end, collision, or horizon,
    ``tc.steps(cfg.dt)`` steps: the record of its one cell, states included.

    The loop runs on numbers: ``autopilot.start_case(tc, dt)`` begins the
    case and gives the run's decision function, and each step asks it for
    the pilot's acceleration at the last state, ``(t, x, v)``; a decision
    that is not finite aborts the run.  The run ends early once the ego is
    stopped clear of the conflict (either before the zone or past the
    point) and the arriving vehicle has left the zone; nothing can change
    after that.  ``record`` is kept for callers that still pass it and
    changes nothing: every run records its trace.
    """
    dt = cfg.dt
    n = tc.steps(dt)
    tc = replace(tc, horizon=n)
    static = tc.static
    d = static.d
    vl = static.vl
    v_max = autopilot.profile.v_max

    t_arrive = tc.x_a / vl
    race_grace = cfg.zone_epsilon / vl

    ego = tc.initial_ego()
    p, v = ego.x, ego.v
    states = [(p, v)]
    event_step = [-1] * len(_STEP_EVENTS)
    decide = autopilot.start_case(tc, dt)

    crossed = False
    cross_step, t_cross, v_cross = -1, 0.0, 0.0
    race_exempt = False  # ego cleared the point in time; arriving conflict over
    overlap_after_arrival = False
    steps = 0

    t1 = 0.0
    for i in range(n):
        a = decide(t1, p, v)
        if not math.isfinite(a):
            event_step[_ABORT] = i
            break
        p0, v0 = p, v
        state = advance(p, v, a, dt, v_max)
        states.append(state)
        p, v = state
        t1 = (i + 1) * dt
        steps = i + 1

        if not crossed and p >= 0.0:
            crossed, cross_step = True, i
            if p <= p0:
                t_cross, v_cross = t1, v
            else:  # not i * dt + dt * w, which rounds differently
                t_cross = i * dt + dt * (0.0 - p0) / (p - p0)
                w = (0.0 - p0) / (p - p0)
                v_cross = v0 + w * (v - v0)
            if t_cross <= t_arrive + race_grace:
                race_exempt = True

        arr = tc.x_a - vl * t1
        in_zone_e = abs(p) <= d
        in_zone_a = abs(arr) <= d
        if in_zone_e and in_zone_a:
            if event_step[_COOC] < 0:
                event_step[_COOC] = i
            if t1 >= t_arrive - _EPS:
                overlap_after_arrival = True

        if overlap_after_arrival and not race_exempt:
            # The arriving vehicle reached the point while sharing the zone;
            # collide unless the ego's crossing still falls within the grace.
            if crossed or t1 > t_arrive + race_grace:
                event_step[_COLL_A] = i
                break

        if p >= -d and p0 < -d:
            light = static.light_at(t1)
            if light is not None and light.value == "red":
                event_step[_RED] = i

        if p >= tc.x_f - _EPS and v > _EPS:
            event_step[_COLL_F] = i
            break

        if event_step[_STOP] < 0 and v <= _EPS and p < -d:
            event_step[_STOP] = i

        if v <= _EPS and (p < -d or crossed) and arr < -d:
            break
    else:
        event_step[_HORIZON] = n - 1

    return Runs(static, cfg, np.array([tc.x_f], dtype=float), np.array([n]),
                np.array(event_step)[:, None], np.array([cross_step]), np.array([t_cross]),
                np.array([v_cross]), np.array([p], dtype=float), np.array([v], dtype=float),
                np.array([steps]), np.array([race_exempt]), [states], tc)


def lockstep_applies(autopilot) -> bool:
    """Whether ``simulate_lockstep`` can run this autopilot: a built-in
    variant."""
    return isinstance(autopilot, AutopilotSpec)


def simulate_lockstep(
    pilots: Sequence[AutopilotSpec],
    static: StaticPart,
    x_e,
    v_e,
    run,
    x_a,
    x_f,
    cfg: SimConfig = SimConfig(),
    states: bool = False,
) -> Runs:
    """``simulate(autopilot, tc, cfg)`` for every cell at once, with its
    states if ``states`` asks for them.

    A run is a pilot from an ego start: ``pilots``, ``x_e`` and ``v_e`` hold
    one entry per run, each pilot one that ``lockstep_applies`` to, started
    at most at its ``v_max``.  A cell is a geometry of a run: ``run`` (the
    index of its run), ``x_a`` and ``x_f`` hold one entry per cell, its
    horizon the one ``TestCase.steps`` sizes.  The columns are checked
    as arrays, as ``TestCase`` checks a case over ``static`` with no extra
    vehicles.  All cells take each step together, the environment in closed
    form and each cell's policy from its run's row of ``PolicyColumns``; a
    cell leaves the batch when its simulation would end, at the latest at
    its own horizon.  Each cell's record equals the scalar one in its
    events, final state, step count, crossing time and speed, race and
    states.
    """
    x_e, v_e, x_a, x_f = (np.asarray(col, dtype=float) for col in (x_e, v_e, x_a, x_f))
    run = np.asarray(run, dtype=np.intp)
    n_runs, n = len(pilots), len(run)
    if (any(col.shape != (n_runs,) for col in (x_e, v_e))
            or any(col.shape != (n,) for col in (x_a, x_f))):
        raise ValueError(f"lockstep columns of unequal lengths for {n_runs} runs of {n} cells")
    if not (np.isfinite([x_e, v_e]).all() and np.isfinite([x_a, x_f]).all() and (x_e > 0).all()
            and (np.array([x_a, x_f]) > 0).all() and (v_e >= 0).all()):
        raise ValueError("lockstep x_e, x_a and x_f must be positive, v_e non-negative, all finite")
    if n and not (0 <= run.min() and run.max() < n_runs):
        raise ValueError(f"lockstep run index outside [0, {n_runs})")
    for pilot, v in zip(pilots, v_e.tolist()):
        if not lockstep_applies(pilot):
            raise ValueError(f"no lockstep engine for {pilot!r}")
        pilot.check_start_speed(v)
    dt = cfg.dt
    horizons = horizon_steps(static, x_a, dt, HORIZON_SLACK)
    runs = Runs.blank(static, cfg, x_f, horizons, states)
    if not n:
        return runs
    trace = [] if states else None  # per step: the active cells' (idx, p, v)
    event_step, cross_step, t_cross, v_cross = (runs.event_step, runs.cross_step, runs.t_cross,
                                                runs.v_cross)
    final_p, final_v, steps, race_won = runs.final_p, runs.final_v, runs.steps, runs.race_won

    pc = PolicyColumns.build(pilots, v_e.tolist(), run, x_a, x_f)
    d, vl = static.d, static.vl
    race_grace = cfg.zone_epsilon / vl
    t_arrive = x_a / vl
    # Per-cell columns of the active cells; a finished cell is dropped from all.
    cols = [
        np.arange(n),  # index of the cell in the columns
        -x_e[run], v_e[run],  # p, v
        x_a, x_f, x_f - _EPS, horizons, t_arrive - _EPS, t_arrive + race_grace,
    ] + [np.zeros(n, dtype=bool) for _ in range(5)]

    i = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        while cols[0].size:
            (idx, p, v, xa, xf, xf_front, horizon, t_late, t_grace,
             crossed, exempt, overlap, saw_cooc, saw_stop) = cols
            a = step_arrays(pc, p, v, xa - vl * (i * dt), xf, static, dt)
            p0, v0 = p, v
            p, v = advance_arrays(p, v, a, dt, pc.v_max)
            t1 = (i + 1) * dt
            if trace is not None:
                trace.append((idx, p, v))

            new = ~crossed & (p >= 0.0)
            if new.any():
                pn, p0n, vn, v0n = p[new], p0[new], v[new], v0[new]
                stalled = pn <= p0n
                # Each in ``simulate``'s own expression: they round differently.
                tc_new = np.where(stalled, t1, i * dt + dt * (0.0 - p0n) / (pn - p0n))
                w = (0.0 - p0n) / (pn - p0n)
                crossed[new] = True
                exempt[new] = tc_new <= t_grace[new]
                t_cross[idx[new]] = tc_new
                v_cross[idx[new]] = np.where(stalled, vn, v0n + w * (vn - v0n))
                cross_step[idx[new]] = i

            arr = xa - vl * t1
            both = (np.abs(p) <= d) & (np.abs(arr) <= d)
            event_step[_COOC, idx[both & ~saw_cooc]] = i
            saw_cooc |= both
            overlap |= both & (t1 >= t_late)
            hit = overlap & ~exempt & (crossed | (t1 > t_grace))
            event_step[_COLL_A, idx[hit]] = i
            going = ~hit

            entered = going & (p >= -d) & (p0 < -d)
            if entered.any():
                light = static.light_at(t1)
                if light is not None and light.value == "red":
                    event_step[_RED, idx[entered]] = i
            hit = going & (p >= xf_front) & (v > _EPS)
            event_step[_COLL_F, idx[hit]] = i
            going &= ~hit
            stopped, short = v <= _EPS, p < -d
            stop = going & ~saw_stop & stopped & short
            event_step[_STOP, idx[stop]] = i
            saw_stop |= stop
            going &= ~(stopped & (short | crossed) & (arr < -d))
            hit = going & (horizon == i + 1)
            event_step[_HORIZON, idx[hit]] = i
            going &= ~hit

            cols = [idx, p, v, xa, xf, xf_front, horizon, t_late, t_grace,
                    crossed, exempt, overlap, saw_cooc, saw_stop]
            if not going.all():
                done = idx[~going]
                final_p[done], final_v[done] = p[~going], v[~going]
                steps[done] = i + 1
                race_won[done] = exempt[~going]
                cols = [col[going] for col in cols]
                pc = pc.select(going)
            i += 1
    if trace is not None:  # a row per step, a column per cell
        p_at, v_at = np.empty((2, len(trace) + 1, n))
        p_at[0], v_at[0] = -x_e[run], v_e[run]
        for k, (idx, p, v) in enumerate(trace, 1):
            p_at[k, idx], v_at[k, idx] = p, v
        runs.states = [list(zip(p_at[:s + 1, c].tolist(), v_at[:s + 1, c].tolist()))
                       for c, s in enumerate(steps.tolist())]
    return runs


def event_list(runs: Runs, cell: int = 0) -> list[tuple[EventKind, float]]:
    """The events of one cell of ``runs`` as ``(kind, t)``, in time order.

    A crossing is at ``t_cross``, ``aborted`` at the start of its step and
    every other event at the end of its step (``horizon_exhausted``, of the
    last step, at ``horizon * dt``).  Events of one time follow the order of
    their steps, and within a step a crossing comes first and the others
    follow in ``_STEP_EVENTS`` order.
    """
    dt = runs.cfg.dt
    keyed = [((i if kind is EventKind.ABORTED else i + 1) * dt, i, k, kind)
             for k, (kind, i) in enumerate(zip(_STEP_EVENTS, runs.event_step[:, cell].tolist()), 1)
             if i >= 0]
    i = runs.cross_step[cell].item()
    if i >= 0:
        keyed.append((runs.t_cross[cell].item(), i, 0, EventKind.CROSSED_CONFLICT))
    return [(kind, t) for t, _, _, kind in sorted(keyed)]


# Every verdict a run can get, once each; ``verdict_arrays`` grades with
# their indices.
VERDICTS = (
    Verdict(VerdictKind.PROGRESS_PASS),
    Verdict(VerdictKind.CAUTIOUS_PASS),
    Verdict(VerdictKind.FAIL, reason="no_stable_state_after_crossing"),
    Verdict(VerdictKind.FAIL, reason="target_not_reached"),
    Verdict(VerdictKind.FAIL, reason="aborted"),
    *(Verdict(VerdictKind.FAIL, reason=prop.value) for prop in Property),
)
VERDICT_CODES = {vd: code for code, vd in enumerate(VERDICTS)}
_PROGRESS, _CAUTIOUS, _UNSTABLE, _SHORT, _ABORTED = range(5)


def verdict_arrays(runs: Runs) -> np.ndarray:
    """Grade every cell of ``runs`` against the properties of
    ``default_goal``, as its index in ``VERDICTS``.

    The first rule that applies decides: the properties in sorted order,
    then aborted.  Otherwise a run that crossed passes if it stopped behind
    the front vehicle, within the run tolerance (the last braking step can
    quantise the stop a few centimetres past it; a rolling pass of the front
    vehicle is already a collision): a progress pass if it won the race, and
    a cautious pass if it crossed only after the arriving vehicle had
    cleared, a yield-then-go maneuver, safe but not a demonstrated crossing.
    A run that did not cross passes, cautiously, if it stopped short of the
    zone.
    """
    if not runs.steps.size:
        return np.zeros(0, dtype=int)
    static = runs.static
    stopped = runs.final_v <= _EPS
    code = np.where(
        runs.cross_step >= 0,
        np.where(stopped & (runs.final_p <= runs.x_f + runs.cfg.zone_epsilon),
                 np.where(runs.race_won, _PROGRESS, _CAUTIOUS), _UNSTABLE),
        np.where(stopped & (runs.final_p < -static.d), _CAUTIOUS, _SHORT),
    )
    code = np.where(runs.event_step[_ABORT] >= 0, _ABORTED, code)
    # Last property first, so that the first that applies is the one left.
    for prop in sorted(default_goal(static), key=lambda pr: pr.value, reverse=True):
        fired = runs.event_step[_STEP_EVENTS.index(_PROPERTY_EVENTS[prop])] >= 0
        code = np.where(fired, VERDICT_CODES[Verdict(VerdictKind.FAIL, prop.value)], code)
    return code


def verdict(runs: Runs) -> Verdict:
    """The verdict of the one cell of ``runs``, a ``simulate`` call's record."""
    return VERDICTS[verdict_arrays(runs)[0]]
