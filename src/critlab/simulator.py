"""Discrete-time closed-loop engine and per-run verdict.

Each step integrates the ego with ``kinematics.advance``.

Collision with the arriving vehicle is a crossing-order event: it fires when
the ego has not cleared the conflict point by the time the arriving vehicle
reaches it (within a small boundary tolerance) while both are inside the
critical zone.  An ego that crosses first is out of the arriving vehicle's
way; mere co-occupancy of the zone is recorded as its own event and can be
failed through the stricter ``NO_ZONE_COOCCUPANCY`` property.

``simulate`` runs one case with any autopilot and is the reference.
``simulate_lockstep`` runs the cells of a grid together, one numpy array step
per time step, for the built-in autopilots on a constant profile; it gives
every cell the outcome ``simulate`` gives it, without the recorded frames.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autopilots import AutopilotSpec, step_arrays
from .kinematics import advance, advance_arrays
from .scenario import (
    DEFAULT_DT,
    EgoState,
    Goal,
    Property,
    Scenario,
    Scene,
    TestCase,
    default_goal,
    env_at,
    expand,  # noqa: F401  re-exported: callers look it up on this module
)

__all__ = [
    "SimConfig",
    "EventKind",
    "Event",
    "SimOutcome",
    "VerdictKind",
    "Verdict",
    "simulate",
    "lockstep_applies",
    "simulate_lockstep",
    "verdict",
]

_EPS = 1e-9


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
class Event:
    kind: EventKind
    t: float  # s


@dataclass(frozen=True)
class SimConfig:
    dt: float = DEFAULT_DT  # s
    zone_epsilon: float = 0.1  # m, boundary tolerance for crossing-order ties

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.zone_epsilon < 0:
            raise ValueError("zone_epsilon must be non-negative")


@dataclass
class SimOutcome:
    tc: TestCase
    scenario: Scenario
    events: list[Event]
    final: EgoState
    steps: int
    t_cross: Optional[float]  # interpolated time the ego reached the conflict point
    t_arrive: float  # time the arriving vehicle reaches the conflict point
    race_won: bool = False  # ego cleared the point no later than the arriving vehicle
    zone_epsilon: float = 0.1  # boundary tolerance inherited from the run config

    def has(self, kind: EventKind) -> bool:
        return any(e.kind is kind for e in self.events)

    def first(self, kind: EventKind) -> Optional[Event]:
        for e in self.events:
            if e.kind is kind:
                return e
        return None

    @property
    def collided(self) -> bool:
        return self.has(EventKind.COLLISION_ARRIVING) or self.has(EventKind.COLLISION_FRONT)


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
    Property.NO_ZONE_COOCCUPANCY: EventKind.ZONE_COOCCUPANCY,
    Property.NO_RED_LIGHT_ENTRY: EventKind.RED_LIGHT_ENTRY,
}


def simulate(
    autopilot,
    tc: TestCase,
    cfg: SimConfig = SimConfig(),
    record: bool = True,
) -> SimOutcome:
    """Run one closed-loop scenario to a stable end, collision, or horizon.

    The run ends early once the ego is stopped clear of the conflict (either
    before the zone or past the point) and the arriving vehicle has left the
    zone; nothing can change after that.  Environment states are built only
    for the steps the run takes.
    """
    dt = cfg.dt
    tc.check_horizon(dt)
    static = tc.static
    d = static.d
    vl = static.vl
    v_max = autopilot.profile.v_max
    n = tc.horizon

    t_arrive = tc.x_a / vl
    race_grace = cfg.zone_epsilon / vl

    ego = tc.initial_ego()
    frames = [Scene(t=0.0, ego=ego, env=env_at(tc, 0.0))]
    events: list[Event] = []
    memory: dict = {}

    crossed = False
    t_cross: Optional[float] = None
    race_exempt = False  # ego cleared the point in time; arriving conflict over
    overlap_after_arrival = False
    saw_cooccupancy = False
    saw_stop_before_zone = False
    steps = 0

    p, v = ego.x, ego.v
    for i in range(n):
        scene = frames[-1] if record else Scene(
            t=i * dt, ego=EgoState(p, v), env=env_at(tc, i * dt)
        )
        decision, memory = autopilot.step(scene, static, memory, dt)
        a = decision.accel
        if not math.isfinite(a):
            events.append(Event(EventKind.ABORTED, i * dt))
            break
        p0 = p
        p, v = advance(p, v, a, dt, v_max)
        t1 = (i + 1) * dt
        steps = i + 1
        if record or i == n - 1:
            frames.append(Scene(t=t1, ego=EgoState(p, v), env=env_at(tc, t1)))

        if not crossed and p >= 0.0:
            crossed = True
            t_cross = t1 if p <= p0 else i * dt + dt * (0.0 - p0) / (p - p0)
            events.append(Event(EventKind.CROSSED_CONFLICT, t_cross))
            if t_cross <= t_arrive + race_grace:
                race_exempt = True

        arr = tc.x_a - vl * t1
        in_zone_e = abs(p) <= d
        in_zone_a = abs(arr) <= d
        if in_zone_e and in_zone_a:
            if not saw_cooccupancy:
                saw_cooccupancy = True
                events.append(Event(EventKind.ZONE_COOCCUPANCY, t1))
            if t1 >= t_arrive - _EPS:
                overlap_after_arrival = True

        if overlap_after_arrival and not race_exempt:
            # The arriving vehicle reached the point while sharing the zone;
            # collide unless the ego's crossing still falls within the grace.
            if crossed or t1 > t_arrive + race_grace:
                events.append(Event(EventKind.COLLISION_ARRIVING, t1))
                break

        if p >= -d and p0 < -d:
            light = static.light_at(t1)
            if light is not None and light.value == "red":
                events.append(Event(EventKind.RED_LIGHT_ENTRY, t1))

        if p >= tc.x_f - _EPS and v > _EPS:
            events.append(Event(EventKind.COLLISION_FRONT, t1))
            break

        if not saw_stop_before_zone and v <= _EPS and p < -d:
            saw_stop_before_zone = True
            events.append(Event(EventKind.STOPPED_BEFORE_ZONE, t1))

        if v <= _EPS and (p < -d or crossed) and arr < -d:
            break
    else:
        events.append(Event(EventKind.HORIZON_EXHAUSTED, n * dt))

    events.sort(key=lambda e: e.t)
    return SimOutcome(
        tc=tc,
        scenario=Scenario(static=static, frames=frames),
        events=events,
        final=EgoState(p, v),
        steps=steps,
        t_cross=t_cross,
        t_arrive=t_arrive,
        race_won=race_exempt,
        zone_epsilon=cfg.zone_epsilon,
    )


def lockstep_applies(autopilot, v_e: float) -> bool:
    """Whether ``simulate_lockstep`` can run this autopilot from speed ``v_e``:
    a built-in variant on a constant profile, started no faster than its cap."""
    return (
        isinstance(autopilot, AutopilotSpec)
        and autopilot.profile.kind == "constant"
        and v_e <= autopilot.profile.v_max
    )


# Events that fire at the end of a step, in the order ``simulate`` appends
# them within one step; a crossing comes before all of them.
_STEP_EVENTS = (
    EventKind.ZONE_COOCCUPANCY,
    EventKind.COLLISION_ARRIVING,
    EventKind.RED_LIGHT_ENTRY,
    EventKind.COLLISION_FRONT,
    EventKind.STOPPED_BEFORE_ZONE,
    EventKind.HORIZON_EXHAUSTED,
)
_COOC, _COLL_A, _RED, _COLL_F, _STOP, _HORIZON = range(len(_STEP_EVENTS))


def simulate_lockstep(
    autopilot: AutopilotSpec,
    cases: Sequence[TestCase],
    cfg: SimConfig = SimConfig(),
) -> list[SimOutcome]:
    """``simulate(autopilot, tc, cfg, record=False)`` for every case at once.

    The cases share their static part and ego start and carry no extra
    vehicles, and ``lockstep_applies(autopilot, v_e)`` holds.  All cells take
    each step together as numpy arrays, the environment in closed form; a
    cell leaves the batch when its run would end, at the latest at its own
    horizon.  Each outcome equals the scalar one in its events, final state,
    step count, crossing and race, and carries no frames.
    """
    if not cases:
        return []
    first = cases[0]
    static, x_e, v_e = first.static, first.x_e, first.v_e
    if not lockstep_applies(autopilot, v_e):
        raise ValueError(f"no lockstep engine for {autopilot!r} from v_e={v_e}")
    for tc in cases:
        if (tc.static, tc.x_e, tc.v_e) != (static, x_e, v_e) or tc.mutations:
            raise ValueError("lockstep cases must share one start and carry no extra vehicles")
        tc.check_horizon(cfg.dt)
    dt = cfg.dt
    d, vl, v_max = static.d, static.vl, autopilot.profile.v_max
    race_grace = cfg.zone_epsilon / vl
    n = len(cases)

    x_a = np.array([tc.x_a for tc in cases])
    x_f = np.array([tc.x_f for tc in cases])
    t_arrive = x_a / vl
    # Per-cell columns of the active cells; a finished cell is dropped from all.
    cols = [
        np.arange(n),  # index of the cell in ``cases``
        np.full(n, -x_e), np.full(n, v_e),  # p, v
        x_a, x_f, x_f - _EPS,
        np.array([tc.horizon for tc in cases]),
        t_arrive - _EPS, t_arrive + race_grace,
    ] + [np.zeros(n, dtype=bool) for _ in range(5)]

    # Results by cell: the step of each end-of-step event (-1: none), and so on.
    event_step = np.full((len(_STEP_EVENTS), n), -1)
    cross_step = np.full(n, -1)
    t_cross = np.zeros(n)
    final_p, final_v = np.zeros(n), np.zeros(n)
    steps = np.zeros(n, dtype=int)
    race_won = np.zeros(n, dtype=bool)

    i = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        while cols[0].size:
            (idx, p, v, xa, xf, xf_front, horizon, t_late, t_grace,
             crossed, exempt, overlap, saw_cooc, saw_stop) = cols
            a = step_arrays(autopilot, p, v, xa - vl * (i * dt), xa, xf, v_e, static, dt)
            p0 = p
            p, v = advance_arrays(p, v, a, dt, v_max)
            t1 = (i + 1) * dt

            new = ~crossed & (p >= 0.0)
            if new.any():
                pn, p0n = p[new], p0[new]
                tc_new = np.where(pn <= p0n, t1, i * dt + dt * (0.0 - p0n) / (pn - p0n))
                crossed[new] = True
                exempt[new] = tc_new <= t_grace[new]
                t_cross[idx[new]] = tc_new
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
            i += 1

    outcomes = []
    columns = zip(cases, event_step.T.tolist(), cross_step.tolist(), t_cross.tolist(),
                  final_p.tolist(), final_v.tolist(), steps.tolist(), race_won.tolist())
    for tc, ev_steps, c_step, t_c, p_end, v_end, n_steps, won in columns:
        # ``simulate`` sorts its events stably by time: by (time, step, order in step).
        keyed = [((s + 1) * dt, s, k, kind)
                 for k, (s, kind) in enumerate(zip(ev_steps, _STEP_EVENTS), 1) if s >= 0]
        if c_step >= 0:
            keyed.append((t_c, c_step, 0, EventKind.CROSSED_CONFLICT))
        keyed.sort()
        outcomes.append(SimOutcome(
            tc=tc,
            scenario=Scenario(static=static),
            events=[Event(kind, t) for t, _, _, kind in keyed],
            final=EgoState(p_end, v_end),
            steps=n_steps,
            t_cross=t_c if c_step >= 0 else None,
            t_arrive=tc.x_a / vl,
            race_won=won,
            zone_epsilon=cfg.zone_epsilon,
        ))
    return outcomes


def verdict(outcome: SimOutcome, goal: Optional[Goal] = None) -> Verdict:
    """Grade one outcome against a goal.

    Any violated property fails.  Otherwise a run passes either by crossing and
    stopping behind the front vehicle, or by stopping short of the zone.
    """
    goal = goal if goal is not None else default_goal(outcome.tc.static)
    for prop in sorted(goal.properties, key=lambda pr: pr.value):
        kind = _PROPERTY_EVENTS[prop]
        if outcome.has(kind):
            return Verdict(VerdictKind.FAIL, reason=prop.value)
    if outcome.has(EventKind.ABORTED):
        return Verdict(VerdictKind.FAIL, reason="aborted")
    final = outcome.final
    stopped = final.v <= _EPS
    if outcome.has(EventKind.CROSSED_CONFLICT):
        # the last braking step can quantise the stop a few centimetres past
        # the exact boundary; the run tolerance covers that, a rolling pass
        # of the front vehicle was already caught as a collision
        if stopped and final.x <= outcome.tc.x_f + outcome.zone_epsilon:
            if outcome.race_won:
                return Verdict(VerdictKind.PROGRESS_PASS)
            # crossed only after the arriving vehicle had already cleared:
            # a yield-then-go maneuver, safe but not a demonstrated crossing
            return Verdict(VerdictKind.CAUTIOUS_PASS)
        return Verdict(VerdictKind.FAIL, reason="no_stable_state_after_crossing")
    if stopped and final.x < -outcome.tc.static.d:
        return Verdict(VerdictKind.CAUTIOUS_PASS)
    return Verdict(VerdictKind.FAIL, reason="target_not_reached")
