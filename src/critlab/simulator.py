"""Discrete-time closed-loop engine and per-run verdict.

Each step integrates the ego with ``kinematics.advance``.

Collision with the arriving vehicle is a crossing-order event: it fires when
the ego has not cleared the conflict point by the time the arriving vehicle
reaches it (within a small boundary tolerance) while both are inside the
critical zone.  An ego that crosses first is out of the arriving vehicle's
way; mere co-occupancy of the zone is recorded as its own event and can be
failed through the stricter ``NO_ZONE_COOCCUPANCY`` property.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .kinematics import advance
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
