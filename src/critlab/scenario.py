"""Scenario objects for elementary adverse driving situations.

One conflict point, three actors on a 1-D route abstraction:

* the ego vehicle approaches the conflict point (position is signed route
  distance, negative before the point, positive after),
* an arriving vehicle approaches on the crossing/merging road at the road's
  speed limit (position is its remaining distance to the point, negative once
  past it),
* a static front vehicle sits on the ego route beyond the point.

A compact test case ``(x_e, v_e, x_a, x_f)`` plus the static part expands into
the full environment state sequence; the environment never reacts to the ego.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ScenarioType",
    "Light",
    "Property",
    "StaticPart",
    "EgoState",
    "VehicleState",
    "ExtraVehicle",
    "EnvState",
    "Scene",
    "TestCase",
    "HorizonError",
    "WindowUndefinedError",
    "DEFAULT_DT",
    "DEFAULT_D",
    "HORIZON_SLACK",
    "horizon_steps",
    "CAUTIOUS_MARGIN",
    "env_at",
    "environment",
    "expand",
    "equivalence_mutations",
    "collision_window",
    "default_goal",
    "test_case_to_dict",
    "test_case_from_dict",
    "static_from_dict",
    "scenario_to_dict",
    "scenario_to_csv",
    "scenario_to_json",
]

DEFAULT_DT = 0.1  # s
DEFAULT_D = 5.0  # m, critical-zone half-length
CAUTIOUS_MARGIN = 0.5  # m, stop at least this far before the zone
HORIZON_SLACK = 10.0  # s of slack after the arriving vehicle clears the zone, by default
_STEP_LIMIT = 2**63  # a run's step count is below this: numpy's int64 holds it


class HorizonError(ValueError):
    """Raised when a test case horizon is too short for its geometry, or a
    run's step count is too large for int64."""


class WindowUndefinedError(ValueError):
    """Raised when the collision window is queried with a zero speed."""


class ScenarioType(str, enum.Enum):
    MERGE_YIELD = "merge_yield"
    LANE_CHANGE = "lane_change"
    INTERSECTION_YIELD = "intersection_yield"
    INTERSECTION_LIGHT = "intersection_light"


class Light(str, enum.Enum):
    GREEN = "green"
    RED = "red"


class Property(str, enum.Enum):
    NO_COLLISION_ARRIVING = "no_collision_arriving"
    NO_COLLISION_FRONT = "no_collision_front"
    NO_RED_LIGHT_ENTRY = "no_red_light_entry"


@dataclass(frozen=True)
class StaticPart:
    """Road-layout part shared by a family of test cases."""

    scenario_type: ScenarioType
    vl: float  # m/s, speed limit on the arriving vehicle's road
    d: float = DEFAULT_D  # m, critical zone is [-d, +d] around the conflict point
    light_schedule: Optional[tuple[float, float]] = None  # (green s, red s), light scenarios

    def __post_init__(self) -> None:
        if not 0 < self.d < math.inf:
            raise ValueError(f"zone half-length d must be positive and finite: {self.d}")
        if not 0 < self.vl < math.inf:
            raise ValueError(f"speed limit vl must be positive and finite: {self.vl}")
        sched = self.light_schedule
        if sched is not None:
            if len(sched) != 2:
                raise ValueError(f"light_schedule must be two phases, (green s, red s): {sched}")
            if not all(0 < phase < math.inf for phase in sched):
                raise ValueError(f"light_schedule phases must be positive and finite: {sched}")

    def light_at(self, t: float) -> Optional[Light]:
        if self.scenario_type is not ScenarioType.INTERSECTION_LIGHT:
            return None
        if self.light_schedule is None:
            return Light.GREEN  # default schedule: effectively always green
        g, r = self.light_schedule
        return Light.GREEN if (t % (g + r)) < g else Light.RED


@dataclass(frozen=True, slots=True)
class EgoState:
    x: float  # m, signed route distance to the conflict point (< 0 before it)
    v: float  # m/s

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("ego speed must be non-negative")


@dataclass(frozen=True, slots=True)
class VehicleState:
    x: float  # m, distance to the conflict point (arriving) or beyond it (front)
    v: float  # m/s


@dataclass(frozen=True, slots=True)
class ExtraVehicle:
    kind: str  # "arriving" (moves at vl toward the point) | "static" (parked past it)
    x: float  # m, distance in the same convention as its kind

    def __post_init__(self) -> None:
        if self.kind not in ("arriving", "static"):
            raise ValueError(f"extra vehicle kind must be 'arriving' or 'static': {self.kind!r}")


@dataclass(frozen=True, slots=True)
class EnvState:
    arriving: VehicleState
    front: VehicleState
    extra_vehicles: tuple[ExtraVehicle, ...] = ()
    light: Optional[Light] = None


@dataclass(frozen=True, slots=True)
class Scene:
    t: float  # s
    ego: EgoState
    env: EnvState


@dataclass(frozen=True)
class TestCase:
    """Compact stimulus: initial ego state plus environment geometry.

    ``horizon`` is an explicit environment step count ``n`` (a run spans
    ``n + 1`` scenes), checked when the case runs, or ``None``: each run
    sizes it at its own step.  ``steps`` does both.
    """

    __test__ = False  # not a pytest class, despite the name

    static: StaticPart
    x_e: float  # m, ego initial distance before the conflict point (> 0)
    v_e: float  # m/s, ego initial speed
    x_a: float  # m, arriving vehicle initial distance to the point (> 0)
    x_f: float  # m, front vehicle distance beyond the point (> 0)
    horizon: Optional[int] = None
    mutations: tuple[ExtraVehicle, ...] = ()

    def __post_init__(self) -> None:
        for name in ("x_e", "v_e", "x_a", "x_f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)}")
        if self.x_e <= 0 or self.x_a <= 0 or self.x_f <= 0:
            raise ValueError("x_e, x_a and x_f must all be positive")
        for m in self.mutations:
            if not 0 < m.x < math.inf:
                raise ValueError(f"mutation x must be positive and finite: {m.x}")
        if self.v_e < 0:
            raise ValueError("v_e must be non-negative")
        # A boolean is an integer to Python, but not a step count.
        n = self.horizon
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer))):
            raise ValueError(f"test case horizon must be a step count: {n!r}")

    def steps(self, dt: float) -> int:
        """The step count of a run at step ``dt``: the explicit horizon, which
        raises ``HorizonError`` unless the arriving vehicle clears the zone
        in it, or else one sized with ``HORIZON_SLACK`` s to spare.  Either
        raises ``HorizonError`` for 2**63 steps or more, past int64."""
        if self.horizon is None:
            return int(horizon_steps(self.static, self.x_a, dt, HORIZON_SLACK))
        needed = int(horizon_steps(self.static, self.x_a, dt))
        if self.horizon < needed:
            raise HorizonError(
                f"horizon {self.horizon} too short at dt={dt}; minimum n is {needed}"
            )
        if self.horizon >= _STEP_LIMIT:
            raise HorizonError(f"horizon {self.horizon} is past an int64 step count")
        return self.horizon

    def initial_ego(self) -> EgoState:
        return EgoState(x=-self.x_e, v=self.v_e)


def default_goal(static: StaticPart) -> frozenset[Property]:
    """The properties a run over ``static`` is graded on."""
    props = {Property.NO_COLLISION_ARRIVING, Property.NO_COLLISION_FRONT}
    if static.scenario_type is ScenarioType.INTERSECTION_LIGHT:
        props.add(Property.NO_RED_LIGHT_ENTRY)
    return frozenset(props)


def horizon_steps(static: StaticPart, x_a, dt: float, slack: float = 0.0):
    """Smallest step count (an int64, or an array of them for an array of
    ``x_a``) letting the arriving vehicle traverse the zone, plus ``slack`` s.

    Raises ``HorizonError`` for a count of 2**63 or more, past int64: cast, it
    would wrap to a negative horizon that a run never reaches.
    """
    n = np.ceil(((x_a + 2.0 * static.d) / static.vl + slack) / dt)
    if not np.all(n < _STEP_LIMIT):
        raise HorizonError(f"a run of {np.max(n):.3g} steps at dt={dt} is past an int64 step count")
    return n.astype(np.int64)


# -- environment expansion ----------------------------------------------------


def env_at(tc: TestCase, t: float) -> EnvState:
    """Environment state at time ``t``; independent of any ego behaviour."""
    return environment(tc)(t)


def environment(tc: TestCase) -> Callable[[float], EnvState]:
    """``env_at(tc, t)`` as a function of ``t``, for the states of one run:
    what never moves, the front vehicle and any parked extra vehicle, is
    built once and shared by every state."""
    vl, x_a, mutations, light_at = tc.static.vl, tc.x_a, tc.mutations, tc.static.light_at
    front = VehicleState(x=tc.x_f, v=0.0)

    def env(t: float) -> EnvState:
        extras = tuple(
            ExtraVehicle(kind=m.kind, x=m.x - vl * t) if m.kind == "arriving" else m
            for m in mutations
        ) if mutations else ()
        return EnvState(VehicleState(x_a - vl * t, vl), front, extras, light_at(t))

    return env


def expand(tc: TestCase, dt: float = DEFAULT_DT) -> list[EnvState]:
    """Expand a compact test case into its environment sequence
    (``tc.steps(dt) + 1`` states)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite: {dt}")
    env = environment(tc)
    return [env(i * dt) for i in range(tc.steps(dt) + 1)]


def equivalence_mutations(tc: TestCase, headway: float) -> list[TestCase]:
    """Mutants that add vehicles which cannot affect a sane policy.

    Three mutants: an extra arriving vehicle ``headway`` metres behind the
    arriving one, an extra parked vehicle ``headway`` metres beyond the front
    one, and both together.
    """
    if headway <= 0:
        raise ValueError("headway must be positive")
    behind = ExtraVehicle(kind="arriving", x=tc.x_a + headway)
    beyond = ExtraVehicle(kind="static", x=tc.x_f + headway)
    return [
        replace(tc, mutations=tc.mutations + (behind,)),
        replace(tc, mutations=tc.mutations + (beyond,)),
        replace(tc, mutations=tc.mutations + (behind, beyond)),
    ]


# -- collision window -----------------------------------------------------------


def collision_window(x_e: float, v_e: float, x_a: float, v_a: float, d: float) -> bool:
    """Whether two constant-speed vehicles can co-occupy the critical zone.

    True iff the zone-presence time intervals overlap:
    ``|x_e/v_e - x_a/v_a| <= d/v_e + d/v_a``.  This bounds where a collision is
    possible at all; the closed-loop simulator decides whether one happens.
    """
    if x_e <= 0 or x_a <= 0 or d <= 0:
        raise ValueError("distances and zone size must be positive")
    if v_e <= 0 or v_a <= 0:
        raise WindowUndefinedError("collision window undefined for zero speed")
    margin = d / v_e + d / v_a
    return abs(x_e / v_e - x_a / v_a) <= margin * (1.0 + 1e-12) + 1e-12


# -- serialization --------------------------------------------------------------


def _static_to_dict(static: StaticPart) -> dict:
    return {
        "scenario_type": static.scenario_type.value,
        "vl": static.vl,
        "d": static.d,
        "light_schedule": list(static.light_schedule) if static.light_schedule else None,
    }


def static_from_dict(data: dict) -> StaticPart:
    sched = data.get("light_schedule")
    return StaticPart(
        scenario_type=ScenarioType(data["scenario_type"]),
        vl=data["vl"],
        d=data["d"],
        light_schedule=tuple(sched) if sched else None,
    )


def test_case_to_dict(tc: TestCase) -> dict:
    return {
        "static": _static_to_dict(tc.static),
        "x_e": tc.x_e,
        "v_e": tc.v_e,
        "x_a": tc.x_a,
        "x_f": tc.x_f,
        "horizon": tc.horizon,
        "mutations": [{"kind": m.kind, "x": m.x} for m in tc.mutations],
    }


def test_case_from_dict(data: dict) -> TestCase:
    """Inverse of ``test_case_to_dict``.

    Data of any other shape raises a ``ValueError`` that names the problem.
    """
    if not (isinstance(data, dict) and isinstance(data.get("static"), dict)):
        raise ValueError('a test case must be a JSON object with a "static" object')
    static = data["static"]
    mutations = data.get("mutations", [])
    if not isinstance(mutations, list) or not all(isinstance(m, dict) and {"kind", "x"} <= m.keys()
                                                  for m in mutations):
        raise ValueError('test case mutations must be a list of objects with "kind" and "x": '
                         + json.dumps(mutations))
    try:
        numbers = {key: data[key] for key in ("x_e", "v_e", "x_a", "x_f")}
        mutations = [(m["kind"], m["x"]) for m in mutations]
        for key, value in [*numbers.items(), ("vl", static["vl"]), ("d", static["d"]),
                           *(("light_schedule", t) for t in static.get("light_schedule") or ()),
                           *(("mutation x", x) for _, x in mutations)]:
            # Python would read a boolean as the number 0 or 1.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"test case {key} must be a number: {json.dumps(value)}")
        return TestCase(
            static=static_from_dict(static),
            **numbers,
            horizon=data.get("horizon"),
            mutations=tuple(ExtraVehicle(kind, x) for kind, x in mutations),
        )
    except KeyError as exc:
        raise ValueError(f"test case lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"invalid test case: {exc}") from exc


def scenario_to_dict(static: StaticPart, frames: list[Scene]) -> dict:
    return {
        "static": _static_to_dict(static),
        "frames": [
            {
                "t": round(f.t, 9),
                "ego": {"x": f.ego.x, "v": f.ego.v},
                "arriving": {"x": f.env.arriving.x, "v": f.env.arriving.v},
                "front": {"x": f.env.front.x, "v": f.env.front.v},
                "extra": [{"kind": e.kind, "x": e.x} for e in f.env.extra_vehicles],
                "light": f.env.light.value if f.env.light else None,
            }
            for f in frames
        ],
    }


def scenario_to_csv(frames: list[Scene]) -> str:
    """Per-frame CSV ``t,x_e,v_e,x_a,v_a,x_f,light`` for plotting."""
    lines = ["t,x_e,v_e,x_a,v_a,x_f,light"]
    for f in frames:
        light = f.env.light.value if f.env.light else ""
        lines.append(
            f"{f.t:.3f},{f.ego.x:.6f},{f.ego.v:.6f},{f.env.arriving.x:.6f},"
            f"{f.env.arriving.v:.6f},{f.env.front.x:.6f},{light}"
        )
    return "\n".join(lines) + "\n"


def scenario_to_json(static: StaticPart, frames: list[Scene]) -> str:
    return json.dumps(scenario_to_dict(static, frames), indent=2)
