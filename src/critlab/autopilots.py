"""Pluggable longitudinal autopilots and fault-injected variants.

An autopilot is a per-step transition: given the current scene it emits an
acceleration command for the next step, threading an opaque memory dict
through the run.  The reference policy is memoryless, so replaying it from any
intermediate state of its own trace reproduces the rest of the trace; each
fault variant perturbs exactly one declared aspect of that behaviour.

Reference decision, evaluated fresh each step while still before the zone:
commit to crossing iff full throttle reaches the conflict point no later than
the arriving vehicle and the crossing speed can be braked off before the front
vehicle; otherwise hold speed and brake to stop short of the zone.  Once
inside the zone only the front-vehicle braking condition is re-evaluated
(stopping inside the zone is never an option).
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .kinematics import ADProfile, advance, advance_arrays
from .scenario import (
    CAUTIOUS_MARGIN,
    DEFAULT_DT,
    EgoState,
    Scene,
    StaticPart,
    TestCase,
    env_at,
)

__all__ = [
    "Decision",
    "AutopilotSpec",
    "ProtocolError",
    "ExternalAutopilot",
    "reference",
    "transition_flawed",
    "irrational",
    "overcautious",
    "non_determinate_brake",
    "non_determinate_accel",
    "always_cautious",
    "constant_speed",
    "FACTORIES",
    "step",
    "step_arrays",
    "run_policy",
    "non_monotone_brake_profile",
]

_EPS = 1e-9

RateMap = Union[Mapping[float, float], Sequence[tuple[float, float]]]  # v0 -> rate


class ProtocolError(RuntimeError):
    """Raised when an external autopilot violates the stdio protocol."""


@dataclass(frozen=True)
class Decision:
    mode: str  # "progress" | "cautious"
    accel: float  # m/s^2 commanded for the next step


@dataclass(frozen=True)
class AutopilotSpec:
    """A named autopilot variant bound to a capability profile."""

    name: str
    profile: ADProfile
    variant: str = "reference"
    optimism: float = 1.0  # > 1 inflates the believed time budget (transition_flawed)
    margin_inflation: float = 1.0  # > 1 inflates required margins (overcautious)
    fail_region: Optional[tuple[tuple[float, float], tuple[float, float]]] = None
    rate_by_initial_speed: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.variant not in FACTORIES:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "transition_flawed" and self.optimism <= 1.0:
            raise ValueError("transition_flawed needs optimism > 1")
        if self.variant == "overcautious" and self.margin_inflation <= 1.0:
            raise ValueError("overcautious needs margin_inflation > 1")
        if self.variant == "irrational" and self.fail_region is None:
            raise ValueError("irrational needs a fail_region rectangle")
        if self.variant.startswith("non_determinate") and not self.rate_by_initial_speed:
            raise ValueError(f"{self.variant} needs a rate_by_initial_speed map")
        limit = max(self.profile.a_max, self.profile.b_max) + _EPS
        for v0, rate in self.rate_by_initial_speed:
            if rate <= 0 or rate > limit:
                raise ValueError(f"maneuver rate {rate} for v0={v0} outside (0, {limit}]")

    def rate_for(self, v0: float, default: float) -> float:
        """Maneuver rate keyed on the speed observed when the run started."""
        if not self.rate_by_initial_speed:
            return default
        key, rate = min(self.rate_by_initial_speed, key=lambda kv: abs(kv[0] - v0))
        return rate

    def brake_rate_for(self, v0: float) -> float:
        if self.variant == "non_determinate_brake":
            return self.rate_for(v0, self.profile.b_max)
        return self.profile.b_max

    def accel_rate_for(self, v0: float) -> float:
        if self.variant == "non_determinate_accel":
            return self.rate_for(v0, self.profile.a_max)
        return self.profile.a_max

    def step(
        self,
        scene: Scene,
        static: StaticPart,
        memory: Optional[dict] = None,
        dt: float = DEFAULT_DT,
    ) -> tuple["Decision", dict]:
        return step(self, scene, static, memory, dt)


def reference(profile: ADProfile, name: str = "reference") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="reference")


def transition_flawed(
    profile: ADProfile, optimism: float = 1.3, name: str = "transition_flawed"
) -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="transition_flawed", optimism=optimism)


def irrational(
    profile: ADProfile,
    fail_region: Sequence[Sequence[float]] = ((29.0, 35.0), (16.0, 24.0)),
    name: str = "irrational",
) -> AutopilotSpec:
    """``fail_region`` is ``((x_a lo, x_a hi), (x_f lo, x_f hi))``; lists do too."""
    (a_lo, a_hi), (f_lo, f_hi) = fail_region
    region = ((float(a_lo), float(a_hi)), (float(f_lo), float(f_hi)))
    return AutopilotSpec(name=name, profile=profile, variant="irrational", fail_region=region)


def overcautious(
    profile: ADProfile, margin_inflation: float = 1.15, name: str = "overcautious"
) -> AutopilotSpec:
    return AutopilotSpec(
        name=name, profile=profile, variant="overcautious", margin_inflation=margin_inflation
    )


def _rate_table(rates: RateMap) -> tuple[tuple[float, float], ...]:
    """Sorted ``(v0, rate)`` pairs from a mapping (JSON: string keys) or pairs."""
    return tuple(sorted((float(v0), float(rate)) for v0, rate in dict(rates).items()))


def non_determinate_brake(
    profile: ADProfile,
    rates: RateMap = ((5.0, 5.0), (27.5, 3.0), (30.0, 5.0)),
    name: str = "non_determinate_brake",
) -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="non_determinate_brake",
                         rate_by_initial_speed=_rate_table(rates))


def non_determinate_accel(
    profile: ADProfile,
    rates: RateMap = ((5.0, 2.0), (7.5, 1.0)),
    name: str = "non_determinate_accel",
) -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="non_determinate_accel",
                         rate_by_initial_speed=_rate_table(rates))


def always_cautious(profile: ADProfile, name: str = "always_cautious") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="always_cautious")


def constant_speed(profile: ADProfile, name: str = "constant_speed") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="constant_speed")


# The variant table.  A factory's parameters after ``profile`` are the keys a
# config entry of that variant may carry, and their defaults are the only ones.
FACTORIES = {f.__name__: f for f in (
    reference, transition_flawed, irrational, overcautious,
    non_determinate_brake, non_determinate_accel, always_cautious, constant_speed,
)}


# -- decision logic -------------------------------------------------------------


def _nearest_arriving(scene: Scene) -> float:
    xs = [scene.env.arriving.x]
    xs.extend(e.x for e in scene.env.extra_vehicles if e.kind == "arriving")
    return min(xs)


def _nearest_front(scene: Scene) -> float:
    xs = [scene.env.front.x]
    xs.extend(e.x for e in scene.env.extra_vehicles if e.kind == "static")
    return min(xs)


def _progress_accel(
    profile: ADProfile, p: float, v: float, budget: float, accel_rate: float,
    brake_rate: float, dt: float,
) -> float:
    """Full throttle while one more accelerated step still leaves braking room."""
    p1, v1 = advance(p, v, accel_rate, dt, profile.v_max)
    room = budget - max(p1, 0.0)
    if v1 * v1 / (2.0 * profile.b_max) <= room + _EPS:
        return accel_rate
    return -brake_rate


def _cautious_accel(v: float, p: float, target: float, brake_rate: float, dt: float) -> float:
    """Hold speed until the stop target requires braking, then brake fully."""
    if v <= _EPS:
        return 0.0
    avail = target - p
    if avail <= 0.0:
        return -brake_rate
    if v * v / (2.0 * brake_rate) + v * dt >= avail:
        return -brake_rate
    return 0.0


def step(
    spec: AutopilotSpec,
    scene: Scene,
    static: StaticPart,
    memory: Optional[dict] = None,
    dt: float = DEFAULT_DT,
) -> tuple[Decision, dict]:
    """One control decision for the next ``dt`` seconds."""
    memory = {} if memory is None else memory
    profile = spec.profile
    p, v = scene.ego.x, scene.ego.v
    d = static.d
    arr_x = _nearest_arriving(scene)
    front_x = _nearest_front(scene)

    if spec.variant == "constant_speed":
        return Decision(mode="progress", accel=0.0), memory

    if spec.variant in ("irrational", "non_determinate_brake", "non_determinate_accel"):
        if "v0" not in memory:
            memory["v0"] = v
            memory["x_a0"] = arr_x
            memory["x_f0"] = front_x
    accel_rate = spec.accel_rate_for(memory.get("v0", v))
    brake_rate = spec.brake_rate_for(memory.get("v0", v))

    if spec.variant == "irrational" and spec.fail_region is not None:
        (a_lo, a_hi), (f_lo, f_hi) = spec.fail_region
        if a_lo <= memory["x_a0"] <= a_hi and f_lo <= memory["x_f0"] <= f_hi:
            # Goes cautious far too late: aims the stop inside the zone.
            accel = _cautious_accel(v, p, -d / 2.0, brake_rate, dt)
            return Decision(mode="cautious", accel=accel), memory

    if p > -d:
        # Inside or past the zone: committed, only the front condition matters.
        accel = _progress_accel(profile, p, v, front_x, accel_rate, brake_rate, dt)
        return Decision(mode="progress", accel=accel), memory

    x_now = -p
    wants_progress = False
    if spec.variant not in ("always_cautious",):
        deadline = arr_x / static.vl
        ta = profile.accel_time(x_now, v)
        need_front = profile.braking_distance(profile.accel_speed(x_now, v))
        if spec.variant == "transition_flawed":
            deadline = deadline * spec.optimism
        if spec.variant == "overcautious":
            ta = ta * spec.margin_inflation
            need_front = need_front * spec.margin_inflation
        wants_progress = ta <= deadline + _EPS and need_front <= front_x + _EPS

    if wants_progress:
        accel = _progress_accel(profile, p, v, front_x, accel_rate, brake_rate, dt)
        return Decision(mode="progress", accel=accel), memory
    accel = _cautious_accel(v, p, -(d + CAUTIOUS_MARGIN), brake_rate, dt)
    return Decision(mode="cautious", accel=accel), memory


# -- decision logic over arrays of cells -------------------------------------------
#
# ``step_arrays`` decides for many cells of one ego start at once.  Each helper
# is its scalar counterpart with ``np.where`` for the branches, performing the
# same floating-point operations in the same order, so every entry equals what
# ``step`` returns for that cell bit for bit; the closed forms are those of a
# constant ``ADProfile`` on speeds already in ``[0, v_max]``.


def _accel_time_arrays(profile: ADProfile, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    to_cap = (profile.v_max * profile.v_max - v * v) / (2.0 * profile.a_max)
    ramp = (-v + np.sqrt(v * v + 2.0 * profile.a_max * x)) / profile.a_max
    capped = (profile.v_max - v) / profile.a_max + (x - to_cap) / profile.v_max
    return np.where(x <= to_cap, ramp, capped)


def _accel_speed_arrays(profile: ADProfile, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.minimum(profile.v_max, np.sqrt(v * v + 2.0 * profile.a_max * x))


def _progress_accel_arrays(
    profile: ADProfile, p: np.ndarray, v: np.ndarray, budget: np.ndarray, accel_rate: float,
    brake_rate: float, dt: float,
) -> np.ndarray:
    p1, v1 = advance_arrays(p, v, accel_rate, dt, profile.v_max)
    room = budget - np.maximum(p1, 0.0)
    return np.where(v1 * v1 / (2.0 * profile.b_max) <= room + _EPS, accel_rate, -brake_rate)


def _cautious_accel_arrays(
    v: np.ndarray, p: np.ndarray, target: float, brake_rate: float, dt: float
) -> np.ndarray:
    avail = target - p
    brake = (avail <= 0.0) | (v * v / (2.0 * brake_rate) + v * dt >= avail)
    return np.where(v <= _EPS, 0.0, np.where(brake, -brake_rate, 0.0))


def step_arrays(
    spec: AutopilotSpec,
    p: np.ndarray,
    v: np.ndarray,
    arr_x: np.ndarray,
    x_a0: np.ndarray,
    x_f: np.ndarray,
    v0: float,
    static: StaticPart,
    dt: float = DEFAULT_DT,
) -> np.ndarray:
    """``step`` for many cells at once: the commanded acceleration of each.

    Every cell is a run of ``spec`` (constant profile) without extra vehicles.
    ``p``, ``v`` (ego), ``arr_x`` (arriving vehicle now), ``x_a0`` (arriving
    vehicle at t = 0) and ``x_f`` hold one entry per cell, and ``v0`` is the
    ego speed at t = 0, which the cells share: ``x_a0``, ``x_f`` and ``v0``
    are what a run's memory holds after its first step.  Speeds must lie in
    ``[0, v_max]``.  Out-of-zone capability terms are computed for every cell
    and discarded where unused, so callers silence numpy's invalid-value
    warnings.
    """
    if spec.variant == "constant_speed":
        return np.zeros_like(p)
    profile = spec.profile
    d = static.d
    accel_rate = spec.accel_rate_for(v0)
    brake_rate = spec.brake_rate_for(v0)

    committed = p > -d
    if spec.variant != "always_cautious":
        x_now = -p
        deadline = arr_x / static.vl
        ta = _accel_time_arrays(profile, x_now, v)
        need_front = _accel_speed_arrays(profile, x_now, v)
        need_front = need_front * need_front / (2.0 * profile.b_max)  # braking_distance
        if spec.variant == "transition_flawed":
            deadline = deadline * spec.optimism
        if spec.variant == "overcautious":
            ta = ta * spec.margin_inflation
            need_front = need_front * spec.margin_inflation
        committed |= (ta <= deadline + _EPS) & (need_front <= x_f + _EPS)
    accel = np.where(
        committed,
        _progress_accel_arrays(profile, p, v, x_f, accel_rate, brake_rate, dt),
        _cautious_accel_arrays(v, p, -(d + CAUTIOUS_MARGIN), brake_rate, dt),
    )
    if spec.variant == "irrational" and spec.fail_region is not None:
        (a_lo, a_hi), (f_lo, f_hi) = spec.fail_region
        late = (a_lo <= x_a0) & (x_a0 <= a_hi) & (f_lo <= x_f) & (x_f <= f_hi)
        accel = np.where(late, _cautious_accel_arrays(v, p, -d / 2.0, brake_rate, dt), accel)
    return accel


def run_policy(spec: AutopilotSpec, tc: TestCase, dt: float = DEFAULT_DT) -> list[EgoState]:
    """Iterate the autopilot against the test case's environment; no oracle.

    Returns the full ego state sequence (``horizon + 1`` entries), integrated
    with ``advance`` as in the simulator.
    """
    tc.check_horizon(dt)
    states = [tc.initial_ego()]
    memory: dict = {}
    for i in range(tc.horizon):
        ego = states[-1]
        scene = Scene(t=i * dt, ego=ego, env=env_at(tc, i * dt))
        decision, memory = step(spec, scene, tc.static, memory, dt)
        x, v = advance(ego.x, ego.v, decision.accel, dt, spec.profile.v_max)
        states.append(EgoState(x=x, v=v))
    return states


# -- external autopilot bridge ----------------------------------------------------


class ExternalAutopilot:
    """Drives an external process over a line-delimited JSON stdio protocol.

    The harness writes one scene per line::

        {"t": ..., "dt": ..., "ego": {"x": ..., "v": ...},
         "arriving": {"x": ..., "v": ...}, "front": {"x": ..., "v": ...},
         "extra": [{"kind": ..., "x": ...}], "light": "green"|"red"|null,
         "static": {"scenario_type": ..., "d": ..., "vl": ...}}

    and reads one decision per line: ``{"mode": "progress"|"cautious",
    "accel": <float>}``.
    """

    def __init__(self, command: str, profile: ADProfile, name: Optional[str] = None):
        self.name = name or f"exec:{command}"
        self.profile = profile
        self._command = command
        self._proc: Optional[subprocess.Popen] = None

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                shlex.split(self._command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def step(
        self,
        scene: Scene,
        static: StaticPart,
        memory: Optional[dict] = None,
        dt: float = DEFAULT_DT,
    ) -> tuple[Decision, dict]:
        proc = self._ensure_started()
        payload = {
            "t": scene.t,
            "dt": dt,
            "ego": {"x": scene.ego.x, "v": scene.ego.v},
            "arriving": {"x": scene.env.arriving.x, "v": scene.env.arriving.v},
            "front": {"x": scene.env.front.x, "v": scene.env.front.v},
            "extra": [{"kind": e.kind, "x": e.x} for e in scene.env.extra_vehicles],
            "light": scene.env.light.value if scene.env.light else None,
            "static": {
                "scenario_type": static.scenario_type.value,
                "d": static.d,
                "vl": static.vl,
            },
        }
        try:
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write(json.dumps(payload) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"external autopilot pipe failed: {exc}") from exc
        if not line:
            raise ProtocolError("external autopilot closed its output")
        try:
            reply = json.loads(line)
            mode = reply["mode"]
            accel = float(reply["accel"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed decision line: {line!r}") from exc
        if mode not in ("progress", "cautious") or not math.isfinite(accel):
            raise ProtocolError(f"invalid decision: {line!r}")
        return Decision(mode=mode, accel=accel), (memory if memory is not None else {})

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()  # type: ignore[union-attr]
            self._proc.terminate()
            self._proc.wait(timeout=5)
        self._proc = None

    def __enter__(self) -> "ExternalAutopilot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- fault-injected capability table (for monotonicity audits) -------------------


def non_monotone_brake_profile() -> ADProfile:
    """Tabulated profile with one inverted stop-distance sample.

    Braking from 9 m/s needs more room than braking from 10 m/s, which breaks
    the ordering of the remaining-speed function.
    """
    table = [
        (5.0, 3.0, 0.0),  # stop distance 3 m from 5 m/s
        (8.0, 9.0, 5.0),  # 12 m from 8 m/s
        (10.0, 2.0, 8.0),  # 14 m from 10 m/s
        (9.0, 13.0, 5.0),  # 16 m from 9 m/s: inverted sample
        (0.0, 6.25, 5.0),
        (5.0, 18.75, 10.0),
    ]
    return ADProfile.tabulated(table, a_max=2.0, b_max=5.0, v_max=10.0)
