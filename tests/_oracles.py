"""Brute-force reference oracles, independent of the library's closed forms.

Everything here integrates trajectories step by step (forward Euler unless
noted) or enumerates frames exhaustively; the library is never called, so
these can sit on the other side of an equality check.  Three exceptions:
``scalar_step`` is the built-in pilots' policy written on plain numbers, read
from the scenes of a run, with the profile's capability functions and
``kinematics.advance``, for the array policy (``step_arrays``, and a built-in
pilot's ``start_case`` on one cell) to equal bit for bit, and ``OraclePilot``
drives it through ``simulate``'s loop; ``progress_determinacy_scalar`` calls
only ``simulate`` with that pilot and ``verdict``, one test case at a time,
for the batched check to equal; and ``braking_determinacy_scalar`` brakes
with ``kinematics.advance``, one run at a time.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from critlab.autopilots import AutopilotSpec
from critlab.classify import CheckAbortedError, DeterminacyReport, RestartRecord
from critlab.kinematics import ADProfile, advance
from critlab.scenario import (
    CAUTIOUS_MARGIN,
    DEFAULT_DT,
    EgoState,
    Scene,
    StaticPart,
    TestCase,
    environment,
)
from critlab.simulator import SimConfig, VerdictKind, simulate, verdict

_EPS = 1e-9


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
    """Hold speed until the stop target requires braking, then brake fully.

    Braking comes in whole steps of ``brake_rate * dt``, so it can leave a
    residual speed below one step's worth.  That speed is braked off at once:
    held, it would creep toward the target a fraction of a millimetre a step,
    and the ego would still be rolling, short of the zone, at the horizon.
    """
    if v <= _EPS:
        return 0.0
    avail = target - p
    if avail <= 0.0 or v <= brake_rate * dt:
        return -brake_rate
    if v * v / (2.0 * brake_rate) + v * dt >= avail:
        return -brake_rate
    return 0.0


def scalar_step(
    spec: AutopilotSpec,
    scene: Scene,
    static: StaticPart,
    start: Optional[Scene] = None,
    dt: float = DEFAULT_DT,
) -> float:
    """The acceleration for the next ``dt`` seconds of a run that started
    from ``start`` (by default the scene itself)."""
    start = scene if start is None else start
    profile = spec.profile
    p, v = scene.ego.x, scene.ego.v
    d = static.d
    arr_x = _nearest_arriving(scene)
    front_x = _nearest_front(scene)

    if spec.variant == "constant_speed":
        return 0.0

    accel_rate = spec.accel_rate_for(start.ego.v)
    brake_rate = spec.brake_rate_for(start.ego.v)

    if spec.variant == "irrational":
        (a_lo, a_hi), (f_lo, f_hi) = spec.fail_region
        if a_lo <= _nearest_arriving(start) <= a_hi and f_lo <= _nearest_front(start) <= f_hi:
            # Goes cautious far too late: aims the stop inside the zone.
            return _cautious_accel(v, p, -d / 2.0, brake_rate, dt)

    if p > -d:
        # Inside or past the zone: committed, only the front condition matters.
        return _progress_accel(profile, p, v, front_x, accel_rate, brake_rate, dt)

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
        return _progress_accel(profile, p, v, front_x, accel_rate, brake_rate, dt)
    return _cautious_accel(v, p, -(d + CAUTIOUS_MARGIN), brake_rate, dt)


class OraclePilot:
    """The built-in pilot ``spec`` as a Python-object pilot: ``simulate``
    runs it through its own loop, each step a ``scalar_step``."""

    def __init__(self, spec):
        self.spec, self.profile = spec, spec.profile

    def start_case(self, tc, dt):
        """The decision function of case ``tc``: ``scalar_step`` of the
        scene of each state, as ``environment(tc)`` gives it, from the
        run's start."""
        spec, static, env = self.spec, tc.static, environment(tc)
        start = Scene(t=0.0, ego=tc.initial_ego(), env=env(0.0))

        def decide(t, x, v):
            return scalar_step(spec, Scene(t=t, ego=EgoState(x, v), env=env(t)), static, start, dt)

        return decide


def euler_braking_distance(v, b, dt=0.001):
    """Forward-Euler stopping distance from speed(s) ``v`` at braking rate ``b``."""
    v = np.atleast_1d(np.asarray(v, dtype=float)).copy()
    x = np.zeros_like(v)
    while np.any(v > 0.0):
        x += v * dt
        v = np.maximum(v - b * dt, 0.0)
    return x if x.size > 1 else float(x[0])


def euler_braking_speed(v, x_target, b, dt=0.001):
    """Speed left after braking over ``x_target`` metres, forward Euler."""
    v = np.atleast_1d(np.asarray(v, dtype=float)).copy()
    x_target = np.atleast_1d(np.asarray(x_target, dtype=float))
    x = np.zeros_like(v)
    active = np.ones_like(v, dtype=bool)
    while np.any(active):
        x = np.where(active, x + v * dt, x)
        v = np.where(active, np.maximum(v - b * dt, 0.0), v)
        active = active & (x < x_target) & (v > 0.0)
    return v if v.size > 1 else float(v[0])


def euler_accel_run(v0, x_target, a, v_max, dt=0.001):
    """(time, speed) after covering ``x_target`` at full throttle, forward Euler."""
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    x_target = np.atleast_1d(np.asarray(x_target, dtype=float))
    v = v0.copy()
    x = np.zeros_like(v)
    t = np.zeros_like(v)
    active = x < x_target
    while np.any(active):
        x = np.where(active, x + v * dt, x)
        v = np.where(active, np.minimum(v + a * dt, v_max), v)
        t = np.where(active, t + dt, t)
        active = active & (x < x_target)
    if v.size > 1:
        return t, v
    return float(t[0]), float(v[0])


def zone_overlap_constant_speed(x_e, v_e, x_a, v_a, d, dt=0.01):
    """True iff two constant-speed vehicles are ever inside the zone at the
    same frame (pure co-occupancy, no crossing-order reasoning)."""
    t_end = max(x_e / v_e, x_a / v_a) + d / v_e + d / v_a + 2 * dt
    t = np.arange(0.0, t_end, dt)
    ego = -x_e + v_e * t
    arr = x_a - v_a * t
    return bool(np.any((np.abs(ego) <= d) & (np.abs(arr) <= d)))


def brake_trace_stop(v0, rate, dt=0.1):
    """Stopping distance of the discrete trapezoidal braking rule."""
    x, v = 0.0, v0
    while v > 0.0:
        v1 = max(v - rate * dt, 0.0)
        x += 0.5 * (v + v1) * dt
        v = v1
    return x


def braking_determinacy_scalar(pilot, v0, restart_every=5, dt=0.1):
    """The braking determinacy check of ``pilot`` from ``v0``, its baseline
    and each restart braked on its own, one ``advance`` at a time."""

    def brake(v0):
        states, x, v = [(0.0, v0)], 0.0, v0
        while v > 0.0:
            x, v = advance(x, v, -pilot.brake_rate_for(v0), dt, pilot.profile.v_max)
            states.append((x, v))
        return states

    base = brake(v0)
    stop = base[-1][0]
    restarts = [RestartRecord(t=i * dt, x=x, v=v, deviation=abs(x + brake(v)[-1][0] - stop))
                for i, (x, v) in enumerate(base) if i % restart_every == 0 and v > 0.0]
    return DeterminacyReport(maneuver="braking", restarts=restarts, tol=v0 * dt + 0.25,
                             max_deviation=max((r.deviation for r in restarts), default=0.0))


def speed_at_conflict(frames):
    """The ego's speed where its trace first reaches the conflict point,
    interpolated linearly between the two frames around it; the later frame's
    speed if the position did not advance; None if the trace never gets
    there."""
    prev = None
    for frame in frames:
        if frame.ego.x >= 0.0 and prev is not None:
            span = frame.ego.x - prev.ego.x
            if span <= 0.0:
                return frame.ego.v
            w = (0.0 - prev.ego.x) / span
            return prev.ego.v + w * (frame.ego.v - prev.ego.v)
        prev = frame
    return None


def scene_line(scene, static, dt) -> bytes:
    """One scene of the external-autopilot protocol as it goes down the pipe:
    the payload as a dict, through ``json.dumps``."""
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
    return (json.dumps(payload) + "\n").encode()


def reply_decision(raw: bytes):
    """A reply line of the external-autopilot protocol read by ``json.loads``:
    ``(mode, accel)``, or None for a line that breaks the protocol: one that
    is not a JSON object, or whose ``mode`` is neither ``"progress"`` nor
    ``"cautious"``, or whose ``accel`` is not a number with a finite float
    value."""
    try:
        reply = json.loads(raw.decode("utf-8", "replace"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(reply, dict) or reply.get("mode") not in ("progress", "cautious"):
        return None
    accel = reply.get("accel")
    if isinstance(accel, bool) or not isinstance(accel, (int, float)):
        return None
    try:
        accel = float(accel)
    except OverflowError:  # an int past the largest float
        return None
    return (reply["mode"], accel) if math.isfinite(accel) else None


def dominating_passes_scan(verdicts):
    """For each failed cell of a grid's ``verdicts``, a dict from ``(x_a,
    x_f)`` to the cell's ``Verdict``, the first progress pass, in the dict's
    order, at coordinatewise smaller-or-equal ``(x_a, x_f)``: the
    O(fails x passes) scan."""
    passes = [key for key, vd in verdicts.items() if vd.kind.value == "progress_pass"]
    out = {}
    for key, vd in verdicts.items():
        if vd.kind.value != "fail":
            continue
        for p in passes:
            if p[0] <= key[0] and p[1] <= key[1] and p != key:
                out[key] = p
                break
    return out


def by_point(x_a_values, x_f_values, codes, names):
    """A grid's code array (one code per cell, ``x_a``-major) as the dict
    from ``(x_a, x_f)`` to the name each code indexes in ``names``."""
    cells = [(x_a, x_f) for x_a in x_a_values for x_f in x_f_values]
    return {cell: names[code] for cell, code in zip(cells, np.ravel(codes).tolist(), strict=True)}


def progress_determinacy_scalar(autopilot, tc, restart_every=5, cfg=SimConfig()):
    """The progress determinacy check of one autopilot from case ``tc``, its
    baseline and each restart its own ``simulate`` run (of the
    ``OraclePilot`` of a built-in pilot), the first restart one period into
    the baseline's trace: the report, or the ``CheckAbortedError`` raised
    for a baseline that is not a progress pass."""
    autopilot = OraclePilot(autopilot) if isinstance(autopilot, AutopilotSpec) else autopilot
    base = simulate(autopilot, tc, cfg)
    base_verdict = verdict(base)
    if base_verdict.kind is not VerdictKind.PROGRESS_PASS:
        raise CheckAbortedError(
            f"baseline run did not cross and pass (verdict {base_verdict.kind.value})"
        )
    restarts = []
    flips = 0
    vl = tc.static.vl
    frames = base.frames
    for i in range(restart_every, len(frames), restart_every):
        frame = frames[i]
        if frame.ego.x >= 0.0:
            break  # restarts past the conflict point have an empty approach
        x_a_i = tc.x_a - vl * frame.t
        if x_a_i <= 0.0:
            continue  # arriving vehicle already past: the race is decided
        x_e_i = -frame.ego.x
        tci = TestCase(static=tc.static, x_e=x_e_i, v_e=frame.ego.v, x_a=x_a_i, x_f=tc.x_f)
        out = simulate(autopilot, tci, cfg)
        passed = verdict(out).kind is VerdictKind.PROGRESS_PASS
        if not passed:
            flips += 1
            deviation = math.inf
        else:  # a progress pass has crossed, so its crossing speed is known
            deviation = abs(out.v_cross - base.v_cross)
        restarts.append(
            RestartRecord(t=frame.t, x=frame.ego.x, v=frame.ego.v, deviation=deviation,
                          passed=passed)
        )
    max_dev = max((r.deviation for r in restarts if r.passed), default=0.0)
    return DeterminacyReport(maneuver="progress", restarts=restarts, tol=0.2, max_deviation=max_dev,
                             verdict_flips=flips)
