"""Longitudinal capability model of a vehicle.

Everything downstream reasons about a vehicle through four capability
functions, all in SI units (m, s, m/s, m/s^2):

* ``braking_distance(v)``        -- distance needed to brake from ``v`` to a stop
* ``braking_speed(v, x)``        -- speed left after braking over distance ``x``
* ``accel_time(x, v)``           -- time to cover ``x`` starting at speed ``v``, full throttle
* ``accel_speed(x, v)``          -- speed reached after covering ``x`` at full throttle

Two profile kinds are supported.  ``constant`` profiles use closed forms for
bang-bang acceleration with a speed cap.  ``tabulated`` profiles are built from
recorded traces and interpolate piecewise-linearly between samples; queries
beyond the sampled range are clamped (and counted by the monotonicity report).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ADProfile",
    "advance",
    "advance_arrays",
    "DomainError",
    "TraceError",
    "MonotonicityViolation",
    "MonotonicityReport",
    "estimate_profile",
    "check_monotonicity",
    "save_table",
    "load_table",
]

_TOL = 1e-9


class DomainError(ValueError):
    """Raised when a capability function is queried outside its domain."""


class TraceError(ValueError):
    """Raised when a recorded trace cannot be used to estimate a profile."""


def _interp(xs: Sequence[float], ys: Sequence[float], x: float) -> tuple[float, bool]:
    """Piecewise-linear interpolation over ``xs`` (ascending), clamped at the ends.

    Returns ``(value, clamped)``.
    """
    if x <= xs[0]:
        return ys[0], x < xs[0] - _TOL
    if x >= xs[-1]:
        return ys[-1], x > xs[-1] + _TOL
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    span = xs[hi] - xs[lo]
    if span <= 0.0:
        return ys[lo], False
    w = (x - xs[lo]) / span
    return ys[lo] + w * (ys[hi] - ys[lo]), False


@dataclass(frozen=True)
class ADProfile:
    """Acceleration/deceleration capability of one vehicle.

    ``table`` rows are ``(v, x, v_prime)`` segments: starting at speed ``v``
    the vehicle covers ``x`` metres and ends at speed ``v_prime``.  Rows with
    ``v_prime < v`` are braking segments, rows with ``v_prime > v`` are
    acceleration segments.  Only ``tabulated`` profiles carry a table.
    """

    a_max: float  # m/s^2, > 0
    b_max: float  # m/s^2, positive magnitude, > 0
    v_max: float  # m/s, > 0
    kind: str = "constant"  # "constant" | "tabulated"
    table: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if not all(0.0 < c < math.inf for c in (self.a_max, self.b_max, self.v_max)):
            raise DomainError("a_max, b_max and v_max must all be positive and finite")
        if self.kind not in ("constant", "tabulated"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "tabulated":
            if not self.table:
                raise DomainError("tabulated profile requires a non-empty table")
            for v, x, vp in self.table:
                if not (0.0 <= v <= self.v_max + _TOL and 0.0 <= vp <= self.v_max + _TOL):
                    raise DomainError(f"table speeds must lie in [0, v_max]: ({v}, {x}, {vp})")
                if x < 0.0:
                    raise DomainError("table distances must be non-negative")
            object.__setattr__(self, "table", tuple(sorted(self.table)))
        elif self.table:
            raise DomainError("constant profile must not carry a table")

    @classmethod
    def constant(cls, a_max: float, b_max: float, v_max: float) -> "ADProfile":
        return cls(a_max=a_max, b_max=b_max, v_max=v_max, kind="constant")

    @classmethod
    def tabulated(
        cls,
        table: Iterable[tuple[float, float, float]],
        a_max: float,
        b_max: float,
        v_max: float,
    ) -> "ADProfile":
        return cls(a_max=a_max, b_max=b_max, v_max=v_max, kind="tabulated", table=tuple(table))

    # -- derived curves for tabulated profiles ------------------------------

    @cached_property
    def _brake_curve(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Sampled stop-distance curve ``(speeds ascending, distance to stop)``."""
        rows = [(v, x, vp) for v, x, vp in self.table if vp < v]
        if not rows:
            raise TraceError("tabulated profile has no braking segments")
        dist: dict[float, float] = {0.0: 0.0}
        pending = list(rows)
        while pending:
            progressed = False
            rest = []
            for v, x, vp in pending:
                if vp in dist:
                    dist.setdefault(v, dist[vp] + x)
                    progressed = True
                else:
                    rest.append((v, x, vp))
            pending = rest
            if pending and not progressed:
                # Chain does not reach a stop: anchor its lowest end speed by
                # extrapolating the segment's own constant rate.
                v, x, vp = min(pending, key=lambda r: r[2])
                rate = (v * v - vp * vp) / (2.0 * x) if x > 0 else self.b_max
                dist[vp] = vp * vp / (2.0 * max(rate, _TOL))
        speeds = tuple(sorted(dist))
        return speeds, tuple(dist[v] for v in speeds)

    @cached_property
    def _accel_curve(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Sampled full-throttle curve ``(speeds, position, elapsed time)``."""
        rows = [(v, x, vp) for v, x, vp in self.table if vp > v]
        if not rows:
            raise TraceError("tabulated profile has no acceleration segments")
        v0 = min(v for v, _, _ in rows)
        pos: dict[float, float] = {v0: 0.0}
        tim: dict[float, float] = {v0: 0.0}
        pending = list(rows)
        while pending:
            progressed = False
            rest = []
            for v, x, vp in pending:
                if v in pos:
                    if vp not in pos:
                        pos[vp] = pos[v] + x
                        tim[vp] = tim[v] + (2.0 * x / (v + vp) if v + vp > 0 else 0.0)
                    progressed = True
                else:
                    rest.append((v, x, vp))
            pending = rest
            if pending and not progressed:
                raise TraceError("acceleration samples do not form a connected curve")
        speeds = tuple(sorted(pos))
        return speeds, tuple(pos[v] for v in speeds), tuple(tim[v] for v in speeds)

    def _check_speed(self, v: float) -> float:
        if not math.isfinite(v) or v < -_TOL or v > self.v_max * (1.0 + 1e-9) + _TOL:
            raise DomainError(f"speed {v} outside [0, {self.v_max}]")
        return min(max(v, 0.0), self.v_max)

    def _check_distance(self, x: float) -> float:
        if not math.isfinite(x) or x < -_TOL:
            raise DomainError(f"distance {x} must be non-negative")
        return max(x, 0.0)

    # -- capability functions ------------------------------------------------

    def braking_distance(self, v: float) -> float:
        """Distance needed to brake from speed ``v`` to a full stop."""
        v = self._check_speed(v)
        if self.kind == "constant":
            return v * v / (2.0 * self.b_max)
        speeds, dists = self._brake_curve
        value, _ = _interp(speeds, dists, v)
        return max(value, 0.0)

    def braking_speed(self, v: float, x: float) -> float:
        """Speed remaining after braking from ``v`` over distance ``x``."""
        v = self._check_speed(v)
        x = self._check_distance(x)
        if self.kind == "constant":
            return math.sqrt(max(0.0, v * v - 2.0 * self.b_max * x))
        speeds, dists = self._brake_curve
        start, _ = _interp(speeds, dists, v)
        target = start - x
        if target <= 0.0:
            return 0.0
        # First speed (scanning upward) whose remaining stop distance reaches
        # the target; exact inverse when the curve is monotone.
        for i in range(1, len(speeds)):
            if dists[i] >= target:
                lo_d, hi_d = dists[i - 1], dists[i]
                if hi_d == lo_d:
                    return speeds[i]
                w = (target - lo_d) / (hi_d - lo_d)
                return speeds[i - 1] + w * (speeds[i] - speeds[i - 1])
        return min(v, speeds[-1])

    def accel_time(self, x: float, v: float) -> float:
        """Time to travel ``x`` at full throttle starting from speed ``v``."""
        x = self._check_distance(x)
        v = self._check_speed(v)
        if x == 0.0:
            return 0.0
        if self.kind == "constant":
            to_cap = (self.v_max * self.v_max - v * v) / (2.0 * self.a_max)
            if x <= to_cap:
                return (-v + math.sqrt(v * v + 2.0 * self.a_max * x)) / self.a_max
            return (self.v_max - v) / self.a_max + (x - to_cap) / self.v_max
        speeds, poss, times = self._accel_curve
        cap = min(speeds[-1], self.v_max)
        p0, _ = _interp(speeds, poss, v)
        t0, _ = _interp(speeds, times, v)
        p_cap, _ = _interp(speeds, poss, cap)
        t_cap, _ = _interp(speeds, times, cap)
        if p0 + x >= p_cap:
            return (t_cap - t0) + (p0 + x - p_cap) / cap
        v_end = self.accel_speed(x, v)
        t_end, _ = _interp(speeds, times, v_end)
        return max(t_end - t0, 0.0)

    def accel_speed(self, x: float, v: float) -> float:
        """Speed reached after travelling ``x`` at full throttle from speed ``v``."""
        x = self._check_distance(x)
        v = self._check_speed(v)
        if self.kind == "constant":
            return min(self.v_max, math.sqrt(v * v + 2.0 * self.a_max * x))
        speeds, poss, _ = self._accel_curve
        cap = min(speeds[-1], self.v_max)
        p0, _ = _interp(speeds, poss, v)
        target = p0 + x
        if target >= poss[-1]:
            return cap
        for i in range(1, len(speeds)):
            if poss[i] >= target:
                lo_p, hi_p = poss[i - 1], poss[i]
                if hi_p == lo_p:
                    return min(speeds[i], cap)
                w = (target - lo_p) / (hi_p - lo_p)
                return min(speeds[i - 1] + w * (speeds[i] - speeds[i - 1]), cap)
        return cap


# -- integration ---------------------------------------------------------------


def advance(x: float, v: float, a: float, dt: float, v_max: float) -> tuple[float, float]:
    """One step of the ego integrator: ``(x, v)`` after ``dt`` at command ``a``.

    Semi-implicit with a trapezoidal position update:
    ``v' = clamp(v + a*dt, 0, v_max)`` then ``x' = x + (v + v')/2 * dt``; the
    trapezoid removes forward Euler's first-order position bias, so closed-form
    boundary predictions hold to within one step at dt = 0.1 s.
    """
    v1 = min(max(v + a * dt, 0.0), v_max)
    return x + 0.5 * (v + v1) * dt, v1


def advance_arrays(
    x: np.ndarray, v: np.ndarray, a, dt: float, v_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """``advance`` for arrays of states: the same operations in the same order,
    so every entry equals the scalar step bit for bit."""
    v1 = np.minimum(np.maximum(v + a * dt, 0.0), v_max)
    return x + 0.5 * (v + v1) * dt, v1


# -- profile estimation from recorded traces ---------------------------------


def _segments(trace: Sequence[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    segs = []
    for (t0, p0, v0), (t1, p1, v1) in zip(trace, trace[1:]):
        if t1 <= t0:
            raise TraceError("trace timestamps must be strictly increasing")
        segs.append((v0, abs(p1 - p0), v1))
    return segs


def estimate_profile(traces: Sequence[Sequence[tuple[float, float, float]]]) -> ADProfile:
    """Build a tabulated profile from recorded ``(time, position, speed)`` traces.

    Traces with monotonically non-increasing speed are taken as braking
    recordings, monotonically non-decreasing ones as acceleration recordings.
    At least one of each is required; a trace whose speed direction reverses
    is rejected.
    """
    if not traces:
        raise TraceError("at least one braking and one acceleration trace required")
    brake_rows: list[tuple[float, float, float]] = []
    accel_rows: list[tuple[float, float, float]] = []
    v_top = 0.0
    a_best = 0.0
    b_best = 0.0
    for trace in traces:
        if len(trace) < 2:
            raise TraceError("traces need at least two samples")
        speeds = [s for _, _, s in trace]
        v_top = max(v_top, max(speeds))
        decreasing = all(b <= a + _TOL for a, b in zip(speeds, speeds[1:]))
        increasing = all(b >= a - _TOL for a, b in zip(speeds, speeds[1:]))
        if decreasing and speeds[0] > speeds[-1]:
            for v, x, vp in _segments(trace):
                if x > 0 and v > vp:
                    brake_rows.append((v, x, vp))
                    b_best = max(b_best, (v * v - vp * vp) / (2.0 * x))
        elif increasing and speeds[-1] > speeds[0]:
            for v, x, vp in _segments(trace):
                if x > 0 and vp > v:
                    accel_rows.append((v, x, vp))
                    a_best = max(a_best, (vp * vp - v * v) / (2.0 * x))
        else:
            raise TraceError("trace speed is not monotone")
    if not brake_rows or not accel_rows:
        raise TraceError("need at least one braking and one acceleration trace")
    return ADProfile.tabulated(
        brake_rows + accel_rows, a_max=a_best, b_max=b_best, v_max=v_top
    )


# -- monotonicity audit -------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityViolation:
    function: str  # "braking_speed" | "accel_time" | "accel_speed"
    v_low: float
    v_high: float
    x: float
    value_low: float
    value_high: float


@dataclass
class MonotonicityReport:
    violations: list[MonotonicityViolation] = field(default_factory=list)
    clamped_queries: int = 0  # tabulated lookups outside the sampled range

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotonicity(
    profile: ADProfile,
    speed_step: float = 1.0,
    dist_step: float = 2.0,
    tol: float = 1e-9,
) -> MonotonicityReport:
    """Audit the three ordering properties the capability functions must obey.

    For ``v_low <= v_high`` and every sampled distance ``x``:
    remaining braking speed never decreases with initial speed, travel time
    never increases with initial speed, and reached speed never decreases
    with initial speed.
    """
    if speed_step <= 0 or dist_step <= 0:
        raise DomainError("grid steps must be positive")
    report = MonotonicityReport()
    speeds = [i * speed_step for i in range(int(profile.v_max / speed_step) + 1)]
    if speeds[-1] < profile.v_max:
        speeds.append(profile.v_max)
    x_cap = max(profile.braking_distance(profile.v_max) * 1.2, dist_step) + dist_step
    dists = [i * dist_step for i in range(int(x_cap / dist_step) + 1)]

    if profile.kind == "tabulated":
        lo = min(v for v, _, _ in profile.table)
        hi = max(max(v, vp) for v, _, vp in profile.table)
        report.clamped_queries = sum(1 for v in speeds if v < lo - _TOL or v > hi + _TOL)

    for v_lo, v_hi in zip(speeds, speeds[1:]):
        for x in dists:
            vb_lo = profile.braking_speed(v_lo, x)
            vb_hi = profile.braking_speed(v_hi, x)
            if vb_hi < vb_lo - tol:
                report.violations.append(
                    MonotonicityViolation("braking_speed", v_lo, v_hi, x, vb_lo, vb_hi)
                )
            ta_lo = profile.accel_time(x, v_lo)
            ta_hi = profile.accel_time(x, v_hi)
            if ta_hi > ta_lo + tol:
                report.violations.append(
                    MonotonicityViolation("accel_time", v_lo, v_hi, x, ta_lo, ta_hi)
                )
            va_lo = profile.accel_speed(x, v_lo)
            va_hi = profile.accel_speed(x, v_hi)
            if va_lo > va_hi + tol:
                report.violations.append(
                    MonotonicityViolation("accel_speed", v_lo, v_hi, x, va_lo, va_hi)
                )
    return report


# -- table persistence --------------------------------------------------------


def save_table(profile: ADProfile, path: str | Path) -> None:
    """Write a tabulated profile's samples as CSV with header ``v,x,v_prime``."""
    if profile.kind != "tabulated":
        raise DomainError("only tabulated profiles have a table to save")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "x", "v_prime"])
        for v, x, vp in profile.table:
            writer.writerow([f"{v:.6f}", f"{x:.6f}", f"{vp:.6f}"])


def load_table(path: str | Path, a_max: float, b_max: float, v_max: float) -> ADProfile:
    """Load a tabulated profile saved by :func:`save_table`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["v", "x", "v_prime"]:
            raise TraceError(f"unexpected CSV header: {reader.fieldnames}")
        for row in reader:
            rows.append((float(row["v"]), float(row["x"]), float(row["v_prime"])))
    return ADProfile.tabulated(rows, a_max=a_max, b_max=b_max, v_max=v_max)
