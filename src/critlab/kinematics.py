"""Longitudinal capability model of a vehicle.

Everything downstream reasons about a vehicle through four capability
functions, all in SI units (m, s, m/s, m/s^2):

* ``braking_distance(v)``        -- distance needed to brake from ``v`` to a stop
* ``braking_speed(v, x)``        -- speed left after braking over distance ``x``
* ``accel_time(x, v)``           -- time to cover ``x`` starting at speed ``v``, full throttle
* ``accel_speed(x, v)``          -- speed reached after covering ``x`` at full throttle

A profile is one vehicle's nominal operational capability: constant
maximum acceleration ``a_max``, braking deceleration ``b_max`` and speed cap
``v_max``.  The capability functions are the closed forms for bang-bang
acceleration with that speed cap, written once, for numbers and arrays alike,
as ``full_throttle`` and ``stop_distance``; the profile's methods check their
arguments and return floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ADProfile",
    "advance",
    "advance_arrays",
    "DomainError",
    "full_throttle",
    "stop_distance",
]

_TOL = 1e-9


class DomainError(ValueError):
    """Raised when a capability function is queried outside its domain."""


def full_throttle(a_max, v_max, x, v):
    """``(time, speed)``: the time to cover ``x`` from speed ``v`` at full
    throttle ``a_max`` capped at ``v_max``, and the speed reached; numbers or
    arrays, with ``x >= 0`` and ``0 <= v <= v_max``.  One root serves both."""
    root = np.sqrt(v * v + 2.0 * a_max * x)
    to_cap = (v_max * v_max - v * v) / (2.0 * a_max)
    time = np.where(x <= to_cap, (-v + root) / a_max,
                    (v_max - v) / a_max + (x - to_cap) / v_max)
    return time, np.minimum(v_max, root)


def stop_distance(v, rate):
    """Distance to brake from speed ``v`` to a stop at deceleration ``rate``."""
    return v * v / (2.0 * rate)


@dataclass(frozen=True)
class ADProfile:
    """Acceleration/deceleration capability of one vehicle: full throttle at
    ``a_max`` up to ``v_max``, full braking at ``b_max``."""

    a_max: float  # m/s^2, > 0
    b_max: float  # m/s^2, positive magnitude, > 0
    v_max: float  # m/s, > 0

    def __post_init__(self) -> None:
        if not all(0.0 < c < math.inf for c in (self.a_max, self.b_max, self.v_max)):
            raise DomainError("a_max, b_max and v_max must all be positive and finite")

    def check_speed(self, v: float) -> float:
        """``v`` clamped into ``[0, v_max]``; a ``DomainError`` past rounding."""
        if not math.isfinite(v) or v < -_TOL or v > self.v_max * (1.0 + 1e-9) + _TOL:
            raise DomainError(f"speed {v} outside [0, {self.v_max}]")
        return min(max(v, 0.0), self.v_max)

    def check_distance(self, x: float) -> float:
        """``x`` clamped to be non-negative; a ``DomainError`` past rounding."""
        if not math.isfinite(x) or x < -_TOL:
            raise DomainError(f"distance {x} must be non-negative")
        return max(x, 0.0)

    # -- capability functions ------------------------------------------------

    def braking_distance(self, v: float) -> float:
        """Distance needed to brake from speed ``v`` to a full stop."""
        return float(stop_distance(self.check_speed(v), self.b_max))

    def braking_speed(self, v: float, x: float) -> float:
        """Speed remaining after braking from ``v`` over distance ``x``."""
        v, x = self.check_speed(v), self.check_distance(x)
        return math.sqrt(max(0.0, v * v - 2.0 * self.b_max * x))

    def accel_time(self, x: float, v: float) -> float:
        """Time to travel ``x`` at full throttle starting from speed ``v``."""
        x, v = self.check_distance(x), self.check_speed(v)
        if x == 0.0:
            return 0.0
        return float(full_throttle(self.a_max, self.v_max, x, v)[0])

    def accel_speed(self, x: float, v: float) -> float:
        """Speed reached after travelling ``x`` at full throttle from speed ``v``."""
        x, v = self.check_distance(x), self.check_speed(v)
        return float(full_throttle(self.a_max, self.v_max, x, v)[1])


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
