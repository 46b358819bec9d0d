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
acceleration with that speed cap.
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
]

_TOL = 1e-9


class DomainError(ValueError):
    """Raised when a capability function is queried outside its domain."""


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
        return v * v / (2.0 * self.b_max)

    def braking_speed(self, v: float, x: float) -> float:
        """Speed remaining after braking from ``v`` over distance ``x``."""
        v = self._check_speed(v)
        x = self._check_distance(x)
        return math.sqrt(max(0.0, v * v - 2.0 * self.b_max * x))

    def accel_time(self, x: float, v: float) -> float:
        """Time to travel ``x`` at full throttle starting from speed ``v``."""
        x = self._check_distance(x)
        v = self._check_speed(v)
        if x == 0.0:
            return 0.0
        to_cap = (self.v_max * self.v_max - v * v) / (2.0 * self.a_max)
        if x <= to_cap:
            return (-v + math.sqrt(v * v + 2.0 * self.a_max * x)) / self.a_max
        return (self.v_max - v) / self.a_max + (x - to_cap) / self.v_max

    def accel_speed(self, x: float, v: float) -> float:
        """Speed reached after travelling ``x`` at full throttle from speed ``v``."""
        x = self._check_distance(x)
        v = self._check_speed(v)
        return min(self.v_max, math.sqrt(v * v + 2.0 * self.a_max * x))


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
