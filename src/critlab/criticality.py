"""Criticality boundary and zones of compact test cases.

For a fixed ego start ``(x_e, v_e)`` the environment geometry ``(x_a, x_f)``
admits a partial order: shrinking either distance can only remove safe
policies (``classify`` sweeps each grid in it for dominated failures).  The
tightest geometry that still admits a safe crossing is

* ``x_hat_a = accel_time(x_e, v_e) * vl`` -- the arriving vehicle distance at
  which a full-throttle ego reaches the conflict point exactly in time, and
* ``x_hat_f = braking_distance(accel_speed(x_e, v_e))`` -- the room needed to
  stop after crossing at full throttle,

both written once in ``critical_corner``, for one start or an array of them,
while ``x_tilde_a = (x_e / v_e) * vl`` is the distance beyond which even a
constant-speed ego clears the point first, making the case undiscriminating.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ADProfile, full_throttle, stop_distance
from .scenario import StaticPart, TestCase

__all__ = [
    "CriticalBoundary",
    "Zone",
    "ZONES",
    "critical_corner",
    "most_critical",
    "classify_zone",
    "zone_codes",
]


@dataclass(frozen=True)
class CriticalBoundary:
    """Boundary of the safe-progress region for one ego start."""

    x_hat_a: float  # m, tightest arriving distance with a safe crossing
    x_hat_f: float  # m, tightest front distance with a safe crossing
    x_tilde_a: float  # m, arriving distance beyond which the case is undiscriminating
    cautious_feasible: bool  # braking_distance(v_e) <= x_e

    def __post_init__(self) -> None:
        if self.x_hat_a <= 0 or self.x_hat_f < 0:
            raise ValueError("boundary distances out of range")
        if self.x_hat_a > self.x_tilde_a + 1e-9:
            raise ValueError("x_hat_a cannot exceed x_tilde_a")

    def to_dict(self) -> dict:
        """JSON form; an infinite ``x_tilde_a`` (stationary ego) becomes null."""
        return {
            "x_hat_a": self.x_hat_a,
            "x_hat_f": self.x_hat_f,
            "x_tilde_a": None if math.isinf(self.x_tilde_a) else self.x_tilde_a,
            "cautious_feasible": self.cautious_feasible,
        }


class Zone(enum.Enum):
    CAUTIOUS_ONLY = "cautious_only"
    SAFE_PROGRESS = "safe_progress"
    IRRELEVANT = "irrelevant"
    NON_NOMINAL = "non_nominal"


# Every zone once; ``zone_codes`` gives zones as indices into it.
ZONES = tuple(Zone)
_CAUTIOUS_ONLY, _SAFE_PROGRESS, _IRRELEVANT, _NON_NOMINAL = map(ZONES.index, Zone)


def critical_corner(x_e, v_e, profile: ADProfile, vl: float):
    """``(x_hat_a, x_hat_f)`` of ego starts ``(x_e, v_e)``, numbers or arrays,
    with ``x_e > 0`` and ``0 <= v_e <= v_max``, against arriving speed ``vl``."""
    time, speed = full_throttle(profile.a_max, profile.v_max, x_e, v_e)
    return time * vl, stop_distance(speed, profile.b_max)


def most_critical(
    x_e: float, v_e: float, profile: ADProfile, static: StaticPart
) -> CriticalBoundary:
    """Boundary of the safe-progress region for ego start ``(x_e, v_e)``.

    A stationary ego can never be cleared by constant speed, so its
    undiscriminating threshold is infinite.
    """
    if x_e <= 0:
        raise ValueError("x_e must be positive")
    x, v = profile.check_distance(x_e), profile.check_speed(v_e)
    x_hat_a, x_hat_f = critical_corner(x, v, profile, static.vl)
    return CriticalBoundary(
        x_hat_a=float(x_hat_a),
        x_hat_f=float(x_hat_f),
        x_tilde_a=math.inf if v_e == 0 else (x_e / v_e) * static.vl,
        cautious_feasible=stop_distance(v, profile.b_max) <= x_e,
    )


def zone_codes(boundary: CriticalBoundary, x_a_values, x_f_values) -> np.ndarray:
    """``classify_zone`` of every geometry of the grid ``x_a_values`` x
    ``x_f_values``, as its index in ``ZONES``, in an array of that shape."""
    x_a = np.asarray(x_a_values, dtype=float)[:, None]
    x_f = np.asarray(x_f_values, dtype=float)[None, :]
    fallback = _CAUTIOUS_ONLY if boundary.cautious_feasible else _NON_NOMINAL
    return np.where(x_a >= boundary.x_tilde_a, _IRRELEVANT,
                    np.where((x_a >= boundary.x_hat_a) & (x_f >= boundary.x_hat_f),
                             _SAFE_PROGRESS, fallback))


def classify_zone(tc: TestCase, boundary: CriticalBoundary) -> Zone:
    """Place one geometry in the theoretical decomposition of the test space."""
    return ZONES[zone_codes(boundary, [tc.x_a], [tc.x_f])[0, 0]]
