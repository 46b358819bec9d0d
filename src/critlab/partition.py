"""Speed-interval partitioning of the test space and its coverage ratio.

Because the capability functions are monotone in the initial speed, one
conservative corner certifies a whole speed interval: for speeds in
``[v_lo, v_hi]`` every geometry with ``x_a >= x_hat_a(v_lo)`` and
``x_f >= x_hat_f(v_hi)`` admits a safe crossing.  The staircase of corner
rectangles under-approximates the exact safe envelope; the coverage ratio is
the fraction of the exact safe volume the staircase reaches, integrated over
``(v, x_a, x_f)`` with ``x_a`` capped at the per-speed undiscriminating
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criticality import critical_corner, most_critical
from .kinematics import ADProfile
from .scenario import StaticPart

__all__ = [
    "SpeedPartition",
    "CoverageResult",
    "build_partition",
    "coverage_cap",
    "coverage_ratio",
    "envelope_samples",
    "COVERAGE_STEPS",
]

COVERAGE_STEPS = 100  # cells on each (v, x_a, x_f) axis of a coverage integral


@dataclass(frozen=True)
class SpeedPartition:
    """Decreasing speed breakpoints with one safe corner per interval."""

    x_e: float  # m
    speeds: tuple[float, ...]  # m/s, strictly decreasing
    corners: tuple[tuple[float, float], ...]  # (x_a corner, x_f corner) per interval
    profile: ADProfile
    static: StaticPart


def build_partition(
    x_e: float,
    speeds: list[float] | tuple[float, ...],
    profile: ADProfile,
    static: StaticPart,
) -> SpeedPartition:
    """Corner geometry per interval: slowest speed fixes the arriving-distance
    requirement, fastest speed fixes the braking-room requirement."""
    if len(speeds) < 2:
        raise ValueError("need at least two speeds (one interval)")
    if any(b >= a for a, b in zip(speeds, speeds[1:])):
        raise ValueError("speeds must be strictly decreasing")
    if speeds[0] > profile.v_max or speeds[-1] <= 0:
        raise ValueError("speeds must lie within (0, v_max]")
    corners = []
    for v_hi, v_lo in zip(speeds, speeds[1:]):
        a_corner = most_critical(x_e, v_lo, profile, static).x_hat_a
        f_corner = most_critical(x_e, v_hi, profile, static).x_hat_f
        corners.append((a_corner, f_corner))
    return SpeedPartition(
        x_e=x_e,
        speeds=tuple(speeds),
        corners=tuple(corners),
        profile=profile,
        static=static,
    )


@dataclass(frozen=True)
class CoverageResult:
    covered_volume: float
    safe_volume: float
    ratio: float
    steps: tuple[int, int, int]  # (v, x_a, x_f) axis resolutions
    x_f_cap: float


def _envelope(part: SpeedPartition, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(x_hat_a, x_hat_f, corner_x_a, corner_x_f)`` of each speed in ``v``:
    its exact corner, and its interval's corner, where a breakpoint two
    intervals share takes the faster interval's."""
    ascending = np.array(part.speeds[:0:-1])  # every breakpoint but the fastest
    index = len(ascending) - np.searchsorted(ascending, v, side="right")
    return (*critical_corner(part.x_e, v, part.profile, part.static.vl),
            *np.array(part.corners)[index].T)


def _count_in(mids: np.ndarray, lo, hi=np.inf):
    """How many of the ascending ``mids`` lie in ``[lo, hi]``, per entry."""
    return np.maximum(np.searchsorted(mids, hi, "right") - np.searchsorted(mids, lo, "left"), 0)


def coverage_cap(part: SpeedPartition, x_f_cap: float | None, steps: int) -> float:
    """The ``x_f`` cap of a coverage integral over ``steps`` cells per axis.

    A null cap means twice the braking distance from ``v_max``.  A cap that
    is not finite or lies below the largest front corner, or a ``steps`` that
    is not a positive integer, is refused.
    """
    if type(steps) is not int or steps < 1:
        raise ValueError(f"integration steps must be an integer >= 1, got {steps!r}")
    if x_f_cap is None:
        x_f_cap = 2.0 * part.profile.braking_distance(part.profile.v_max)
    max_corner_f = max(f for _, f in part.corners)
    if not max_corner_f <= x_f_cap < np.inf:
        raise ValueError(f"x_f_cap {x_f_cap} is not finite or below the largest corner "
                         f"{max_corner_f:.3f}")
    return x_f_cap


def coverage_ratio(
    part: SpeedPartition, x_f_cap: float | None, integration_steps: int = COVERAGE_STEPS
) -> CoverageResult:
    """Midpoint-rule volume of staircase-covered versus exactly-safe space,
    with ``integration_steps`` cells on each of the ``(v, x_a, x_f)`` axes.

    A result whose volumes or ratio are not finite (a slowest speed so near
    0, or an ``x_e`` or ``x_f_cap`` so large, that a volume overflows) is
    refused with a ``ValueError``: JSON has no text for it.
    """
    x_f_cap = coverage_cap(part, x_f_cap, integration_steps)
    nv = na = nf = integration_steps
    v_hi, v_lo = part.speeds[0], part.speeds[-1]
    vl = part.static.vl
    x_a_cap = (part.x_e / v_lo) * vl  # largest undiscriminating threshold in range
    dv = (v_hi - v_lo) / nv
    da = x_a_cap / na
    df = x_f_cap / nf
    a_mids = (np.arange(na) + 0.5) * da
    f_mids = (np.arange(nf) + 0.5) * df
    v = v_lo + (np.arange(nv) + 0.5) * dv
    with np.errstate(over="ignore"):  # speeds near 0: an infinite x_tilde_a, as on floats
        x_tilde_a = (part.x_e / v) * vl
    x_hat_a, x_hat_f, corner_a, corner_f = _envelope(part, v)
    safe = int(np.sum(_count_in(a_mids, x_hat_a, x_tilde_a) * _count_in(f_mids, x_hat_f)))
    covered = int(np.sum(_count_in(a_mids, corner_a, x_tilde_a) * _count_in(f_mids, corner_f)))
    cell = dv * da * df
    safe_volume = safe * cell
    covered_volume = covered * cell
    ratio = covered_volume / safe_volume if safe_volume > 0 else 0.0
    if not all(map(math.isfinite, (covered_volume, safe_volume, ratio))):
        raise ValueError(f"coverage of speeds {list(part.speeds)} from x_e {part.x_e} with "
                         f"x_f_cap {x_f_cap} is not finite: covered volume {covered_volume}, "
                         f"safe volume {safe_volume}")
    return CoverageResult(covered_volume, safe_volume, ratio, (nv, na, nf), x_f_cap)


def envelope_samples(part: SpeedPartition, n: int = 100) -> list[dict[str, float]]:
    """Exact envelope versus staircase corners, sampled over the speed range.

    Rows feed the coverage plot: per speed, the exact critical corner and the
    conservative corner certifying its interval.
    """
    v_hi, v_lo = part.speeds[0], part.speeds[-1]
    v = v_lo + (v_hi - v_lo) * (np.arange(n) + 0.5) / n
    keys = ("v", "x_hat_a", "x_hat_f", "corner_x_a", "corner_x_f")
    rows = np.column_stack((v, *_envelope(part, v)))
    return [dict(zip(keys, row)) for row in rows.tolist()]
