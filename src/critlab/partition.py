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

from dataclasses import dataclass

import numpy as np

from .criticality import most_critical
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


def _interval_index(part: SpeedPartition, v: float) -> int:
    for i, (v_hi, v_lo) in enumerate(zip(part.speeds, part.speeds[1:])):
        if v_lo <= v <= v_hi:
            return i
    raise ValueError(f"speed {v} outside the partition range")


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
    with ``integration_steps`` cells on each of the ``(v, x_a, x_f)`` axes."""
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

    covered = 0.0
    safe = 0.0
    for k in range(nv):
        v = v_lo + (k + 0.5) * dv
        b = most_critical(part.x_e, v, part.profile, part.static)
        idx = _interval_index(part, v)
        corner_a, corner_f = part.corners[idx]
        in_domain = a_mids <= b.x_tilde_a
        n_safe_a = int(np.count_nonzero(in_domain & (a_mids >= b.x_hat_a)))
        n_safe_f = int(np.count_nonzero(f_mids >= b.x_hat_f))
        n_cov_a = int(np.count_nonzero(in_domain & (a_mids >= corner_a)))
        n_cov_f = int(np.count_nonzero(f_mids >= corner_f))
        safe += n_safe_a * n_safe_f
        covered += n_cov_a * n_cov_f
    cell = dv * da * df
    safe_volume = safe * cell
    covered_volume = covered * cell
    ratio = covered_volume / safe_volume if safe_volume > 0 else 0.0
    return CoverageResult(
        covered_volume=covered_volume,
        safe_volume=safe_volume,
        ratio=ratio,
        steps=(nv, na, nf),
        x_f_cap=x_f_cap,
    )


def envelope_samples(part: SpeedPartition, n: int = 100) -> list[dict[str, float]]:
    """Exact envelope versus staircase corners, sampled over the speed range.

    Rows feed the coverage plot: per speed, the exact critical corner and the
    conservative corner certifying its interval.
    """
    v_hi, v_lo = part.speeds[0], part.speeds[-1]
    rows = []
    for k in range(n):
        v = v_lo + (v_hi - v_lo) * (k + 0.5) / n
        b = most_critical(part.x_e, v, part.profile, part.static)
        corner_a, corner_f = part.corners[_interval_index(part, v)]
        rows.append(
            {
                "v": v,
                "x_hat_a": b.x_hat_a,
                "x_hat_f": b.x_hat_f,
                "corner_x_a": corner_a,
                "corner_x_f": corner_f,
            }
        )
    return rows
