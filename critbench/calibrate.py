"""Speed of the machine right now, from a fixed pure-Python kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30% over minutes as its other tenants come and go: the same campaign
takes 4.9 s for a few minutes and then 6.2 s.  ``run.py`` times this kernel
between campaigns and scales each campaign's time by ``REFERENCE_S`` over the
mean of the two samples around it, so a run reports seconds at the host
speed of the reference below and a slow spell of the host does not read as
a slow program.  In a calm spell the kernel's own noise can outweigh that:
over the ten runs of each workload in ``baseline.json`` the campaign time
spread (IQR over median) 0.073 unscaled and 0.089 scaled on
default-campaign, but 0.070 and 0.054 on external-pilot.

The kernel never calls critlab, so a change to the program cannot move it.
It exercises what the campaigns spend their time on: frozen-dataclass
copies, method calls, float arithmetic, list appends and small dicts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

KERNEL_N = 12000  # vehicle runs per sample
# Median seconds of one sample on the reference machine (2-vCPU Xeon 2.1 GHz,
# Python 3.11.7), over the samples of ten benchmark runs.
REFERENCE_S = 1.65


@dataclass(frozen=True)
class _State:
    x: float
    v: float
    t: float


class _Car:
    def __init__(self, accel: float, brake: float) -> None:
        self.accel, self.brake = accel, brake

    def step(self, s: _State, dt: float) -> _State:
        acc = self.accel if s.x < 40.0 else -self.brake
        v = min(15.0, max(0.0, s.v + acc * dt))
        return replace(s, x=s.x + 0.5 * (s.v + v) * dt, v=v, t=s.t + dt)


def kernel(n: int) -> float:
    car = _Car(2.0, 4.0)
    total = 0.0
    last_v: dict[int, float] = {}
    for k in range(n):
        s = _State(float(k % 7), 5.0 + k % 5, 0.0)
        xs = []
        for _ in range(40):
            s = car.step(s, 0.1)
            xs.append(s.x)
        total += math.fsum(xs) / len(xs)
        last_v[k % 97] = round(s.v, 3)
    return total + sum(last_v.values())


def sample() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel(KERNEL_N)
    return time.perf_counter() - start


if __name__ == "__main__":
    import statistics

    kernel(KERNEL_N // 10)
    times = [sample() for _ in range(15)]
    print(f"median {statistics.median(times):.4f} s  "
          + " ".join(f"{t:.3f}" for t in times))
