import contextlib
import signal

import pytest

from critlab.criticality import most_critical
from critlab.kinematics import ADProfile
from critlab.scenario import ScenarioType, StaticPart

# The work counters that ``metrics.json`` reports for the grids and for the
# determinacy checks, each written on every count, zeros included.
WORK_KEYS = {"cells", "cell_steps", "early_exits", "lockstep_batches", "lockstep_steps",
             "scalar_simulate_calls"}


@pytest.fixture(scope="session")
def std_profile() -> ADProfile:
    return ADProfile(2.0, 4.0, 15.0)


@pytest.fixture(scope="session")
def merge_static() -> StaticPart:
    return StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)


@pytest.fixture(scope="session")
def std_boundary(std_profile, merge_static):
    return most_critical(20.0, 5.0, std_profile, merge_static)


def fitted_restart_geometry():
    """Profile and static part tuned so the boundary at (x_e=11.05, v_e=5.0)
    is exactly (27.6, 12.6) and the state (2.7, 6.3) lies on the full-throttle
    curve.  Returns (profile, static, a_max, vl)."""
    a = (6.3**2 - 5.0**2) / (2 * 2.7)
    va = (5.0**2 + 2 * a * 11.05) ** 0.5
    vl = 27.6 / ((va - 5.0) / a)
    b = va * va / (2 * 12.6)
    profile = ADProfile(a, b, 15.0)
    static = StaticPart(ScenarioType.INTERSECTION_YIELD, vl=vl, d=5.0)
    return profile, static, a, vl


@pytest.fixture(scope="session")
def restart_geometry():
    return fitted_restart_geometry()


@pytest.fixture
def hang_guard():
    """``with hang_guard(s):`` fails the test once its body has run ``s``
    seconds, interrupting a call blocked on a pipe, instead of hanging; it
    interrupts again every ``s`` seconds, should clean-up block too."""

    @contextlib.contextmanager
    def guard(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"still blocked after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard
