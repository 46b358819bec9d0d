import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.kinematics import ADProfile, DomainError, advance

from _oracles import (
    euler_accel_run,
    euler_braking_distance,
    euler_braking_speed,
)


@pytest.fixture(scope="module")
def profile():
    return ADProfile(2.0, 4.0, 15.0)


class TestAdvance:
    def test_trapezoidal_position_update(self):
        assert advance(-10.0, 5.0, 2.0, 0.5, 15.0) == (-10.0 + 0.5 * (5.0 + 6.0) * 0.5, 6.0)

    def test_speed_clamped_to_zero_and_v_max(self):
        assert advance(0.0, 1.0, -4.0, 0.5, 15.0) == (0.25, 0.0)
        assert advance(0.0, 14.5, 2.0, 0.5, 15.0) == (0.5 * (14.5 + 15.0) * 0.5, 15.0)


class TestClosedForms:
    def test_braking_distance_zero_speed(self, profile):
        assert profile.braking_distance(0.0) == 0.0

    def test_braking_distance_value(self, profile):
        assert profile.braking_distance(10.0) == pytest.approx(12.5)

    def test_braking_distance_euler_oracle(self, profile):
        assert profile.braking_distance(10.0) == pytest.approx(
            euler_braking_distance(10.0, 4.0), abs=0.05
        )

    def test_braking_speed_zero_distance(self, profile):
        for v in (0.0, 3.3, 10.0, 15.0):
            assert profile.braking_speed(v, 0.0) == v

    def test_braking_speed_value(self, profile):
        assert profile.braking_speed(10.0, 4.5) == pytest.approx(8.0)

    def test_braking_speed_composes(self, profile):
        mid = profile.braking_speed(10.0, 4.5)
        assert profile.braking_speed(mid, 8.0) == pytest.approx(0.0, abs=1e-9)
        assert profile.braking_speed(10.0, 12.5) == pytest.approx(0.0, abs=1e-9)

    def test_accel_time_zero_distance(self, profile):
        assert profile.accel_time(0.0, 7.0) == 0.0

    def test_accel_time_below_cap(self, profile):
        assert profile.accel_time(20.0, 5.0) == pytest.approx(2.6235, abs=1e-3)

    def test_accel_time_through_cap(self, profile):
        # cap reached after 50 m; the last 50 m are cruised at 15 m/s
        assert profile.accel_time(100.0, 5.0) == pytest.approx(8.3333, abs=1e-3)

    def test_accel_speed_zero_distance(self, profile):
        assert profile.accel_speed(0.0, 9.0) == 9.0

    def test_accel_speed_below_cap(self, profile):
        assert profile.accel_speed(20.0, 5.0) == pytest.approx(math.sqrt(105.0), abs=1e-3)

    def test_accel_speed_capped(self, profile):
        assert profile.accel_speed(100.0, 5.0) == 15.0

    def test_domain_errors(self, profile):
        with pytest.raises(DomainError):
            profile.braking_distance(-1.0)
        with pytest.raises(DomainError):
            profile.braking_distance(15.1)
        with pytest.raises(DomainError):
            profile.braking_speed(5.0, -0.5)
        with pytest.raises(DomainError):
            profile.accel_time(-2.0, 5.0)
        with pytest.raises(DomainError):
            ADProfile(0.0, 4.0, 15.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                ADProfile(bad, 4.0, 15.0)

    def test_integration_oracle_grid(self, profile):
        """Closed forms agree with a dt=0.001 integration oracle on a 20x20 grid."""
        speeds = np.linspace(0.5, 15.0, 20)
        dists = np.linspace(0.5, 60.0, 20)
        b_oracle = euler_braking_distance(speeds, 4.0)
        for v, bx in zip(speeds, b_oracle):
            got = profile.braking_distance(v)
            assert got == pytest.approx(bx, rel=1e-3, abs=0.05)
        for v in speeds[::4]:
            vb_oracle = euler_braking_speed(np.full(20, v), dists, 4.0)
            for x, vb in zip(dists, vb_oracle):
                assert profile.braking_speed(v, x) == pytest.approx(vb, rel=1e-3, abs=0.05)
        for v in speeds[::4]:
            t_oracle, v_oracle = euler_accel_run(np.full(20, v), dists, 2.0, 15.0)
            for x, t_ref, v_ref in zip(dists, t_oracle, v_oracle):
                assert profile.accel_time(x, v) == pytest.approx(t_ref, rel=1e-3, abs=0.05)
                assert profile.accel_speed(x, v) == pytest.approx(v_ref, rel=1e-3, abs=0.05)

    def test_outputs_finite_on_domain(self, profile):
        for v in np.linspace(0.0, 15.0, 31):
            for x in np.linspace(0.0, 100.0, 21):
                values = (
                    profile.braking_distance(v),
                    profile.braking_speed(v, x),
                    profile.accel_time(x, v),
                    profile.accel_speed(x, v),
                )
                assert all(math.isfinite(val) for val in values)


@settings(max_examples=60, deadline=None)
@given(
    v=st.floats(0.0, 15.0),
    x1=st.floats(0.0, 40.0),
    x2=st.floats(0.0, 40.0),
)
def test_braking_speed_composability_property(v, x1, x2):
    profile = ADProfile(2.0, 4.0, 15.0)
    lhs = profile.braking_speed(v, x1 + x2)
    rhs = profile.braking_speed(profile.braking_speed(v, x1), x2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(v=st.floats(0.0, 15.0))
def test_braking_distance_is_the_stopping_point(v):
    profile = ADProfile(2.0, 4.0, 15.0)
    b = profile.braking_distance(v)
    assert profile.braking_speed(v, b) == pytest.approx(0.0, abs=1e-9)
    if b > 0.01:
        assert profile.braking_speed(v, b - 0.01) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    profile=st.builds(ADProfile, st.floats(0.5, 5.0), st.floats(1.0, 10.0),
                      st.floats(5.0, 40.0)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    x=st.floats(0.0, 200.0),
)
def test_capabilities_are_monotone_in_speed(profile, fractions, x):
    """From a higher start speed, the speed left after braking over ``x`` and
    the speed reached over ``x`` at full throttle are no lower, and the time
    to cover ``x`` is no longer."""
    v_lo, v_hi = (f * profile.v_max for f in fractions)
    assert profile.braking_speed(v_lo, x) <= profile.braking_speed(v_hi, x)
    assert profile.accel_time(x, v_hi) <= profile.accel_time(x, v_lo) + 1e-9
    assert profile.accel_speed(x, v_lo) <= profile.accel_speed(x, v_hi)
