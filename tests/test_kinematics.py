import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.autopilots import non_monotone_brake_profile
from critlab.kinematics import (
    ADProfile,
    DomainError,
    TraceError,
    advance,
    check_monotonicity,
    estimate_profile,
    load_table,
    save_table,
)

from _oracles import (
    euler_accel_run,
    euler_braking_distance,
    euler_braking_speed,
)


@pytest.fixture(scope="module")
def profile():
    return ADProfile.constant(2.0, 4.0, 15.0)


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
            ADProfile.constant(0.0, 4.0, 15.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                ADProfile.constant(bad, 4.0, 15.0)

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
    profile = ADProfile.constant(2.0, 4.0, 15.0)
    lhs = profile.braking_speed(v, x1 + x2)
    rhs = profile.braking_speed(profile.braking_speed(v, x1), x2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(v=st.floats(0.0, 15.0))
def test_braking_distance_is_the_stopping_point(v):
    profile = ADProfile.constant(2.0, 4.0, 15.0)
    b = profile.braking_distance(v)
    assert profile.braking_speed(v, b) == pytest.approx(0.0, abs=1e-9)
    if b > 0.01:
        assert profile.braking_speed(v, b - 0.01) > 0.0


def _simulated_traces(a, b, v_max, dt=0.1):
    brake = []
    t, x, v = 0.0, 0.0, 10.0
    brake.append((t, x, v))
    while v > 0:
        x += v * dt - 0.5 * b * dt * dt if v - b * dt > 0 else v * v / (2 * b)
        v = max(v - b * dt, 0.0)
        t += dt
        brake.append((t, x, v))
    accel = []
    t, x, v = 0.0, 0.0, 0.0
    accel.append((t, x, v))
    while v < v_max:
        x += v * dt + 0.5 * a * dt * dt
        v = min(v + a * dt, v_max)
        t += dt
        accel.append((t, x, v))
    return [brake, accel]


class TestEstimateProfile:
    def test_round_trip_through_traces(self):
        traces = _simulated_traces(2.0, 4.0, 15.0)
        est = estimate_profile(traces)
        assert est.kind == "tabulated"
        assert est.braking_distance(10.0) == pytest.approx(12.5, abs=0.5)
        assert est.accel_speed(20.0, 5.0) == pytest.approx(math.sqrt(105.0), abs=0.5)

    def test_empty_trace_list_rejected(self):
        with pytest.raises(TraceError):
            estimate_profile([])

    def test_non_monotone_braking_trace_rejected(self):
        bad = [(0.0, 0.0, 10.0), (0.5, 4.0, 8.0), (1.0, 7.0, 9.0), (1.5, 9.0, 0.0)]
        accel = [(0.0, 0.0, 0.0), (1.0, 1.0, 2.0)]
        with pytest.raises(TraceError):
            estimate_profile([bad, accel])

    def test_two_point_trace_interpolates_exactly(self):
        brake = [(0.0, 0.0, 10.0), (2.5, 12.5, 0.0)]
        accel = [(0.0, 0.0, 0.0), (5.0, 25.0, 10.0)]
        est = estimate_profile([brake, accel])
        assert est.braking_distance(10.0) == 12.5

    def test_sample_points_reproduced(self):
        traces = _simulated_traces(2.0, 4.0, 15.0)
        est = estimate_profile(traces)
        t_b = traces[0]
        stop = t_b[-1][1]
        for _, x, v in t_b[:: max(len(t_b) // 5, 1)]:
            assert est.braking_distance(v) == pytest.approx(stop - x, abs=1e-9)


class TestMonotonicity:
    def test_constant_profile_clean(self):
        report = check_monotonicity(ADProfile.constant(2.0, 4.0, 15.0))
        assert report.ok
        assert report.violations == []

    def test_grid_steps_validated(self):
        with pytest.raises(DomainError):
            check_monotonicity(ADProfile.constant(2, 4, 15), speed_step=0.0)

    def test_inverted_sample_reported(self):
        profile = non_monotone_brake_profile()
        report = check_monotonicity(profile, speed_step=0.5, dist_step=1.0)
        assert not report.ok
        braking = [v for v in report.violations if v.function == "braking_speed"]
        assert braking
        assert any(v.v_low <= 9.0 <= v.v_high + 0.5 for v in braking)


class TestTableIO:
    def test_csv_round_trip(self, tmp_path):
        traces = _simulated_traces(2.0, 4.0, 15.0)
        est = estimate_profile(traces)
        path = tmp_path / "table.csv"
        save_table(est, path)
        header = path.read_text().splitlines()[0]
        assert header == "v,x,v_prime"
        loaded = load_table(path, est.a_max, est.b_max, est.v_max)
        for v in (2.0, 7.5, 10.0):
            assert loaded.braking_distance(v) == pytest.approx(
                est.braking_distance(v), abs=1e-5
            )
            assert loaded.accel_speed(10.0, v) == pytest.approx(
                est.accel_speed(10.0, v), abs=1e-5
            )

    def test_constant_profile_has_no_table(self, tmp_path):
        with pytest.raises(DomainError):
            save_table(ADProfile.constant(2, 4, 15), tmp_path / "x.csv")
