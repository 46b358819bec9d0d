import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import speed_at_conflict
from critlab.autopilots import (
    FACTORIES,
    always_cautious,
    constant_speed,
    reference,
    transition_flawed,
)
from critlab.kinematics import ADProfile
from critlab.scenario import (
    HorizonError,
    Light,
    Property,
    ScenarioType,
    StaticPart,
    TestCase,
    equivalence_mutations,
    expand,
    scenario_to_json,
)
from critlab.simulator import (
    Event,
    EventKind,
    SimConfig,
    VerdictKind,
    simulate,
    verdict,
)


class TestEvents:
    def test_always_cautious_stops_cleanly(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        out = simulate(always_cautious(std_profile), tc, SimConfig())
        assert out.has(EventKind.STOPPED_BEFORE_ZONE)
        assert not out.has(EventKind.COLLISION_ARRIVING)
        assert not out.has(EventKind.COLLISION_FRONT)
        assert out.final.x < -merge_static.d

    def test_careless_ego_losing_the_race_collides(self, std_profile, merge_static):
        # equal speeds, |x_e - x_a| = 5 and the arriving vehicle gets there first
        tc = TestCase(static=merge_static, x_e=45.0, v_e=10.0, x_a=40.0, x_f=200.0)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        assert out.has(EventKind.COLLISION_ARRIVING)

    def test_careless_ego_crossing_first_shares_the_zone(self, std_profile, merge_static):
        # same offset with the order flipped: the ego clears the point first,
        # so only the co-occupancy event fires, which is recorded, not failed:
        # the run fails for never stopping past the point
        tc = TestCase(static=merge_static, x_e=40.0, v_e=10.0, x_a=45.0, x_f=200.0)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        assert not out.has(EventKind.COLLISION_ARRIVING)
        assert out.has(EventKind.ZONE_COOCCUPANCY)
        assert verdict(out).reason == "no_stable_state_after_crossing"

    def test_reference_crosses_and_stops_before_front(
        self, std_profile, merge_static, std_boundary
    ):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a + 0.5, x_f=std_boundary.x_hat_f + 0.5,
        )
        out = simulate(reference(std_profile), tc, SimConfig())
        assert out.has(EventKind.CROSSED_CONFLICT)
        assert not out.has(EventKind.COLLISION_ARRIVING)
        assert not out.has(EventKind.COLLISION_FRONT)
        assert out.final.v == 0.0
        assert 0.0 < out.final.x < tc.x_f
        # it shared the zone with the arriving vehicle, and that fails nothing
        assert out.has(EventKind.ZONE_COOCCUPANCY)
        assert verdict(out).kind is VerdictKind.PROGRESS_PASS

    def test_no_event_after_collision(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=45.0, v_e=10.0, x_a=40.0, x_f=200.0)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        collision_t = next(e.t for e in out.events if e.kind is EventKind.COLLISION_ARRIVING)
        assert all(e.t <= collision_t + 1e-9 for e in out.events)

    def test_events_time_ordered(self, std_profile, merge_static, std_boundary):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a + 2.0, x_f=std_boundary.x_hat_f + 2.0,
        )
        out = simulate(reference(std_profile), tc, SimConfig())
        times = [e.t for e in out.events]
        assert times == sorted(times)

    def test_red_light_entry(self, std_profile):
        static = StaticPart(
            ScenarioType.INTERSECTION_LIGHT, vl=10.0, d=5.0, light_schedule=(0.5, 600.0)
        )
        tc = TestCase(static=static, x_e=20.0, v_e=5.0, x_a=500.0, x_f=500.0, horizon=600)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        assert out.has(EventKind.RED_LIGHT_ENTRY)
        assert verdict(out).kind is VerdictKind.FAIL
        assert verdict(out).reason == Property.NO_RED_LIGHT_ENTRY.value

    def test_front_collision_requires_motion(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=500.0, x_f=10.0,
                      horizon=600)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        assert out.has(EventKind.COLLISION_FRONT)
        out2 = simulate(reference(std_profile), tc, SimConfig())
        assert not out2.has(EventKind.COLLISION_FRONT)

    def test_non_finite_command_aborts(self, std_profile, merge_static):
        class BrokenPilot:
            profile = std_profile

            def start_case(self, tc, dt):
                return lambda t, x, v: float("nan")

        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        out = simulate(BrokenPilot(), tc, SimConfig())
        assert out.has(EventKind.ABORTED)
        assert verdict(out).kind is VerdictKind.FAIL


@pytest.mark.parametrize("field", ["dt", "zone_epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sim_config_refuses_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**{field: value})


class TestDeterminismAndConsistency:
    def test_byte_identical_repeat(self, std_profile, merge_static, std_boundary):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a + 0.5, x_f=std_boundary.x_hat_f + 0.5,
        )
        a = simulate(reference(std_profile), tc, SimConfig())
        b = simulate(reference(std_profile), tc, SimConfig())
        assert scenario_to_json(tc.static, a.frames) == scenario_to_json(tc.static, b.frames)
        assert a.events == b.events

    def test_kinematic_consistency(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        out = simulate(reference(std_profile), tc, SimConfig())
        frames = out.frames
        max_rate = max(std_profile.a_max, std_profile.b_max)
        for f0, f1 in zip(frames, frames[1:]):
            assert abs(f1.ego.v - f0.ego.v) <= max_rate * 0.1 + 1e-9
            assert f1.ego.x - f0.ego.x == pytest.approx(
                0.5 * (f0.ego.v + f1.ego.v) * 0.1, abs=1e-9
            )

    def test_halving_dt_moves_boundary_at_most_one_step(
        self, std_profile, merge_static, std_boundary
    ):
        def empirical_boundary(dt):
            pilot = reference(std_profile)
            x_f = std_boundary.x_hat_f + 0.5
            for x_a in [24.0 + 0.25 * i for i in range(24)]:
                tc = TestCase(
                    static=merge_static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f,
                    horizon=800,  # covers the finest step size swept below
                )
                out = simulate(pilot, tc, SimConfig(dt=dt))
                if verdict(out).kind is VerdictKind.PROGRESS_PASS:
                    return x_a
            raise AssertionError("no passing geometry found")

        b1 = empirical_boundary(0.1)
        b2 = empirical_boundary(0.05)
        b3 = empirical_boundary(0.025)
        assert abs(b1 - b2) <= merge_static.vl * 0.1
        assert abs(b2 - b3) <= merge_static.vl * 0.05

    def test_collision_window_example_in_closed_loop(self, std_profile, merge_static):
        # constant-speed conflict at |x_e - x_a| = 5 with the arriving first:
        # realised collision matches the possibility window
        tc = TestCase(static=merge_static, x_e=45.0, v_e=10.0, x_a=40.0, x_f=300.0)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        assert out.has(EventKind.COLLISION_ARRIVING)


class TestVerdicts:
    def test_collision_fails_with_property_reason(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=45.0, v_e=10.0, x_a=40.0, x_f=200.0)
        out = simulate(constant_speed(std_profile), tc, SimConfig())
        vd = verdict(out)
        assert vd.kind is VerdictKind.FAIL
        assert vd.reason == Property.NO_COLLISION_ARRIVING.value

    def test_cautious_stop_passes(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=20.0, x_f=14.0)
        out = simulate(reference(std_profile), tc, SimConfig())
        assert verdict(out).kind is VerdictKind.CAUTIOUS_PASS

    def test_progress_pass_behind_front(self, std_profile, merge_static, std_boundary):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a + 1.0, x_f=std_boundary.x_hat_f + 1.0,
        )
        out = simulate(reference(std_profile), tc, SimConfig())
        assert verdict(out).kind is VerdictKind.PROGRESS_PASS

    def test_forced_progress_below_boundary_collides(
        self, std_profile, merge_static, std_boundary
    ):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a - 1.0, x_f=std_boundary.x_hat_f,
        )
        out = simulate(transition_flawed(std_profile, 1.2), tc, SimConfig())
        assert out.has(EventKind.COLLISION_ARRIVING)


class TestPerStepEnvironments:
    """``simulate`` builds each step's environment itself; it must match ``expand``."""

    LIGHT = StaticPart(
        ScenarioType.INTERSECTION_LIGHT, vl=10.0, d=5.0, light_schedule=(2.0, 3.0)
    )

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    @pytest.mark.parametrize("pilot", [reference, always_cautious, constant_speed])
    def test_recorded_frames_match_expand(self, std_profile, pilot, dt):
        base = TestCase(static=self.LIGHT, x_e=20.0, v_e=5.0, x_a=30.0, x_f=15.0)
        saw_red = False
        for tc in [base, *equivalence_mutations(base, headway=10.0)]:
            out = simulate(pilot(std_profile), tc, SimConfig(dt=dt))
            envs = expand(tc, dt)
            frames = out.frames
            assert out.tc == replace(tc, horizon=len(envs) - 1)
            assert len(frames) == out.steps + 1
            assert [f.env for f in frames] == envs[: len(frames)]
            saw_red = saw_red or any(f.env.light is Light.RED for f in frames)
        assert saw_red

    def test_simulate_rechecks_horizon_for_dt(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=15.0, horizon=400)
        assert simulate(reference(std_profile), tc, SimConfig()).tc == tc
        with pytest.raises(HorizonError) as err:
            simulate(reference(std_profile), tc, SimConfig(dt=0.001))
        assert "minimum n is" in str(err.value)


def _distances(lo, hi):
    """Distances in ``[lo, hi]``, half of them on a 0.25 m lattice, where
    crossings land on step boundaries as they do on campaign grids."""
    return st.floats(lo, hi) | st.integers(int(4 * lo) + 1, int(4 * hi)).map(lambda k: k / 4)


@st.composite
def crossing_cases(draw):
    """A built-in variant with its default parameters (on a profile that
    brakes at 5 m/s^2 or more, which caps or refuses no default rate), one
    drawn case and a step size."""
    profile = ADProfile(
        draw(st.floats(0.5, 5.0)), draw(st.floats(5.0, 10.0)), draw(st.floats(5.0, 40.0))
    )
    pilot = FACTORIES[draw(st.sampled_from(sorted(FACTORIES)))](profile)
    static = StaticPart(draw(st.sampled_from(list(ScenarioType))), vl=draw(st.floats(5.0, 20.0)),
                        d=draw(st.floats(1.0, 8.0)))
    dt = draw(st.sampled_from([0.1, 0.05, 0.02]))
    tc = TestCase(static=static, x_e=draw(_distances(1.0, 80.0)),
                  v_e=draw(st.floats(0.0, profile.v_max)), x_a=draw(_distances(1.0, 80.0)),
                  x_f=draw(_distances(0.5, 60.0)))
    return pilot, tc, SimConfig(dt=dt)


def _bits(x):
    return None if x is None else x.hex()


# A run whose crossing step changes speed so that computing the same
# interpolation in another order moves the last bit of the crossing speed;
# about 1 in 700 drawn crossings does.
ROUNDING_CASE = (
    transition_flawed(ADProfile(1.2549170498899573, 5.835090291113253,
                                         22.34313592213782)),
    TestCase(static=StaticPart(ScenarioType.LANE_CHANGE, vl=18.698614480130384,
                               d=6.909811268180209),
             x_e=28.2979293484422, v_e=16.54345771286463, x_a=65.27516802171546,
             x_f=2.83899643591967),
    SimConfig(),
)


@settings(max_examples=150, deadline=None)
@given(crossing_cases())
@example(ROUNDING_CASE)
def test_crossing_speed_is_the_trace_oracles(case):
    """``v_cross`` is the speed interpolated from the recorded trace at the
    conflict point, bit for bit, and None exactly when the run never crossed."""
    out = simulate(*case)
    assert _bits(out.v_cross) == _bits(speed_at_conflict(out.frames))
    assert (out.v_cross is None) == (out.t_cross is None)
