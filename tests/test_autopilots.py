import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.autopilots import (
    AutopilotSpec,
    ExternalAutopilot,
    ProtocolError,
    always_cautious,
    constant_speed,
    irrational,
    non_determinate_accel,
    non_determinate_brake,
    overcautious,
    reference,
    run_policy,
    step,
    transition_flawed,
)
from critlab.scenario import EgoState, Scene, TestCase, env_at
from critlab.simulator import SimConfig, VerdictKind, simulate, verdict

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"


def _scene(tc, t=0.0, ego=None):
    return Scene(t=t, ego=ego or tc.initial_ego(), env=env_at(tc, t))


class TestReferenceDecision:
    def test_progress_when_both_conditions_hold(self, std_profile, merge_static):
        # boundary is (26.235, 13.125); (30, 14) clears both conditions
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        decision, memory = step(reference(std_profile), _scene(tc), merge_static)
        assert decision.mode == "progress"
        assert decision.accel == pytest.approx(std_profile.a_max)
        assert memory == {}

    def test_cautious_when_arrival_too_close(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=20.0, x_f=14.0)
        decision, _ = step(reference(std_profile), _scene(tc), merge_static)
        assert decision.mode == "cautious"

    def test_cautious_when_front_too_close(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=10.0)
        decision, _ = step(reference(std_profile), _scene(tc), merge_static)
        assert decision.mode == "cautious"

    def test_memory_stays_empty(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        memory = {}
        for t in (0.0, 0.5, 1.0):
            _, memory = step(reference(std_profile), _scene(tc, t), merge_static, memory)
        assert memory == {}

    def test_committed_inside_zone(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        scene = _scene(tc, t=2.3, ego=EgoState(-3.0, 9.5))
        decision, _ = step(reference(std_profile), scene, merge_static)
        assert decision.mode == "progress"


class TestVariants:
    def test_spec_validation(self, std_profile):
        with pytest.raises(ValueError):
            AutopilotSpec(name="x", profile=std_profile, variant="nope")
        with pytest.raises(ValueError):
            transition_flawed(std_profile, optimism=1.0)
        with pytest.raises(ValueError):
            overcautious(std_profile, margin_inflation=0.9)
        with pytest.raises(ValueError):
            AutopilotSpec(name="x", profile=std_profile, variant="irrational")
        with pytest.raises(ValueError):
            non_determinate_brake(std_profile, {10.0: 99.0})  # above max(a, b)

    def test_rate_lookup_uses_nearest_key(self):
        from critlab.kinematics import ADProfile

        p30 = ADProfile.constant(2.0, 5.0, 30.0)
        spec = non_determinate_brake(p30, {30.0: 5.0, 27.5: 3.0})
        assert spec.brake_rate_for(30.0) == 5.0
        assert spec.brake_rate_for(27.5) == 3.0
        assert spec.brake_rate_for(26.0) == 3.0
        assert spec.brake_rate_for(29.0) == 5.0

    def test_transition_flawed_progresses_too_early(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=24.0, x_f=14.0)
        ref_decision, _ = step(reference(std_profile), _scene(tc), merge_static)
        flawed_decision, _ = step(
            transition_flawed(std_profile, 1.3), _scene(tc), merge_static
        )
        assert ref_decision.mode == "cautious"
        assert flawed_decision.mode == "progress"

    def test_overcautious_requires_extra_margin(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        decision, _ = step(overcautious(std_profile, 1.4), _scene(tc), merge_static)
        assert decision.mode == "cautious"

    def test_irrational_fails_only_inside_region(self, std_profile, merge_static):
        pilot = irrational(std_profile, ((29.0, 33.0), (15.0, 20.0)))
        inside = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=16.0)
        outside = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=36.0, x_f=16.0)
        assert verdict(simulate(pilot, inside, SimConfig())).kind is VerdictKind.FAIL
        assert verdict(simulate(pilot, outside, SimConfig())).passed


class TestRunPolicy:
    def test_length_and_kinematic_consistency(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        states = run_policy(reference(std_profile), tc, dt=0.1)
        assert len(states) == tc.horizon + 1
        max_rate = max(std_profile.a_max, std_profile.b_max)
        for s0, s1 in zip(states, states[1:]):
            assert abs(s1.v - s0.v) <= max_rate * 0.1 + 1e-9
            assert s1.x - s0.x == pytest.approx(0.5 * (s0.v + s1.v) * 0.1, abs=1e-9)

    @pytest.mark.parametrize("x_a, x_f", [(30.0, 14.0), (22.0, 14.0), (30.0, 9.0)])
    def test_matches_the_simulator_trace(self, std_profile, merge_static, x_a, x_f):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
        for spec in (reference(std_profile), transition_flawed(std_profile)):
            frames = simulate(spec, tc, SimConfig(), record=True).scenario.frames
            assert run_policy(spec, tc)[:len(frames)] == [f.ego for f in frames]

    def test_reproducible(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        a = run_policy(reference(std_profile), tc)
        b = run_policy(reference(std_profile), tc)
        assert a == b

    def test_always_cautious_never_crosses(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        states = run_policy(always_cautious(std_profile), tc)
        assert all(s.x < 0 for s in states)

    def test_constant_speed_holds(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=100.0)
        states = run_policy(constant_speed(std_profile), tc)
        assert all(s.v == 5.0 for s in states)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(-60.0, 30.0),
    v=st.floats(0.0, 15.0),
    x_a=st.floats(1.0, 80.0),
    x_f=st.floats(1.0, 60.0),
    variant=st.sampled_from(
        ["reference", "transition_flawed", "overcautious", "always_cautious"]
    ),
)
def test_decisions_are_total_and_bounded(p, v, x_a, x_f, variant):
    from critlab.kinematics import ADProfile
    from critlab.scenario import ScenarioType, StaticPart

    profile = ADProfile.constant(2.0, 4.0, 15.0)
    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    pilots = {
        "reference": reference(profile),
        "transition_flawed": transition_flawed(profile, 1.3),
        "overcautious": overcautious(profile, 1.4),
        "always_cautious": always_cautious(profile),
    }
    tc = TestCase(static=static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
    scene = Scene(t=0.0, ego=EgoState(p, v), env=env_at(tc, 0.0))
    decision, _ = step(pilots[variant], scene, static)
    assert math.isfinite(decision.accel)
    assert abs(decision.accel) <= max(profile.a_max, profile.b_max) + 1e-9
    assert decision.mode in ("progress", "cautious")


class TestNonDeterminateVariants:
    def test_brake_restart_stops_much_later(self):
        from critlab.kinematics import ADProfile
        from _oracles import brake_trace_stop

        p30 = ADProfile.constant(2.0, 5.0, 30.0)
        spec = non_determinate_brake(p30, {30.0: 5.0, 27.5: 3.0})
        full = brake_trace_stop(30.0, spec.brake_rate_for(30.0))
        # the full curve passes 27.5 m/s at 14.375 m travelled
        rest_of_full = full - 14.375
        restart = brake_trace_stop(27.5, spec.brake_rate_for(27.5))
        assert restart - rest_of_full >= 20.0

    def test_accel_restart_uses_flawed_rate(self, restart_geometry):
        profile, static, a_nominal, _ = restart_geometry
        spec = non_determinate_accel(profile, {5.0: a_nominal, 6.3: 1.0})
        assert spec.accel_rate_for(5.0) == pytest.approx(a_nominal)
        assert spec.accel_rate_for(6.3) == 1.0


class TestExternalAutopilot:
    def test_hold_policy_round_trip(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=100.0)
        with ExternalAutopilot(EXTERNAL + " hold", std_profile) as pilot:
            decision, _ = pilot.step(_scene(tc), merge_static, {}, 0.1)
            assert decision.accel == 0.0

    def test_cautious_policy_simulates(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " cautious", std_profile) as pilot:
            out = simulate(pilot, tc, SimConfig())
        assert verdict(out).kind is VerdictKind.CAUTIOUS_PASS

    def test_protocol_violation_raises(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " garbage", std_profile) as pilot:
            with pytest.raises(ProtocolError):
                simulate(pilot, tc, SimConfig())
