import contextlib
import gc
import itertools
import json
import math
import shlex
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import critlab.autopilots
from _oracles import OraclePilot, reply_decision, scene_line
from external_pilot import STDERR_LAST
from critlab.autopilots import (
    FACTORIES,
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
    transition_flawed,
)
from critlab.kinematics import ADProfile
from critlab.scenario import (
    EgoState,
    ExtraVehicle,
    Scene,
    ScenarioType,
    StaticPart,
    TestCase,
    env_at,
)
from critlab.simulator import SimConfig, VerdictKind, simulate, verdict
from test_lockstep import PROFILES, _pilot, _static as _lockstep_static

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"


def _accel(pilot, tc, t=0.0, ego=None, dt=0.1):
    """The acceleration ``pilot`` commands at time ``t`` of case ``tc``,
    the ego at ``ego`` (by default the case's start)."""
    ego = ego or tc.initial_ego()
    return pilot.start_case(tc, dt)(t, ego.x, ego.v)


# From the start (20, 5) over ``merge_static``, far from braking for the zone:
# a pilot that goes for the crossing commands full throttle, and a cautious
# one holds its speed until its stop needs braking.
_THROTTLE, _HOLD = 2.0, 0.0


class TestReferenceDecision:
    def test_progress_when_both_conditions_hold(self, std_profile, merge_static):
        # boundary is (26.235, 13.125); (30, 14) clears both conditions
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        assert _accel(reference(std_profile), tc) == std_profile.a_max

    def test_cautious_when_arrival_too_close(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=20.0, x_f=14.0)
        assert _accel(reference(std_profile), tc) == _HOLD

    def test_cautious_when_front_too_close(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=10.0)
        assert _accel(reference(std_profile), tc) == _HOLD

    def test_committed_inside_zone(self, std_profile, merge_static):
        """Inside the zone, where a stop short of it would brake at
        ``b_max``, the pilot keeps the throttle while its front room
        allows."""
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        assert _accel(reference(std_profile), tc, t=2.3, ego=EgoState(-3.0, 9.5)) == _THROTTLE


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_factors_rejected(self, std_profile, value):
        """``optimism=nan`` passed the ``<= 1.0`` check and built."""
        with pytest.raises(ValueError, match="optimism must be finite"):
            transition_flawed(std_profile, optimism=value)
        with pytest.raises(ValueError, match="margin_inflation must be finite"):
            overcautious(std_profile, margin_inflation=value)
        with pytest.raises(ValueError, match="optimism must be finite"):
            AutopilotSpec(name="x", profile=std_profile, optimism=value)

    def test_rate_lookup_uses_nearest_key(self):
        from critlab.kinematics import ADProfile

        p30 = ADProfile(2.0, 5.0, 30.0)
        spec = non_determinate_brake(p30, {30.0: 5.0, 27.5: 3.0})
        assert spec.brake_rate_for(30.0) == 5.0
        assert spec.brake_rate_for(27.5) == 3.0
        assert spec.brake_rate_for(26.0) == 3.0
        assert spec.brake_rate_for(29.0) == 5.0

    def test_transition_flawed_progresses_too_early(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=24.0, x_f=14.0)
        assert _accel(reference(std_profile), tc) == _HOLD
        assert _accel(transition_flawed(std_profile, 1.3), tc) == _THROTTLE

    def test_overcautious_requires_extra_margin(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        assert _accel(overcautious(std_profile, 1.4), tc) == _HOLD

    def test_irrational_fails_only_inside_region(self, std_profile, merge_static):
        pilot = irrational(std_profile, ((29.0, 33.0), (15.0, 20.0)))
        inside = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=16.0)
        outside = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=36.0, x_f=16.0)
        assert verdict(simulate(pilot, inside, SimConfig())).kind is VerdictKind.FAIL
        assert verdict(simulate(pilot, outside, SimConfig())).passed


def _ego_trace(spec, tc, dt=0.1):
    """The ego states ``simulate`` records for ``spec`` on ``tc``, one per
    frame, with the run's step count."""
    out = simulate(spec, tc, SimConfig(dt=dt))
    return [f.ego for f in out.frames], out.steps


class TestRunPolicy:
    """A policy run in closed loop, read from the trace ``simulate`` records."""

    def test_length_and_kinematic_consistency(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        states, steps = _ego_trace(reference(std_profile), tc, dt=0.1)
        assert len(states) == steps + 1
        max_rate = max(std_profile.a_max, std_profile.b_max)
        for s0, s1 in zip(states, states[1:]):
            assert abs(s1.v - s0.v) <= max_rate * 0.1 + 1e-9
            assert s1.x - s0.x == pytest.approx(0.5 * (s0.v + s1.v) * 0.1, abs=1e-9)

    def test_reproducible(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        a = _ego_trace(reference(std_profile), tc)
        b = _ego_trace(reference(std_profile), tc)
        assert a == b

    def test_always_cautious_never_crosses(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        states, _ = _ego_trace(always_cautious(std_profile), tc)
        assert all(s.x < 0 for s in states)

    def test_constant_speed_holds(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=100.0)
        states, _ = _ego_trace(constant_speed(std_profile), tc)
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

    profile = ADProfile(2.0, 4.0, 15.0)
    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    pilots = {
        "reference": reference(profile),
        "transition_flawed": transition_flawed(profile, 1.3),
        "overcautious": overcautious(profile, 1.4),
        "always_cautious": always_cautious(profile),
    }
    tc = TestCase(static=static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
    accel = _accel(pilots[variant], tc, ego=EgoState(p, v))
    assert math.isfinite(accel)
    assert abs(accel) <= max(profile.a_max, profile.b_max) + 1e-9


_MERGE = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
_POSITION = st.floats(1.0, 80.0)


_EGO_START = st.tuples(_POSITION, st.floats(0.0, 15.0))  # (x_e, v_e)


@st.composite
def _start(draw):
    """A case over ``_MERGE``: an ego start, a geometry and up to two extra
    vehicles."""
    extras = draw(st.lists(st.builds(ExtraVehicle, st.sampled_from(["arriving", "static"]),
                                     _POSITION), max_size=2))
    x_e, v_e = draw(_EGO_START)
    return TestCase(static=_MERGE, x_e=x_e, v_e=v_e, x_a=draw(_POSITION), x_f=draw(_POSITION),
                    mutations=tuple(extras))


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(
        ["reference", "transition_flawed", "overcautious", "always_cautious", "constant_speed"]
    ),
    t=st.floats(0.0, 5.0),
    p=st.floats(-60.0, 30.0),
    v=st.floats(0.0, 15.0),
    run=_start(),
    starts=st.tuples(_EGO_START, _EGO_START),
)
def test_determinate_variants_ignore_the_start(variant, t, p, v, run, starts):
    """A determinate pilot decides a state of a case alike from any two ego
    starts, and as from the case's own."""
    pilot = FACTORIES[variant](ADProfile(2.0, 4.0, 15.0))
    accel = _accel(pilot, run, t, EgoState(p, v))
    assert [_accel(pilot, replace(run, x_e=x_e, v_e=v_e), t, EgoState(p, v))
            for x_e, v_e in starts] == [accel, accel]


@st.composite
def _policy_calls(draw):
    """A pilot of any variant, its parameters drawn as the lockstep
    properties draw them, on the default profile, ``FAST`` or a drawn one;
    a scene at a drawn time of a run with 0-2 arriving or parked extra
    vehicles, the ego's state drawn; the run's start; a static part and a
    step.  An irrational pilot's fail region has its ends at or 2 m either
    side of the start's nearest arriving and front vehicles."""
    profile = draw(PROFILES)
    static = _lockstep_static(draw)
    # Nearer than most drawn geometries, so that they often decide.
    extras = draw(st.lists(st.builds(ExtraVehicle, st.sampled_from(["arriving", "static"]),
                                     st.floats(1.0, 30.0)), max_size=2))
    tc = TestCase(static=static, x_e=draw(_POSITION), v_e=draw(st.floats(0.0, profile.v_max)),
                  x_a=draw(_POSITION), x_f=draw(_POSITION), mutations=tuple(extras))
    a = min([tc.x_a] + [e.x for e in extras if e.kind == "arriving"])
    f = min([tc.x_f] + [e.x for e in extras if e.kind == "static"])
    spec = _pilot(draw, draw(st.sampled_from(sorted(FACTORIES))), profile,
                  [a - 2.0, a, a + 2.0], [f - 2.0, f, f + 2.0])
    state = (draw(st.floats(0.0, 5.0)), draw(st.floats(-60.0, 30.0)),
             draw(st.floats(0.0, profile.v_max)))
    return spec, tc, state, draw(st.sampled_from([0.1, 0.05]))


def _first_call(*extras):
    """A reference pilot's first step from the start (20, 5) at the geometry
    (30, 14) over ``_MERGE``, with ``extras``: without them, full throttle."""
    tc = TestCase(static=_MERGE, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0, mutations=extras)
    return reference(ADProfile(2.0, 4.0, 15.0)), tc, (0.0, -20.0, 5.0), 0.1


@settings(max_examples=300, deadline=None)
@given(_policy_calls())
@example(_first_call(ExtraVehicle("static", 5.0)))  # cautious: parked in front
@example(_first_call(ExtraVehicle("arriving", 20.0)))  # cautious: arrives too soon
def test_one_cell_policy_equals_the_scalar_oracle(call):
    """A built-in pilot's decision function, the array policy on one cell,
    decides a state of its case as the scalar policy does on its scene, bit
    for bit."""
    spec, tc, state, dt = call
    got = spec.start_case(tc, dt)(*state)
    assert got.hex() == OraclePilot(spec).start_case(tc, dt)(*state).hex()


def test_a_start_above_v_max_is_refused(std_profile, merge_static):
    tc = TestCase(static=merge_static, x_e=20.0, v_e=15.000000000001, x_a=30.0, x_f=14.0)
    for variant in sorted(FACTORIES):
        spec = FACTORIES[variant](std_profile)
        with pytest.raises(ValueError, match="start speed 15.000000000001 above the v_max 15.0"):
            spec.start_case(tc, 0.1)


@pytest.mark.parametrize("external", [False, True], ids=["built-in", "external"])
def test_a_wrapper_on_the_step_attribute_sees_every_step(external, monkeypatch):
    """``start_case`` looks ``step`` up when the case starts, so a wrapper
    put on the class attribute, as the benchmark's tracer puts one, is
    called once for each step ``simulate`` takes."""
    profile = ADProfile(2.0, 4.0, 15.0)
    pilot = ExternalAutopilot(f"{EXTERNAL} cautious", profile) if external else reference(profile)
    calls = []

    def counting(self, *args, real=type(pilot).step):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(type(pilot), "step", counting)
    tc = TestCase(static=_MERGE, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
    with contextlib.closing(pilot) if external else contextlib.nullcontext():
        out = simulate(pilot, tc, SimConfig())
    assert len(calls) == out.steps > 0


class TestNonDeterminateVariants:
    def test_brake_rate_follows_the_start_speed(self, merge_static):
        """Braked from 30 to 27.5 m/s, the pilot still brakes at the rate
        for 30 m/s, where a run started at 27.5 m/s brakes at its own."""
        spec = non_determinate_brake(ADProfile(2.0, 5.0, 30.0), {30.0: 5.0, 27.5: 3.0})
        tc = TestCase(static=merge_static, x_e=60.0, v_e=30.0, x_a=20.0, x_f=14.0)
        ego = EgoState(-45.0, 27.5)
        assert _accel(spec, tc, t=0.5, ego=ego) == -5.0
        # The same state as the start of a run: the arriving vehicle 5 m on.
        assert _accel(spec, replace(tc, x_e=45.0, v_e=27.5, x_a=15.0), ego=ego) == -3.0

    def test_brake_restart_stops_much_later(self):
        from critlab.kinematics import ADProfile
        from _oracles import brake_trace_stop

        p30 = ADProfile(2.0, 5.0, 30.0)
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


def _first_step(pilot, tc, dt=0.1):
    """Begin case ``tc`` and send its start: the acceleration commanded."""
    pilot.start_case(tc, dt)
    return pilot.step(0.0, -tc.x_e, tc.v_e)


class TestExternalAutopilot:
    def test_hold_policy_round_trip(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=100.0)
        with ExternalAutopilot(EXTERNAL + " hold", std_profile) as pilot:
            assert _first_step(pilot, tc) == 0.0

    def test_cautious_policy_simulates(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " cautious", std_profile) as pilot:
            out = simulate(pilot, tc, SimConfig())
        assert verdict(out).kind is VerdictKind.CAUTIOUS_PASS

    def test_reply_in_two_writes_runs_as_one_in_one(self, std_profile, merge_static):
        """A pilot that writes each reply in two parts, a few ms apart, is
        read to the end of each line: its run is the one-write pilot's."""
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        outs = []
        for mode in ("cautious", "split"):
            with ExternalAutopilot(f"{EXTERNAL} {mode}", std_profile) as pilot:
                outs.append(simulate(pilot, tc, SimConfig()))
        whole, split = outs
        assert whole.steps > 10
        assert (split.events, split.final, split.steps) == (whole.events, whole.final, whole.steps)

    def test_protocol_violation_raises(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " garbage", std_profile) as pilot:
            with pytest.raises(ProtocolError):
                simulate(pilot, tc, SimConfig())

    def test_protocol_error_stops_the_pilot(self, std_profile, merge_static):
        """A pilot that broke the protocol was once kept running, and the
        reply it had left in the pipe answered the next case's first scene:
        every later scene got the answer to the scene before it."""
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " stray 3", std_profile) as pilot:
            pilot.start_case(tc, 0.1)
            for t in (0.0, 0.1):
                assert pilot.step(t, -20.0, 5.0) == t
            with pytest.raises(ProtocolError, match="malformed decision line"):
                pilot.step(0.2, -20.0, 5.0)
            assert pilot._proc is None
            with pytest.raises(ProtocolError, match="no case started"):
                pilot.step(0.3, -20.0, 5.0)
            pilot.start_case(tc, 0.1)  # a fresh case, and a fresh process
            for t in (0.0, 0.1):
                assert pilot.step(t, -20.0, 5.0) == t

    @pytest.mark.parametrize("line", [
        '{"mode": "progress", "accel": 1' + "0" * 400 + "}",  # an int beyond any float
        "[" * 5000,  # nested deeper than the decoder recurses
    ], ids=["huge-int-accel", "deep-nesting"])
    def test_unreadable_reply_stops_the_pilot(self, std_profile, merge_static, line):
        """Both lines once escaped the bridge as ``OverflowError`` or
        ``RecursionError``, not a ``ProtocolError``, with the pilot still
        running: a campaign stopped at the first one."""
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(f"{EXTERNAL} reply {shlex.quote(line)}", std_profile) as pilot:
            with pytest.raises(ProtocolError, match="malformed decision line"):
                _first_step(pilot, tc)
            assert pilot._proc is None

    def test_stalled_pilot_misses_its_deadline(
        self, std_profile, merge_static, monkeypatch, hang_guard
    ):
        monkeypatch.setattr(critlab.autopilots, "STEP_DEADLINE_S", 0.3, raising=False)
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " sleep", std_profile) as pilot, hang_guard(5.0):
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="missed its deadline"):
                _first_step(pilot, tc)
            assert time.monotonic() - start < 0.3 + 2.0
            assert pilot._proc is None  # killed: the next case starts a fresh one

    def test_flooding_pilot_is_refused_promptly(
        self, std_profile, merge_static, monkeypatch, hang_guard
    ):
        """A pilot that wrote megabytes without a newline held its step for
        as long as it wrote, the bridge buffering and rescanning it all."""
        monkeypatch.setattr(critlab.autopilots, "STEP_DEADLINE_S", 0.3, raising=False)
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " flood", std_profile) as pilot, hang_guard(5.0):
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="reply line exceeds 65536 bytes"):
                _first_step(pilot, tc)
            assert time.monotonic() - start < 0.3 + 2.0
            assert pilot._proc is None  # stopped: the next case starts a fresh one

    def test_pilot_that_stops_reading_misses_its_deadline(
        self, std_profile, merge_static, monkeypatch, hang_guard
    ):
        # It answers every scene, but once the scenes fill the pipe, a write blocks.
        monkeypatch.setattr(critlab.autopilots, "STEP_DEADLINE_S", 0.3, raising=False)
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with hang_guard(5.0), ExternalAutopilot(EXTERNAL + " deaf", std_profile) as pilot:
            pilot.start_case(tc, 0.1)
            with pytest.raises(ProtocolError, match="missed its deadline"):
                for _ in range(10_000):  # 2.5 MB of scenes
                    pilot.step(0.0, -20.0, 5.0)

    def test_chatty_stderr_neither_deadlocks_nor_loses_its_tail(
        self, std_profile, merge_static, hang_guard
    ):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with ExternalAutopilot(EXTERNAL + " stderr", std_profile) as pilot, hang_guard(10.0):
            with pytest.raises(ProtocolError, match="malformed decision line") as info:
                _first_step(pilot, tc)
        detail = str(info.value)
        assert STDERR_LAST in detail
        assert "chatter 001999" in detail and "chatter 000000" not in detail
        assert len(detail) < critlab.autopilots.STDERR_TAIL_BYTES + 200

    def test_close_and_restart_leave_nothing_open(self, std_profile, merge_static):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=14.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            pilot = ExternalAutopilot(EXTERNAL + " hold", std_profile)
            _first_step(pilot, tc)
            first = pilot._proc
            first.kill()  # dies between two cases
            first.wait()
            _first_step(pilot, tc)  # the next case starts a fresh process
            assert pilot._proc is not first
            pilot.close()
            del pilot, first
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# -- the stand-in bridge ------------------------------------------------------------


class _Replies(ExternalAutopilot):
    """The bridge with its pipe replaced: each scene line sent is kept in
    ``sent`` and answered with the next of ``lines``, and the stand-in
    process never ends on its own."""

    def __init__(self, lines, profile=None):
        super().__init__("unused", profile)
        self._lines = iter(lines)
        self.starts = 0
        self.sent = []

    def _start(self):
        self._proc, self._stderr_open, self._stderr = self, False, b""
        self.starts += 1

    def poll(self):
        return None

    def _stop(self):
        self._proc = None

    def _round_trip(self, line, deadline):
        self.sent.append(line)
        return next(self._lines)


# -- the wire format against the json.dumps oracle ----------------------------------


def _twins(x):
    """Equal numbers that ``json.dumps`` may write differently: ``x`` as an
    int (if it is a whole number), a float and a numpy float."""
    return ([int(x)] if float(x).is_integer() else []) + [float(x), np.float64(x)]


def _twin_of(numbers):
    return numbers.flatmap(lambda x: st.sampled_from(_twins(x)))


_REPLY_LINES = [
    b'{"mode": "progress", "accel": 2.0}\n',
    b'{"mode": "progress", "accel": 0}\n',
    b'{"mode": "cautious", "accel": -4.0}\n',
    b'{"mode": "cautious", "accel": -1.5}\n',
]
_DISTANCE = st.one_of(st.integers(1, 80), st.floats(1.0, 80.0))


@st.composite
def _wire_case(draw):
    """A case for the stand-in bridge to run, its step ``dt`` and the
    replies it cycles through.  The static part is of any type, with a
    light schedule that has red phases or none; ``vl``, ``d`` and ``dt``
    are each an int, a float or a numpy float; extra vehicles arrive or are
    parked."""
    schedule = draw(st.sampled_from([None, (2.0, 2.0), (1, 3), (0.5, 1.5)]))
    static = StaticPart(draw(st.sampled_from(list(ScenarioType))),
                        vl=draw(_twin_of(st.sampled_from([10, 8.5, 12]))),
                        d=draw(_twin_of(st.sampled_from([5, 4.5]))), light_schedule=schedule)
    extras = draw(st.lists(st.builds(ExtraVehicle, st.sampled_from(["arriving", "static"]),
                                     _DISTANCE), max_size=3))
    tc = TestCase(static, x_e=draw(_twin_of(_DISTANCE)), v_e=draw(st.floats(0.0, 15.0)),
                  x_a=draw(_DISTANCE), x_f=draw(_DISTANCE), mutations=tuple(extras))
    dt = draw(_twin_of(st.sampled_from([0.1, 0.05, 0.25, 1])))
    return tc, dt, draw(st.lists(st.sampled_from(_REPLY_LINES), min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(_wire_case())
def test_scene_lines_match_the_json_oracle(case):
    """``simulate`` sends an external pilot one line per step: ``json.dumps``
    of the frame its trace records for that step."""
    tc, dt, replies = case
    pilot = _Replies(itertools.cycle(replies), ADProfile(2.0, 4.0, 15.0))
    out = simulate(pilot, tc, SimConfig(dt=dt))
    assert len(pilot.sent) == out.steps
    for k, line in enumerate(pilot.sent):
        assert line == scene_line(out.frames[k], tc.static, dt)


_COORD = st.one_of(
    st.floats(),
    st.integers(-10**6, 10**6),
    st.floats(width=32).map(float),
    st.floats().map(np.float64),
)
_SPEED = st.one_of(
    st.floats(min_value=0.0), st.integers(0, 100), st.floats(0.0, 50.0).map(np.float64)
)


@settings(max_examples=200, deadline=None)
@given(case=_wire_case(), steps=st.lists(st.tuples(_COORD, _COORD, _SPEED), min_size=1,
                                         max_size=4))
def test_any_numbers_render_as_json_does(case, steps):
    """A step's numbers of any type and value, non-finite ones and ``-0.0``
    included, are written as ``json.dumps`` writes them in the scene."""
    tc, dt, replies = case
    pilot = _Replies(itertools.cycle(replies))
    pilot.start_case(tc, dt)
    for t, x, v in steps:
        with np.errstate(over="ignore", invalid="ignore"):  # numpy floats may overflow
            pilot.step(t, x, v)
            scene = Scene(t, EgoState(x, v), env_at(tc, t))
        assert pilot.sent[-1] == scene_line(scene, tc.static, dt)


class _Recorder:
    """A Python-object pilot, as README describes one: a built-in variant's
    decisions, keeping every case it starts and every ``(t, x, v)`` it is
    asked to decide."""

    def __init__(self, spec):
        self.spec, self.profile = spec, spec.profile
        self.cases, self.seen = [], []

    def start_case(self, tc, dt):
        self.cases.append((tc, dt))
        decide = self.spec.start_case(tc, dt)

        def record(t, x, v):
            self.seen.append((t, x, v))
            return decide(t, x, v)

        return record


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(sorted(FACTORIES)), tc=_start(),
       dt=st.sampled_from([0.1, 0.05]))
def test_a_python_pilot_is_given_the_trace(variant, tc, dt):
    """A Python-object pilot begins the case once, and each step hands its
    decision function the time and state the trace records."""
    pilot = _Recorder(FACTORIES[variant](ADProfile(2.0, 4.0, 15.0)))
    out = simulate(pilot, tc, SimConfig(dt=dt))
    assert pilot.cases == [(out.tc, dt)]
    assert pilot.seen == [(k * dt, x, v) for k, (x, v) in enumerate(out.states[:out.steps])]


# -- reply lines against the json.loads oracle -------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def _reply_line(draw):
    """A reply line as a pilot might write it: a JSON object with or without
    its ``mode`` and ``accel`` (a good or bad mode; an int or a float accel,
    NaN and Infinity included) and extra keys, in any order and spacing; or
    bytes that are most likely no JSON at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40).filter(lambda b: b"\n" not in b)) + b"\n"
    extra_key = st.text(max_size=5).filter(lambda key: key not in ("mode", "accel"))
    reply = draw(st.dictionaries(extra_key, _JSON, max_size=3))
    if draw(st.booleans()):
        reply["mode"] = draw(st.sampled_from(["progress", "cautious"]))
    elif draw(st.booleans()):
        reply["mode"] = draw(_JSON)
    if draw(st.integers(0, 5)):
        reply["accel"] = draw(st.one_of(st.integers(), st.floats(), st.integers(2**1020, 2**1030)))
    items = draw(st.permutations(list(reply.items())))
    comma = draw(st.sampled_from([",", ", ", " ,\t"]))
    colon = draw(st.sampled_from([":", ": ", " : "]))
    pad = st.sampled_from(["", " ", "\t ", "\r"])
    text = draw(pad) + json.dumps(dict(items), separators=(comma, colon)) + draw(pad)
    return (text + draw(st.sampled_from(["\n", ""]))).encode()


_CASE = TestCase(StaticPart(ScenarioType.MERGE_YIELD, d=5.0, vl=10.0), x_e=20.0, v_e=5.0,
                 x_a=30.0, x_f=14.0)


@settings(max_examples=300, deadline=None)
@given(_reply_line())
def test_reply_lines_match_the_json_oracle(raw):
    """``step`` reads each line twice: a valid line gives the oracle's
    acceleration both times, and an invalid one stops the pilot both times."""
    expected = reply_decision(raw)
    pilot = _Replies([raw, raw])
    for _ in range(2):
        pilot.start_case(_CASE, 0.1)
        if expected is None:
            with pytest.raises(ProtocolError, match="malformed decision line|invalid decision"):
                pilot.step(0.1, -19.5, 5.0)
            assert pilot._proc is None
        else:
            assert repr(pilot.step(0.1, -19.5, 5.0)) == repr(expected[1])
    assert pilot.starts == (2 if expected is None else 1)


@pytest.mark.parametrize("negative_first", [False, True])
def test_number_texts_keep_the_sign_of_zero(negative_first):
    """``0.0`` and ``-0.0`` are one key but two texts: one pilot writes
    each as ``json.dumps`` does, after the other, as ``t``, ``x``, ``v`` and
    the arriving vehicle's position, which is ``0.0`` at ``x_a / vl``."""
    first, second = (-0.0, 0.0) if negative_first else (0.0, -0.0)
    arriving_zero = [(_CASE.x_a / _CASE.static.vl, -20.0, 5.0)]
    negative_x = [(1.0, -0.0, 5.0)]
    steps = [(first, -20.0, 5.0), (second, -20.0, 5.0), (1.0, first, 5.0), (1.0, second, 5.0),
             (1.0, -20.0, first), (1.0, -20.0, second)]
    steps += negative_x + arriving_zero if negative_first else arriving_zero + negative_x
    pilot = _Replies(itertools.repeat(_REPLY_LINES[0]))
    pilot.start_case(_CASE, 0.1)
    for t, x, v in steps:
        pilot.step(t, x, v)
        assert pilot.sent[-1] == scene_line(Scene(t, EgoState(x, v), env_at(_CASE, t)),
                                            _CASE.static, 0.1)
    assert b'"arriving": {"x": 0.0,' in pilot.sent[-1 if negative_first else -2]


def test_number_texts_stay_within_their_bound():
    """The memo of number texts is cleared when full, and writes on."""
    pilot = _Replies(itertools.repeat(_REPLY_LINES[0]))
    pilot.start_case(_CASE, 0.1)
    sizes = []
    for k in range(1, 3001):  # four new numbers a step
        t, x, v = k * 0.1, -20.0 + k * 1e-3, 5.0 + k * 1e-4
        pilot.step(t, x, v)
        sizes.append(len(pilot._texts))
    bound = critlab.autopilots._TEXTS_MAX
    assert bound - 4 < max(sizes) <= bound  # filled, and never past the bound
    assert sizes[-1] < max(sizes)  # then cleared
    assert pilot.sent[-1] == scene_line(Scene(t, EgoState(x, v), env_at(_CASE, t)),
                                        _CASE.static, 0.1)


@pytest.mark.parametrize("accel", ['"1.5"', '" -4 "', "true", "false"])
def test_reply_accel_must_be_a_number(accel):
    """README gives ``accel`` as a finite number, the oracle's rule, which
    ``_reply_line`` keeps to by drawing only numbers; ``step`` once read a
    numeric string or a boolean through ``float()``."""
    raw = ('{"mode": "progress", "accel": %s}\n' % accel).encode()
    assert reply_decision(raw) is None
    pilot = _Replies([raw])
    pilot.start_case(_CASE, 0.1)
    with pytest.raises(ProtocolError, match="malformed decision line|invalid decision"):
        pilot.step(0.1, -19.5, 5.0)


def test_a_case_renders_its_template_once(monkeypatch, std_profile, merge_static):
    """Each case renders the numbers that stay put, ``dt``, the arriving
    vehicle's speed and the front vehicle's ``x``, once, when it starts;
    ``simulate`` steps on floats, so no step goes through ``_number``."""
    rendered = []
    number = critlab.autopilots._number
    monkeypatch.setattr(critlab.autopilots, "_number", lambda x: rendered.append(x) or number(x))
    pilot = _Replies(itertools.repeat(b'{"mode": "cautious", "accel": -4.0}\n'), std_profile)
    steps = [simulate(pilot, TestCase(merge_static, 20.0, 5.0, x_a, x_f), SimConfig()).steps
             for x_a, x_f in ((30.0, 14.0), (31.0, 15.0))]
    assert min(steps) > 10
    assert rendered == [0.1, 10.0, 14.0, 0.1, 10.0, 15.0]
