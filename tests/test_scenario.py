import copy
import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.scenario import (
    ExtraVehicle,
    HorizonError,
    Light,
    ScenarioType,
    StaticPart,
    TestCase,
    WindowUndefinedError,
    collision_window,
    equivalence_mutations,
    expand,
    horizon_steps,
    scenario_to_csv,
)
from critlab.scenario import test_case_from_dict as tc_from_dict
from critlab.scenario import test_case_to_dict as tc_to_dict
from critlab.scenario import EgoState, EnvState, Scene, VehicleState

from _oracles import zone_overlap_constant_speed


@pytest.fixture
def tc(merge_static):
    return TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=15.0)


class TestExpand:
    def test_arriving_constant_speed(self, tc):
        envs = expand(tc, dt=0.1)
        assert envs[0].arriving.x == pytest.approx(30.0)
        assert envs[1].arriving.x == pytest.approx(29.0)
        assert envs[30].arriving.x == pytest.approx(0.0)
        # the arriving vehicle passes through and beyond the zone
        assert envs[40].arriving.x == pytest.approx(-10.0)

    def test_front_vehicle_static(self, tc):
        envs = expand(tc, dt=0.1)
        assert all(e.front.x == 15.0 and e.front.v == 0.0 for e in envs)

    def test_arriving_decreases_by_vl_dt(self, tc):
        envs = expand(tc, dt=0.1)
        deltas = [a.arriving.x - b.arriving.x for a, b in zip(envs, envs[1:])]
        assert all(d == pytest.approx(1.0) for d in deltas)

    def test_mutation_offsets_preserved(self, merge_static):
        tc = TestCase(
            static=merge_static, x_e=5.0, v_e=3.0, x_a=35.0, x_f=15.0,
            mutations=(ExtraVehicle("arriving", 45.0),),
        )
        envs = expand(tc, dt=0.1)
        for env in envs:
            assert env.extra_vehicles[0].x - env.arriving.x == pytest.approx(10.0)

    def test_states_of_one_run_share_what_never_moves(self, merge_static):
        """Each state is its closed form, and the front vehicle and a parked
        extra vehicle are built once for all the states of a run."""
        moving, parked = ExtraVehicle("arriving", 45.0), ExtraVehicle("static", 35.0)
        tc = TestCase(static=merge_static, x_e=5.0, v_e=3.0, x_a=35.0, x_f=15.0,
                      mutations=(moving, parked))
        envs = expand(tc, dt=0.1)
        for i, env in enumerate(envs):
            t = i * 0.1
            assert env == EnvState(VehicleState(35.0 - 10.0 * t, 10.0), VehicleState(15.0, 0.0),
                                   (ExtraVehicle("arriving", 45.0 - 10.0 * t), parked), None)
            assert env.front is envs[0].front and env.extra_vehicles[1] is parked

    def test_deterministic(self, tc):
        a = expand(tc, dt=0.1)
        b = expand(tc, dt=0.1)
        assert a == b

    def test_horizon_too_short_names_minimum(self, merge_static):
        """A case has no step size, so its horizon is checked when it runs."""
        tc = TestCase(static=merge_static, x_e=20, v_e=5, x_a=30, x_f=15, horizon=3)
        with pytest.raises(HorizonError) as err:
            tc.steps(0.1)
        assert "minimum n is 40" in str(err.value)

    @pytest.mark.parametrize("horizon", [400.0, True])
    def test_horizon_must_be_a_step_count(self, merge_static, horizon):
        """A float horizon was once accepted, and ``simulate`` then failed
        with a ``TypeError``; a boolean is no step count either."""
        with pytest.raises(ValueError, match="horizon must be a step count"):
            TestCase(static=merge_static, x_e=20, v_e=5, x_a=30, x_f=15, horizon=horizon)

    def test_expand_rechecks_horizon_for_dt(self, merge_static):
        tc = TestCase(static=merge_static, x_e=20, v_e=5, x_a=30, x_f=15, horizon=400)
        assert len(expand(tc, dt=0.1)) == 401
        with pytest.raises(HorizonError):
            expand(tc, dt=0.001)

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
    def test_expand_refuses_a_step_not_positive_and_finite(self, tc, dt):
        """An infinite step was once accepted, every state after the first
        at an arriving position of -inf, and a NaN step failed with an error
        that named no step."""
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            expand(tc, dt)

    def test_auto_horizon_sized_for_the_case_dt(self, tc):
        """A null horizon stays null and is sized at the step of each run."""
        assert tc.horizon is None
        for dt in (0.1, 0.02):
            assert tc.steps(dt) == horizon_steps(tc.static, 30, dt, slack=10.0)
            assert len(expand(tc, dt=dt)) == tc.steps(dt) + 1

    def test_explicit_horizon_checked_at_the_case_dt(self, merge_static):
        # 30 steps of 0.2 s cover the 5 s traversal, 30 steps of 0.1 s do not
        tc = TestCase(static=merge_static, x_e=20, v_e=5, x_a=40, x_f=15, horizon=30)
        assert tc.steps(0.2) == 30
        assert len(expand(tc, dt=0.2)) == 31
        with pytest.raises(HorizonError, match="too short at dt=0.1; minimum n is 50"):
            tc.steps(0.1)

    @pytest.mark.parametrize("dt, horizon", [(1e-300, None), (0.1, 2**63), (1e-300, 2**63 - 1)])
    def test_a_run_past_int64_steps_is_refused(self, merge_static, dt, horizon):
        """Such a count once came back as a Python int that ``simulate``
        looped through with no practical end; 2**63 - 1 steps is the most."""
        tc = TestCase(static=merge_static, x_e=20, v_e=5, x_a=30, x_f=15, horizon=horizon)
        with pytest.raises(HorizonError, match="int64 step count"):
            tc.steps(dt)
        assert TestCase(static=merge_static, x_e=20, v_e=5, x_a=30, x_f=15,
                        horizon=2**63 - 1).steps(0.1) == 2**63 - 1

    def test_light_schedule_sampled(self):
        static = StaticPart(
            ScenarioType.INTERSECTION_LIGHT, vl=10.0, d=5.0, light_schedule=(2.0, 3.0)
        )
        tc = TestCase(static=static, x_e=20, v_e=5, x_a=30, x_f=15)
        envs = expand(tc, dt=0.5)
        assert envs[0].light is Light.GREEN
        assert envs[4].light is Light.RED  # t=2.0 enters the red phase
        assert envs[10].light is Light.GREEN  # t=5.0 wraps around

    def test_no_light_outside_light_scenarios(self, tc):
        assert all(e.light is None for e in expand(tc, dt=0.1))


class TestMutations:
    def test_three_mutants(self, tc):
        mutants = equivalence_mutations(tc, headway=10.0)
        assert len(mutants) == 3
        kinds = [tuple(m.kind for m in mut.mutations) for mut in mutants]
        assert kinds == [("arriving",), ("static",), ("arriving", "static")]

    def test_positions(self, merge_static):
        tc = TestCase(static=merge_static, x_e=5.0, v_e=3.0, x_a=35.0, x_f=15.0)
        mutants = equivalence_mutations(tc, headway=10.0)
        assert mutants[0].mutations[0].x == 45.0
        assert mutants[1].mutations[0].x == 25.0

    def test_zero_headway_rejected(self, tc):
        with pytest.raises(ValueError):
            equivalence_mutations(tc, headway=0.0)


class TestCollisionWindow:
    def test_equal_speeds_threshold(self):
        # with d=5 and both at 10 m/s, overlap is possible iff |x_e - x_a| <= 10
        for x_e in range(5, 50, 3):
            for x_a in range(5, 50, 3):
                expected = abs(x_e - x_a) <= 10
                assert collision_window(x_e, 10.0, x_a, 10.0, 5.0) == expected

    def test_simultaneous_arrival(self):
        assert collision_window(20.0, 5.0, 40.0, 10.0, 5.0)

    def test_distinct_speeds_example(self):
        # |40/5 - 120/10| = 4 > 5/5 + 5/10 = 1.5
        assert not collision_window(40.0, 5.0, 120.0, 10.0, 5.0)

    def test_zero_speed_undefined(self):
        with pytest.raises(WindowUndefinedError):
            collision_window(10.0, 0.0, 20.0, 10.0, 5.0)

    def test_against_frame_enumeration(self):
        # disagreement is allowed only within one step (v*dt) of the boundary
        for x_e in range(6, 56, 5):
            for x_a in range(6, 56, 5):
                window = collision_window(x_e, 10.0, x_a, 10.0, 5.0)
                sim = zone_overlap_constant_speed(x_e, 10.0, x_a, 10.0, 5.0, dt=0.01)
                if abs(abs(x_e - x_a) - 10.0) > 10.0 * 0.01:
                    assert window == sim


class TestSerialization:
    def test_test_case_round_trip(self, tc):
        data = tc_to_dict(tc)
        back = tc_from_dict(json.loads(json.dumps(data)))
        assert back == tc

    def test_scenario_csv_header(self, tc):
        text = scenario_to_csv([Scene(t=0.0, ego=EgoState(-20.0, 5.0), env=expand(tc, 0.1)[0])])
        assert text.splitlines()[0] == "t,x_e,v_e,x_a,v_a,x_f,light"
        assert "-20.000000,5.000000,30.000000,10.000000,15.000000" in text.splitlines()[1]

    def test_invalid_geometry_rejected(self, merge_static):
        with pytest.raises(ValueError):
            TestCase(static=merge_static, x_e=-1.0, v_e=5.0, x_a=30.0, x_f=15.0)
        with pytest.raises(ValueError):
            TestCase(static=merge_static, x_e=20.0, v_e=-1.0, x_a=30.0, x_f=15.0)

    @pytest.mark.parametrize("field", ["x_e", "v_e", "x_a", "x_f"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_geometry_rejected(self, merge_static, field, value):
        """NaN slipped past the sign checks into horizon sizing, and an
        infinite ``x_f`` was graded a failure."""
        geometry = {"x_e": 20.0, "v_e": 5.0, "x_a": 30.0, "x_f": 15.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TestCase(static=merge_static, **geometry)

    @pytest.mark.parametrize("field, value", [
        ("d", math.nan), ("d", math.inf), ("vl", math.nan), ("vl", math.inf),
        ("light_schedule", (math.nan, 2.0)), ("light_schedule", (2.0, math.inf)),
    ], ids=["d-nan", "d-inf", "vl-nan", "vl-inf", "green-nan", "red-inf"])
    def test_non_finite_static_part_rejected(self, field, value):
        """NaN passed the sign checks: a NaN ``vl`` printed NaN boundaries, an
        infinite ``d`` overflowed in a run, and a NaN phase kept the light red."""
        static = {"vl": 10.0, "d": 5.0, "light_schedule": (2.0, 3.0), field: value}
        with pytest.raises(ValueError, match=rf"\b{field}\b.* must be positive and finite"):
            StaticPart(ScenarioType.INTERSECTION_LIGHT, **static)

    @pytest.mark.parametrize("schedule", [(2.0,), (2.0, 2.0, 2.0)])
    def test_light_schedule_is_two_phases(self, schedule):
        """Three phases once failed with ``too many values to unpack``, which
        named no field, in a test case file and a campaign config alike."""
        with pytest.raises(ValueError, match=r"light_schedule must be two phases"):
            StaticPart(ScenarioType.INTERSECTION_LIGHT, vl=10.0, light_schedule=schedule)

    @pytest.mark.parametrize("mutations", [[1], {"a": 1}, "ab", None, [{"kind": "static"}]],
                             ids=["number", "object", "string", "null", "no-x"])
    def test_mutations_are_a_list_of_vehicles(self, tc, mutations):
        """Each once failed with Python's own error (``'int' object is not
        subscriptable``, ``string indices must be integers``, ``'NoneType'
        object is not iterable``), which named no field."""
        data = {**tc_to_dict(tc), "mutations": mutations}
        with pytest.raises(ValueError, match='^test case mutations must be a list of objects '
                                             'with "kind" and "x"'):
            tc_from_dict(data)

    def test_unknown_extra_vehicle_kind_rejected(self):
        """A ``parked`` vehicle was accepted, and no pilot ever saw it."""
        with pytest.raises(ValueError, match="kind must be 'arriving' or 'static': 'parked'"):
            ExtraVehicle("parked", 3.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, 0.0, -3.0])
    def test_mutation_distance_must_be_positive_and_finite(self, merge_static, x):
        """A NaN distance was accepted, and no pilot ever saw the vehicle."""
        with pytest.raises(ValueError, match="mutation x must be positive and finite"):
            TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=30.0, x_f=15.0,
                     mutations=(ExtraVehicle("static", x),))


@settings(max_examples=40, deadline=None)
@given(
    x_a=st.floats(5.0, 80.0),
    x_f=st.floats(1.0, 50.0),
    steps=st.integers(1, 40),
)
def test_expand_serialization_stable(x_a, x_f, steps):
    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    tc = TestCase(static=static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
    envs = expand(tc, dt=0.1)
    assert len(envs) == tc.steps(0.1) + 1
    assert envs[steps].arriving.x == pytest.approx(x_a - 1.0 * steps, abs=1e-9)


_ARRIVING, _FRONT = VehicleState(30.0, 10.0), VehicleState(15.0, 0.0)


@pytest.mark.parametrize("cls, fields, change", [
    (EgoState, {"x": -20.0, "v": 5.0}, {"v": 6.0}),
    (VehicleState, {"x": 30.0, "v": 10.0}, {"x": 29.0}),
    (ExtraVehicle, {"kind": "static", "x": 35.0}, {"kind": "arriving"}),
    (EnvState, {"arriving": _ARRIVING, "front": _FRONT,
                "extra_vehicles": (ExtraVehicle("arriving", 40.0),), "light": Light.RED},
     {"light": None}),
    (Scene, {"t": 0.1, "ego": EgoState(-20.0, 5.0), "env": EnvState(_ARRIVING, _FRONT)},
     {"t": 0.2}),
], ids=["EgoState", "VehicleState", "ExtraVehicle", "EnvState", "Scene"])
def test_per_step_types_are_frozen_slotted_values(cls, fields, change):
    value = cls(**fields)
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, next(iter(fields)), None)
    twin = cls(**fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    changed = dataclasses.replace(value, **change)
    assert changed == cls(**{**fields, **change}) and changed != value
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value)

