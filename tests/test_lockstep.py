"""The lockstep grid engine against the scalar reference ``simulate``."""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import critlab.classify
from critlab.autopilots import (
    FACTORIES,
    ExternalAutopilot,
    always_cautious,
    non_monotone_brake_profile,
    reference,
)
from critlab.classify import run_grid
from critlab.kinematics import ADProfile
from critlab.scenario import ScenarioType, StaticPart, TestCase, equivalence_mutations
from critlab.simulator import SimConfig, simulate, simulate_lockstep, verdict

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"
STD = ADProfile.constant(2.0, 4.0, 15.0)
MERGE = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)


def _distances(lo, hi):
    """Distances in ``[lo, hi]``, half of them on a 0.25 m lattice, where
    event times and boundaries tie as they do on campaign grids."""
    return st.floats(lo, hi) | st.integers(int(4 * lo) + 1, int(4 * hi)).map(lambda k: k / 4)


def _bounds(draw, values):
    """An inclusive interval with its ends at two of ``values``."""
    return tuple(sorted((draw(st.sampled_from(values)), draw(st.sampled_from(values)))))


@st.composite
def grids(draw, variant):
    """A ``variant`` pilot, a static part, a start, unsorted axes and a run config."""
    profile = ADProfile.constant(
        draw(st.floats(0.5, 5.0)), draw(st.floats(1.0, 10.0)), draw(st.floats(5.0, 40.0))
    )
    scenario_type = draw(st.sampled_from(list(ScenarioType)))
    schedule = draw(st.none() | st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)))
    static = StaticPart(scenario_type, vl=draw(st.floats(5.0, 20.0)),
                        d=draw(st.floats(1.0, 8.0)), light_schedule=schedule)
    x_e = draw(_distances(1.0, 80.0))
    v_e = draw(st.floats(0.0, profile.v_max))
    x_as = draw(st.lists(_distances(1.0, 80.0), min_size=1, max_size=3))
    x_fs = draw(st.lists(_distances(0.5, 60.0), min_size=1, max_size=3))
    cfg = SimConfig(dt=draw(st.sampled_from([0.1, 0.05, 0.02])),
                    zone_epsilon=draw(st.floats(0.0, 0.5)))
    params = {}
    if variant == "transition_flawed":
        params["optimism"] = draw(st.floats(1.01, 3.0))
    elif variant == "overcautious":
        params["margin_inflation"] = draw(st.floats(1.01, 3.0))
    elif variant == "irrational":
        params["fail_region"] = (_bounds(draw, x_as), _bounds(draw, x_fs))
    elif variant.startswith("non_determinate"):
        limit = max(profile.a_max, profile.b_max)
        params["rates"] = draw(st.dictionaries(
            st.floats(0.0, profile.v_max), st.floats(0.1, limit), min_size=1, max_size=3))
    pilot = FACTORIES[variant](profile, **params)
    return pilot, static, x_e, v_e, x_as, x_fs, cfg


def _observed(out):
    vd = verdict(out)
    return ([(e.kind, e.t) for e in out.events], out.final, out.steps, out.t_cross,
            out.t_arrive, out.race_won, vd.kind, vd.reason)


def _check_every_cell(grid):
    pilot, static, x_e, v_e, x_as, x_fs, cfg = grid
    cases = [TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f, dt=cfg.dt)
             for x_a in x_as for x_f in x_fs]
    for tc, out in zip(cases, simulate_lockstep(pilot, cases, cfg), strict=True):
        assert out.tc is tc
        assert _observed(out) == _observed(simulate(pilot, tc, cfg, record=False))


# A creeping start: the cautious stop from 12.001 m/s leaves 0.001 m/s, 5.503 m
# short of the conflict point, so the run goes to its horizon and fails
# target_not_reached.
CREEPING = (always_cautious(STD), MERGE, 35.0, 12.001, [60.0], [20.0], SimConfig())


@pytest.mark.parametrize("variant", sorted(FACTORIES))
def test_every_cell_equals_scalar_simulate(variant):
    test = given(grids(variant))(_check_every_cell)
    if variant == "always_cautious":
        test = example(CREEPING)(test)
    settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])(test)()


def test_refuses_cases_it_cannot_batch():
    cases = [TestCase(static=MERGE, x_e=20.0, v_e=5.0, x_a=30.0, x_f=15.0),
             TestCase(static=MERGE, x_e=25.0, v_e=5.0, x_a=30.0, x_f=15.0)]
    with pytest.raises(ValueError):
        simulate_lockstep(reference(STD), cases)  # two starts
    with pytest.raises(ValueError):
        simulate_lockstep(reference(STD), equivalence_mutations(cases[0], 10.0))
    with pytest.raises(ValueError):
        simulate_lockstep(reference(non_monotone_brake_profile()), cases[:1])
    assert simulate_lockstep(reference(STD), []) == []


class TestRouting:
    """``run_grid`` batches a built-in constant-profile pilot and nothing else."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        calls = []
        real = critlab.classify.simulate

        def counting(pilot, *args, **kwargs):
            calls.append(pilot)
            return real(pilot, *args, **kwargs)

        monkeypatch.setattr(critlab.classify, "simulate", counting)
        return calls

    def test_constant_profile_never_calls_simulate(self, scalar_calls):
        grid = run_grid(reference(STD), 20.0, 5.0, MERGE, [40.0, 30.0], [15.0, 25.0])
        assert scalar_calls == []
        assert grid.stats["scalar_simulate_calls"] == 0
        assert 0 < grid.stats["lockstep_steps"] <= grid.stats["cell_steps"]

    def test_tabulated_profile_is_simulated_cell_by_cell(self, scalar_calls):
        pilot = reference(non_monotone_brake_profile())
        grid = run_grid(pilot, 20.0, 5.0, MERGE, [40.0, 30.0], [15.0, 25.0])
        assert scalar_calls == [pilot] * 4
        assert grid.stats["lockstep_steps"] == 0
        assert grid.stats["scalar_simulate_calls"] == 4

    def test_external_pilot_is_simulated_cell_by_cell(self, scalar_calls):
        with ExternalAutopilot(EXTERNAL + " hold", STD) as pilot:
            run_grid(pilot, 20.0, 5.0, MERGE, [40.0, 30.0], [15.0])
        assert scalar_calls == [pilot] * 2
