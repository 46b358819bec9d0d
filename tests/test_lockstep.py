"""The lockstep grid engine against ``simulate`` of the scalar oracle policy."""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import critlab.classify
from critlab.autopilots import (
    FACTORIES,
    ExternalAutopilot,
    always_cautious,
    constant_speed,
    irrational,
    non_determinate_accel,
    reference,
)
from critlab.classify import (
    CheckAbortedError,
    determinacy_check_progress,
    progress_probe,
    run_grid,
    run_grids,
)
from critlab.criticality import most_critical
from critlab.kinematics import ADProfile
from critlab.scenario import EgoState, ExtraVehicle, ScenarioType, StaticPart, TestCase
from critlab.simulator import (
    _STEP_EVENTS,
    VERDICTS,
    Event,
    EventKind,
    SimConfig,
    SimOutcome,
    VerdictKind,
    lockstep_applies,
    simulate,
    simulate_lockstep,
    verdict,
    verdict_arrays,
)

from _oracles import OraclePilot, progress_determinacy_scalar
from conftest import WORK_KEYS, fitted_restart_geometry
from test_simulator import ROUNDING_CASE, _bits

EXTERNAL = f"{sys.executable} {Path(__file__).parent / 'external_pilot.py'}"
STD = ADProfile(2.0, 4.0, 15.0)
MERGE = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
LANE = StaticPart(ScenarioType.LANE_CHANGE, vl=10.0, d=5.0)


def _distances(lo, hi):
    """Distances in ``[lo, hi]``, half of them on a 0.25 m lattice, where
    event times and boundaries tie as they do on campaign grids."""
    return st.floats(lo, hi) | st.integers(int(4 * lo) + 1, int(4 * hi)).map(lambda k: k / 4)


def _bounds(draw, values):
    """An inclusive interval with its ends at two of ``values``."""
    return tuple(sorted((draw(st.sampled_from(values)), draw(st.sampled_from(values)))))


def _static(draw):
    scenario_type = draw(st.sampled_from(list(ScenarioType)))
    schedule = draw(st.none() | st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)))
    return StaticPart(scenario_type, vl=draw(st.floats(5.0, 20.0)),
                      d=draw(st.floats(1.0, 8.0)), light_schedule=schedule)


def _sim_config(draw):
    return SimConfig(dt=draw(st.sampled_from([0.1, 0.05, 0.02])),
                     zone_epsilon=draw(st.floats(0.0, 0.5)))


def _starts(draw, profile):
    return draw(st.lists(st.tuples(_distances(1.0, 80.0), st.floats(0.0, profile.v_max)),
                         min_size=1, max_size=3))


def _pilot(draw, variant, profile, x_as, x_fs):
    """A ``variant`` pilot on ``profile`` with drawn parameters; an irrational
    one's fail region has its ends on the axes."""
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
    return FACTORIES[variant](profile, **params)


@st.composite
def grids(draw, variant):
    """A ``variant`` pilot, a static part, 1-3 starts, unsorted axes and a run config."""
    profile = ADProfile(
        draw(st.floats(0.5, 5.0)), draw(st.floats(1.0, 10.0)), draw(st.floats(5.0, 40.0))
    )
    static = _static(draw)
    starts = _starts(draw, profile)
    x_as = draw(st.lists(_distances(1.0, 80.0), min_size=1, max_size=3))
    x_fs = draw(st.lists(_distances(0.5, 60.0), min_size=1, max_size=3))
    cfg = _sim_config(draw)
    return _pilot(draw, variant, profile, x_as, x_fs), static, starts, x_as, x_fs, cfg


# The profile the default config gives non_determinate_brake (``STD`` is the default).
FAST = ADProfile(2.0, 5.0, 30.0)
# The default profile, ``FAST`` or a drawn one.
PROFILES = st.sampled_from([STD, FAST]) | st.builds(
    ADProfile, st.floats(0.5, 5.0), st.floats(1.0, 10.0), st.floats(5.0, 40.0))


@st.composite
def mixed_batches(draw):
    """One batch of 2-4 pilots of any variants, each on the default profile,
    ``FAST`` or a drawn one and from its own 1-3 starts, over shared axes:
    ``(pilot of each cell, cases, run config)``, the cells in drawn order."""
    static = _static(draw)
    x_as = draw(st.lists(_distances(1.0, 80.0), min_size=1, max_size=3))
    x_fs = draw(st.lists(_distances(0.5, 60.0), min_size=1, max_size=3))
    cfg = _sim_config(draw)
    cells = []
    for variant in draw(st.lists(st.sampled_from(sorted(FACTORIES)), min_size=2, max_size=4)):
        profile = draw(PROFILES)
        pilot = _pilot(draw, variant, profile, x_as, x_fs)
        cells += [(pilot, TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f))
                  for x_e, v_e in _starts(draw, profile) for x_a in x_as for x_f in x_fs]
    cells = draw(st.permutations(cells))
    return [pilot for pilot, _ in cells], [tc for _, tc in cells], cfg


def lockstep(pilots, cases, cfg=SimConfig(), states=False):
    """``simulate_lockstep`` of test cases over one static part, without
    extra vehicles, each run by its entry of ``pilots``, given as columns:
    one run per distinct pilot and start, in order of first appearance."""
    keys = [(id(pilot), tc.x_e, tc.v_e) for pilot, tc in zip(pilots, cases, strict=True)]
    run_of = {key: run for run, key in enumerate(dict.fromkeys(keys))}
    heads = [keys.index(key) for key in run_of]  # the first cell of each run
    cells = [[getattr(tc, name) for tc in cases] for name in ("x_a", "x_f")]
    return simulate_lockstep(
        [pilots[i] for i in heads], cases[0].static if cases else MERGE,
        [cases[i].x_e for i in heads], [cases[i].v_e for i in heads],
        [run_of[key] for key in keys], *cells, cfg, states)


def outcome(runs, tc, i):
    """Cell ``i`` of a lockstep batch, the case ``tc``, as the ``SimOutcome``
    that ``simulate`` gives, its case with the cell's horizon, and its states
    if the batch kept them.
    ``simulate`` sorts its events stably by time: by (time, step, order in
    step)."""
    dt = runs.cfg.dt
    keyed = [((s + 1) * dt, s, k, kind)
             for k, (s, kind) in enumerate(zip(runs.event_step[:, i].tolist(), _STEP_EVENTS), 1)
             if s >= 0]
    crossed = runs.cross_step[i] >= 0
    if crossed:
        keyed.append((float(runs.t_cross[i]), int(runs.cross_step[i]), 0,
                      EventKind.CROSSED_CONFLICT))
    keyed.sort()
    return SimOutcome(
        tc=replace(tc, horizon=int(runs.horizon[i])),
        states=[] if runs.states is None else runs.states[i],
        events=[Event(kind, t) for t, _, _, kind in keyed],
        final=EgoState(float(runs.final_p[i]), float(runs.final_v[i])),
        steps=int(runs.steps[i]), t_cross=float(runs.t_cross[i]) if crossed else None,
        v_cross=float(runs.v_cross[i]) if crossed else None,
        t_arrive=tc.x_a / tc.static.vl, race_won=bool(runs.race_won[i]),
        zone_epsilon=runs.cfg.zone_epsilon, dt=dt,
    )


def _observed(out):
    """What a run shows: its case as run, horizon included, and the rest,
    the crossing speed and the states bit for bit (None: no crossing)."""
    vd = verdict(out)
    return (out.tc, [(e.kind, e.t) for e in out.events], out.final, out.steps, out.t_cross,
            _bits(out.v_cross), out.t_arrive, out.race_won, vd.kind, vd.reason,
            [(_bits(x), _bits(v)) for x, v in out.states])


def _check_batch(pilots, cases, cfg):
    """Every cell of one engine call, its states and its array verdict
    included, equals its ``simulate`` run of the oracle policy."""
    runs = lockstep(pilots, cases, cfg, states=True)
    codes = verdict_arrays(runs).tolist()
    assert runs.steps.size == len(cases)
    for i, (pilot, tc, code) in enumerate(zip(pilots, cases, codes, strict=True)):
        out = outcome(runs, tc, i)
        scalar = simulate(OraclePilot(pilot), tc, cfg)
        assert _observed(out) == _observed(scalar)
        assert VERDICTS[code] == verdict(scalar)


def _check_every_cell(grid):
    """Every cell of one batch over all the starts equals its oracle run."""
    pilot, static, starts, x_as, x_fs, cfg = grid
    cases = [TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f)
             for x_e, v_e in starts for x_a in x_as for x_f in x_fs]
    _check_batch([pilot] * len(cases), cases, cfg)


# A start whose cautious stop brakes in whole steps down to a residual
# 0.001 m/s short of the zone; the rule brakes that speed off, so the run ends
# stopped at x = -5.516, a cautious pass.  Batched with two default starts.
CREEPING = (always_cautious(STD), MERGE, [(35.0, 12.001), (20.0, 5.0), (30.0, 10.0)],
            [60.0], [20.0], SimConfig())


@pytest.mark.parametrize("variant", sorted(FACTORIES))
def test_every_cell_equals_scalar_simulate(variant):
    test = given(grids(variant))(_check_every_cell)
    if variant == "always_cautious":
        test = example(CREEPING)(test)
    settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])(test)()


@st.composite
def runs_with_extras(draw, variant):
    """A ``variant`` pilot on the default profile, ``FAST`` or a drawn one;
    a case over a drawn static part with 0-2 arriving or parked extra
    vehicles, nearer than most drawn geometries so that they often decide;
    and a run config.  An irrational pilot's fail region has its ends at or
    2 m either side of the case's nearest arriving and front vehicles."""
    profile = draw(PROFILES)
    extras = draw(st.lists(st.builds(ExtraVehicle, st.sampled_from(["arriving", "static"]),
                                     _distances(1.0, 30.0)), max_size=2))
    tc = TestCase(static=_static(draw), x_e=draw(_distances(1.0, 80.0)),
                  v_e=draw(st.floats(0.0, profile.v_max)), x_a=draw(_distances(1.0, 80.0)),
                  x_f=draw(_distances(0.5, 60.0)), mutations=tuple(extras))
    a = min([tc.x_a] + [e.x for e in extras if e.kind == "arriving"])
    f = min([tc.x_f] + [e.x for e in extras if e.kind == "static"])
    pilot = _pilot(draw, variant, profile, [a - 2.0, a, a + 2.0], [f - 2.0, f, f + 2.0])
    return pilot, tc, _sim_config(draw)


@pytest.mark.parametrize("variant", sorted(FACTORIES))
def test_a_run_with_extra_vehicles_equals_the_oracle_run(variant):
    """The engine refuses extra vehicles, so ``simulate`` alone runs them:
    a built-in pilot's run, its nearest arriving vehicle taken as ``min(x_a,
    arriving extras) - vl * t``, equals the oracle's, which reads the extra
    vehicles of each scene, in its events, verdict and states bit for bit."""

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(runs_with_extras(variant))
    def check(run):
        pilot, tc, cfg = run
        assert _observed(simulate(pilot, tc, cfg)) == _observed(
            simulate(OraclePilot(pilot), tc, cfg))

    check()


def _case(x_e, v_e, x_a, x_f):
    return TestCase(static=MERGE, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f)


# A constant-speed pilot, an irrational one late inside its fail region and
# the CREEPING start of an always-cautious one, in one batch.
LATE = irrational(STD, ((29.0, 35.0), (16.0, 24.0)))
MIXED = ([constant_speed(STD)] * 2 + [LATE] * 2 + [always_cautious(STD)],
         [_case(20.0, 5.0, 30.0, 20.0), _case(35.0, 12.0, 60.0, 20.0),
          _case(20.0, 5.0, 30.0, 20.0), _case(25.0, 7.5, 40.0, 30.0),
          _case(35.0, 12.001, 60.0, 20.0)],
         SimConfig())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mixed_batches())
@example(MIXED)
@example(([ROUNDING_CASE[0]], [ROUNDING_CASE[1]], ROUNDING_CASE[2]))
def test_every_cell_of_a_mixed_batch_equals_scalar_simulate(batch):
    _check_batch(*batch)


def test_a_cautious_stop_brakes_off_its_residual_speed():
    tc = TestCase(static=MERGE, x_e=35.0, v_e=12.001, x_a=60.0, x_f=20.0)
    pilot = always_cautious(STD)
    for out in (simulate(pilot, tc), outcome(lockstep([pilot], [tc]), tc, 0)):
        assert out.steps == 66
        assert out.final.v == 0.0
        assert out.final.x == pytest.approx(-5.516, abs=1e-3)
        assert verdict(out).kind is VerdictKind.CAUTIOUS_PASS


def test_refuses_cases_it_cannot_batch():
    # Per run: pilot, x_e, v_e; per cell: run, x_a, x_f.
    columns = [[reference(STD)] * 2, [20.0, 20.0], [5.0, 5.0],
               [0, 1], [30.0, 30.0], [15.0, 15.0]]

    def refused(*replaced):
        """``replaced`` holds ``(column, entry, value)``; entry None replaces the column."""
        cols = [list(col) for col in columns]
        for k, i, value in replaced:
            if i is None:
                cols[k] = value
            else:
                cols[k][i] = value
        with pytest.raises(ValueError):
            simulate_lockstep(cols[0], MERGE, *cols[1:])

    refused((2, 1, 16.0))  # one start of several above v_max
    refused((0, 1, OraclePilot(reference(STD))))
    refused((3, 1, 2))  # a run index past the last run
    refused((3, 0, -1))  # a negative run index, which numpy would wrap
    refused((4, 0, 0.0))  # x_a not positive
    refused((5, 1, float("nan")))
    refused((2, 0, -1.0))
    refused((5, None, [15.0]))  # cell columns of unequal lengths
    refused((2, None, [5.0]))  # run columns of unequal lengths
    refused((0, None, [reference(STD)]), (3, None, [0, 0]))  # ... for the pilots too
    simulate_lockstep(columns[0], MERGE, *columns[1:])
    assert lockstep([], []).steps.size == 0
    assert lockstep([], [], states=True).states == []


@pytest.mark.parametrize("x_a, dt", [(1e300, 0.1), (30.0, 1e-300)])
def test_refuses_a_run_past_int64_steps(hang_guard, x_a, dt):
    """Such a horizon was once cast to -2**63, a step no cell reaches."""
    with hang_guard(10.0), pytest.raises(ValueError, match="int64"):
        simulate_lockstep([reference(STD)], MERGE, [20.0], [5.0], [0], [x_a], [15.0],
                          SimConfig(dt=dt))


class TestRouting:
    """``run_grid`` batches a built-in pilot and nothing else."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        calls = []
        real = critlab.classify.simulate

        def counting(pilot, *args, **kwargs):
            calls.append(pilot)
            return real(pilot, *args, **kwargs)

        monkeypatch.setattr(critlab.classify, "simulate", counting)
        return calls

    @staticmethod
    def grid_work(pilot, x_a_values, x_f_values):
        """The work ``run_grids`` counts for ``run_grid``'s one grid."""
        work = Counter()
        boundary = most_critical(20.0, 5.0, pilot.profile, MERGE)
        run_grids(MERGE, [(pilot, (20.0, 5.0, x_a_values, x_f_values, boundary))], work=work)
        assert set(work) == WORK_KEYS
        return work

    def test_constant_profile_never_calls_simulate(self, scalar_calls):
        work = self.grid_work(reference(STD), [40.0, 30.0], [15.0, 25.0])
        assert scalar_calls == []
        assert work["scalar_simulate_calls"] == 0
        assert 0 < work["lockstep_steps"] <= work["cell_steps"]

    def test_external_pilot_is_simulated_cell_by_cell(self, scalar_calls):
        with ExternalAutopilot(EXTERNAL + " hold", STD) as pilot:
            run_grid(pilot, 20.0, 5.0, MERGE, [40.0, 30.0], [15.0])
        assert scalar_calls == [pilot] * 2


@st.composite
def progress_checks(draw):
    """Progress determinacy checks of all 8 variants over one static part,
    each pilot on the default profile, ``FAST`` or a drawn one, from its own
    start and just past that start's safe-progress boundary by up to 5 m in
    ``x_a`` and ``x_f``, as a campaign probes; a restart period and a step."""
    static = _static(draw)
    dt = draw(st.sampled_from([0.1, 0.05]))
    checks = []
    for variant in sorted(FACTORIES):
        profile = draw(PROFILES)
        x_e, v_e = draw(_distances(1.0, 80.0)), draw(st.floats(0.0, profile.v_max))
        b = most_critical(x_e, v_e, profile, static)
        x_a = b.x_hat_a + draw(st.floats(0.0, 5.0))
        x_f = b.x_hat_f + draw(st.floats(0.0, 5.0))
        pilot = _pilot(draw, variant, profile, [x_a - 2.0, x_a, x_a + 2.0],
                       [x_f - 2.0, x_f, x_f + 2.0])
        checks.append((pilot, TestCase(static=static, x_e=x_e, v_e=v_e, x_a=x_a, x_f=x_f)))
    return checks, draw(st.sampled_from([1, 3, 5])), SimConfig(dt=dt)


def _restarts(rep):
    return [(_bits(r.t), _bits(r.x), _bits(r.v), _bits(r.deviation), r.passed)
            for r in rep.restarts]


def _check_progress(checks, restart_every, cfg):
    """The batched progress checks equal the scalar oracle's, check by check.
    The work counts each baseline and each of the oracle's restarts as a
    cell; the baselines are one engine call if the engine can run every
    pilot, the restarts one if it can run every pilot that restarts, and
    either is a ``simulate`` call per cell otherwise."""
    work = Counter()
    reports = determinacy_check_progress(checks, restart_every, cfg, work)
    assert len(reports) == len(checks)
    based = bool(checks) and all(lockstep_applies(pilot) for pilot, _ in checks)
    restarts, batched = 0, True
    for (pilot, tc), rep in zip(checks, reports):
        try:
            want = progress_determinacy_scalar(pilot, tc, restart_every, cfg)
        except CheckAbortedError as exc:
            assert isinstance(rep, CheckAbortedError)
            assert str(rep) == str(exc)
            continue
        assert _restarts(rep) == _restarts(want)
        assert rep.verdict_flips == want.verdict_flips
        assert _bits(rep.max_deviation) == _bits(want.max_deviation)
        restarts += len(want.restarts)
        batched &= lockstep_applies(pilot) or not want.restarts
    batched &= restarts > 0
    assert set(work) == WORK_KEYS
    assert work["cells"] == len(checks) + restarts
    assert work["scalar_simulate_calls"] == (0 if based else len(checks)) + (
        0 if batched else restarts)
    assert work["lockstep_batches"] == int(based) + int(batched)
    return reports, work


# The flawed-accel restart geometry, in which a restart flips its verdict
# (``test_classify.py``'s ``test_flawed_accel_flips_a_restart``), with a
# reference pilot over the same part.
_PROFILE, _PART, _A, _ = fitted_restart_geometry()
FLIPPING = ([(non_determinate_accel(_PROFILE, {5.0: _A, 6.3: 1.0}),
              TestCase(static=_PART, x_e=11.05, v_e=5.0, x_a=27.6, x_f=12.6)),
             (reference(_PROFILE), TestCase(static=_PART, x_e=11.05, v_e=5.0, x_a=28.6, x_f=13.6))],
            3, SimConfig())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(progress_checks())
@example(FLIPPING)
def test_batched_progress_checks_equal_the_scalar_ones(batch):
    _check_progress(*batch)


class TestProgressRestartRouting:
    """The baselines of one call, and its restarts, take one engine call each
    if every pilot is built in, and ``simulate`` each otherwise."""

    def test_a_python_pilot_restarts_on_the_scalar_path(self, monkeypatch):
        """With a built-in pilot beside it: the whole call is scalar, and
        its baselines and restarts are all counted as cells."""
        calls = Counter()
        for name in ("simulate", "simulate_lockstep"):
            def counting(*args, real=getattr(critlab.classify, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(critlab.classify, name, counting)
        checks = [(pilot, progress_probe(MERGE, 20.0, 5.0, most_critical(20.0, 5.0, STD, MERGE)))
                  for pilot in (OraclePilot(reference(STD)), reference(STD))]
        (scalar, built_in), work = _check_progress(checks, 5, SimConfig())
        n = len(scalar.restarts) + len(built_in.restarts)
        assert scalar.restarts and _restarts(scalar) == _restarts(built_in)
        assert work["cells"] == 2 + n
        assert work["scalar_simulate_calls"] == 2 + n
        assert work["lockstep_batches"] == work["lockstep_steps"] == 0
        assert calls == {"simulate": 2 + n}
