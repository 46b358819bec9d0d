import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.autopilots import (
    FACTORIES,
    irrational,
    non_determinate_accel,
    non_determinate_brake,
    reference,
)
from critlab.campaign import _raw_text_parts
from critlab.classify import (
    FAILURE_LABELS,
    LABELS,
    CheckAbortedError,
    GridResult,
    classify_grid,
    determinacy_check_braking,
    determinacy_check_progress,
    rationality_check,
    run_grid,
)
from critlab.criticality import ZONES, Zone, most_critical, zone_codes
from critlab.kinematics import ADProfile
from critlab.scenario import (
    ExtraVehicle,
    ScenarioType,
    StaticPart,
    TestCase,
    equivalence_mutations,
)
from critlab.simulator import VERDICT_CODES, Verdict, VerdictKind, simulate, verdict

from _oracles import (
    braking_determinacy_scalar,
    brake_trace_stop,
    by_point,
    dominating_passes_scan,
)

PASS = Verdict(VerdictKind.PROGRESS_PASS)
CPASS = Verdict(VerdictKind.CAUTIOUS_PASS)
FAIL = Verdict(VerdictKind.FAIL, reason="no_collision_arriving")


def synthetic_grid(merge_static, std_profile, verdicts, fill=PASS):
    """Build a GridResult from {(x_a, x_f): Verdict} with real zone labels.

    Its axes hold the coordinates in the order they first appear, and a
    cell that ``verdicts`` does not name gets ``fill``."""
    boundary = most_critical(20.0, 5.0, std_profile, merge_static)
    xa = tuple(dict.fromkeys(k[0] for k in verdicts))
    xf = tuple(dict.fromkeys(k[1] for k in verdicts))
    codes = [VERDICT_CODES[verdicts.get((a, f), fill)] for a in xa for f in xf]
    return GridResult(
        static=merge_static, x_e=20.0, v_e=5.0, boundary=boundary,
        x_a_values=xa, x_f_values=xf,
        verdicts=np.array(codes, dtype=int).reshape(len(xa), len(xf)),
        zones=zone_codes(boundary, xa, xf),
    )


def labels_of(grid, report):
    return by_point(grid.x_a_values, grid.x_f_values, report["grid"][2], LABELS)


class TestPriorityRules:
    def test_dominated_failure_is_irrational(self, merge_static, std_profile):
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.3, 13.2): PASS, (30.0, 15.0): FAIL, (35.0, 20.0): PASS, (27.0, 14.0): PASS},
        )
        report = classify_grid(grid)
        assert labels_of(grid, report)[(30.0, 15.0)] == "IS"
        assert report["counts"]["IS"] == 1

    def test_undominated_failure_is_transition(self, merge_static, std_profile):
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.3, 13.2): FAIL, (30.0, 15.0): PASS, (35.0, 20.0): PASS},
        )
        report = classify_grid(grid)
        assert labels_of(grid, report)[(26.3, 13.2)] == "TF"

    def test_all_fail_is_overall_safety(self, merge_static, std_profile):
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.3, 13.2): FAIL, (30.0, 15.0): FAIL, (35.0, 20.0): FAIL}, fill=FAIL,
        )
        assert classify_grid(grid)["of"]["kind"] == "OF-SF"

    def test_no_progress_is_performance_degradation(self, merge_static, std_profile):
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.3, 13.2): CPASS, (30.0, 15.0): CPASS, (20.0, 13.2): CPASS}, fill=CPASS,
        )
        assert classify_grid(grid)["of"]["kind"] == "OF-PD"

    def test_overcaution_needs_margin(self, merge_static, std_profile):
        # cautious pass hugging the corner is prudence; far inside it is IO
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.5, 13.3): CPASS, (32.0, 20.0): CPASS, (33.0, 21.0): PASS},
        )
        labels = labels_of(grid, classify_grid(grid))
        assert labels[(26.5, 13.3)] == "cautious_pass"
        assert labels[(32.0, 20.0)] == "IO"

    def test_empty_grid_rejected(self, merge_static, std_profile):
        grid = synthetic_grid(merge_static, std_profile, {})
        with pytest.raises(ValueError):
            classify_grid(grid)

    def test_order_invariance(self, merge_static, std_profile):
        verdicts = {
            (26.3, 13.2): PASS, (30.0, 15.0): FAIL, (35.0, 20.0): PASS, (27.0, 14.0): CPASS,
        }
        grid = synthetic_grid(merge_static, std_profile, verdicts)
        shuffled = synthetic_grid(
            merge_static, std_profile, dict(reversed(list(verdicts.items())))
        )
        assert shuffled.x_a_values == grid.x_a_values[::-1]
        assert labels_of(grid, classify_grid(grid)) == labels_of(shuffled, classify_grid(shuffled))

    def test_rationality_matches_is_labels(self, merge_static, std_profile):
        grid = synthetic_grid(
            merge_static, std_profile,
            {(26.3, 13.2): PASS, (30.0, 15.0): FAIL, (28.0, 14.0): FAIL, (35.0, 20.0): PASS},
        )
        report = classify_grid(grid)
        witnesses = rationality_check(grid)
        assert bool(witnesses) == (report["counts"].get("IS", 0) > 0)
        assert {w[1] for w in witnesses} == {
            k for k, lab in labels_of(grid, report).items() if lab == "IS"
        }

    @pytest.mark.parametrize("verdicts, irrelevant", [
        ({(40.0, 13.2): FAIL, (45.0, 20.0): PASS, (50.0, 15.0): CPASS}, 9),
        ({(26.3, 13.2): PASS, (30.0, 15.0): FAIL, (28.0, 14.0): FAIL, (40.0, 14.0): FAIL,
          (45.0, 20.0): CPASS}, 8),
    ], ids=["x_a-wholly-at-or-past-x_tilde_a", "some-cells-irrelevant"])
    def test_frequencies_over_all_and_relevant_cells(self, merge_static, std_profile, verdicts,
                                                     irrelevant):
        """``frequencies`` divide by all cells and ``frequencies_relevant``
        by the cells outside the irrelevant zone, or read 0.0 where there are
        none (the boundary's ``x_tilde_a`` is 40 m)."""
        grid = synthetic_grid(merge_static, std_profile, verdicts)
        report = classify_grid(grid)
        counts, n_cells = report["counts"], grid.verdicts.size
        assert report["zone_counts"][Zone.IRRELEVANT.value] == irrelevant
        assert any(counts.get(k) for k in FAILURE_LABELS)
        assert report["frequencies"] == {k: counts.get(k, 0) / n_cells for k in FAILURE_LABELS}
        relevant = n_cells - irrelevant
        assert report["frequencies_relevant"] == (
            {k: counts.get(k, 0) / relevant for k in FAILURE_LABELS} if relevant
            else {"TF": 0.0, "IS": 0.0, "IO": 0.0})

    def test_single_point_grid_has_no_witnesses(self, merge_static, std_profile):
        grid = synthetic_grid(merge_static, std_profile, {(30.0, 15.0): FAIL})
        assert rationality_check(grid) == []


@st.composite
def verdict_grids(draw):
    """A grid of random verdicts on axes in ascending or in any order, with
    the flag that says which; half the coordinates sit on a coarse lattice,
    where a pass and a failure share a column or a row."""
    coord = st.integers(1, 12).map(float) | st.floats(1.0, 12.0)
    xa = draw(st.lists(coord, min_size=1, max_size=8, unique=True))
    xf = draw(st.lists(coord, min_size=1, max_size=8, unique=True))
    ascending = draw(st.booleans())
    if ascending:
        xa, xf = sorted(xa), sorted(xf)
    verdict = st.sampled_from([PASS, CPASS, FAIL])
    verdicts = {(a, f): draw(verdict) for a in xa for f in xf}
    codes = [VERDICT_CODES[vd] for vd in verdicts.values()]
    grid = GridResult(static=None, x_e=20.0, v_e=5.0, boundary=None,
                      x_a_values=tuple(xa), x_f_values=tuple(xf),
                      verdicts=np.array(codes).reshape(len(xa), len(xf)),
                      zones=np.full((len(xa), len(xf)), ZONES.index(Zone.SAFE_PROGRESS)))
    return grid, verdicts, ascending


class TestDominanceSweep:
    @settings(max_examples=300, deadline=None)
    @given(verdict_grids())
    def test_witnesses_match_the_scan_and_the_stated_rule(self, drawn):
        grid, verdicts, ascending = drawn
        witnesses = rationality_check(grid)
        if ascending:
            scan = dominating_passes_scan(verdicts)
            assert witnesses == [(p, key) for key, p in sorted(scan.items())]
        passes = [k for k, vd in verdicts.items() if vd is PASS]
        rule = {}
        for key, vd in verdicts.items():
            dominating = [p for p in passes if p[0] <= key[0] and p[1] <= key[1]]
            if vd is FAIL and dominating:
                rule[key] = min(dominating)
        assert witnesses == [(p, key) for key, p in sorted(rule.items())]


def _grid_axes(boundary, n=12):
    xa = [boundary.x_hat_a * 0.5 + i * (boundary.x_tilde_a * 1.1 - boundary.x_hat_a * 0.5) / (n - 1)
          for i in range(n)]
    xf = [boundary.x_hat_f * 0.5 + i * (boundary.x_hat_f * 2.0) / (n - 1) for i in range(n)]
    return xa, xf


class TestLiveGrids:
    def test_reference_is_rational(self, std_profile, merge_static, std_boundary):
        xa, xf = _grid_axes(std_boundary)
        grid = run_grid(reference(std_profile), 20.0, 5.0, merge_static, xa, xf)
        report = classify_grid(grid)
        assert report["counts"].get("IS", 0) == 0
        assert report["counts"].get("IO", 0) == 0
        assert rationality_check(grid) == []

    def test_irrational_variant_fails_inside_its_region(
        self, std_profile, merge_static, std_boundary
    ):
        region = ((29.0, 34.0), (16.0, 22.0))
        pilot = irrational(std_profile, region)
        xa, xf = _grid_axes(std_boundary)
        grid = run_grid(pilot, 20.0, 5.0, merge_static, xa, xf)
        report = classify_grid(grid)
        is_points = [k for k, lab in labels_of(grid, report).items() if lab == "IS"]
        assert is_points
        for x_a, x_f in is_points:
            assert region[0][0] <= x_a <= region[0][1]
            assert region[1][0] <= x_f <= region[1][1]
        assert rationality_check(grid)

    def test_grid_report_schema(self, std_profile, merge_static, std_boundary):
        xa, xf = _grid_axes(std_boundary, n=4)
        grid = run_grid(reference(std_profile), 20.0, 5.0, merge_static, xa, xf)
        report = classify_grid(grid)
        assert sum(report["counts"].values()) == 16
        head, tail = _raw_text_parts(report)
        raw = json.loads(head + json.dumps("merge_yield") + tail)
        assert set(raw) == {
            "scenario_type", "x_e", "v_e", "boundary", "grid",
            "frequencies", "frequencies_relevant", "of", "zone_counts", "autopilot",
        } - {"autopilot"}
        assert len(raw["grid"]) == 16
        assert set(raw["grid"][0]) == {"x_a", "x_f", "zone", "verdict", "label"}
        assert raw["boundary"]["x_tilde_a"] == pytest.approx(40.0)


class TestBrakingDeterminacy:
    def test_reference_is_determinate(self):
        pilot = reference(ADProfile(2.0, 4.0, 30.0))
        rep = determinacy_check_braking([(pilot, 30.0)], restart_every=5)[0]
        assert rep.determinate
        assert rep.max_deviation <= 30.0 * 0.1 + 0.25

    def test_restart_at_step_zero_is_exact(self):
        pilot = reference(ADProfile(2.0, 4.0, 30.0))
        rep = determinacy_check_braking([(pilot, 30.0)], restart_every=1000)[0]
        assert rep.restarts[0].deviation == 0.0

    def test_split_rate_variant_diverges(self):
        p30 = ADProfile(2.0, 5.0, 30.0)
        pilot = non_determinate_brake(p30, {30.0: 5.0, 27.5: 3.0})
        rep = determinacy_check_braking([(pilot, 30.0)], restart_every=5)[0]
        assert not rep.determinate
        assert rep.max_deviation >= 20.0
        # the restart landing on 27.5 m/s reproduces the trace-oracle gap
        expected = (
            brake_trace_stop(27.5, 3.0) - (brake_trace_stop(30.0, 5.0) - 14.375)
        )
        worst = max(rep.restarts, key=lambda r: r.deviation)
        assert worst.v == pytest.approx(27.5)
        assert worst.deviation == pytest.approx(expected, abs=1e-9)

    def test_start_above_v_max_aborts(self):
        pilot = reference(ADProfile(2.0, 4.0, 15.0))
        with pytest.raises(ValueError, match=r"outside \(0, v_max 15.0\]"):
            determinacy_check_braking([(pilot, 16.0)])

    @pytest.mark.parametrize("v0", [math.nan, -5.0, 0.0, math.inf])
    def test_start_or_obstacle_not_positive_and_finite_refused(self, v0):
        """A NaN ``v0`` once read ``tol`` NaN and status ok; a negative one
        a negative ``tol``."""
        pilot = reference(ADProfile(2.0, 4.0, 15.0))
        with pytest.raises(ValueError, match=r"outside \(0, v_max"):
            determinacy_check_braking([(pilot, v0)])


    def test_a_long_braking_curve_checks_in_seconds(self, hang_guard):
        """Braked from 30 m/s at 0.013 m/s^2, a 23,077-step curve with 4,616
        restarts took 42-52 s when each restart braked on its own."""
        pilot = non_determinate_brake(ADProfile(2.0, 5.0, 30.0), {"0.01": 0.1, "12.0": 0.013})
        with hang_guard(10.0):
            rep = determinacy_check_braking([(pilot, 30.0)])[0]
        assert len(rep.restarts) == 4616
        assert not rep.determinate


def _hex_report(rep):
    return (rep.maneuver, rep.tol.hex(), rep.max_deviation.hex(), rep.verdict_flips,
            [(r.t.hex(), r.x.hex(), r.v.hex(), r.deviation.hex(), r.passed)
             for r in rep.restarts])


_BRAKE_PROFILES = st.builds(ADProfile, st.floats(0.5, 6.0), st.floats(1.0, 9.0),
                            st.floats(5.0, 40.0))


@st.composite
def _braking_check(draw):
    """A reference, always-cautious or split-rate pilot, and a ``v0`` in
    ``(0, v_max]``, ``v_max`` itself half the time."""
    profile = draw(_BRAKE_PROFILES)
    kind = draw(st.sampled_from(["reference", "always_cautious", "non_determinate_brake"]))
    if kind == "non_determinate_brake":
        rates = draw(st.dictionaries(st.floats(0.0, 40.0), st.floats(1.0, profile.b_max),
                                     min_size=1, max_size=3))
        pilot = non_determinate_brake(profile, rates)
    else:
        pilot = FACTORIES[kind](profile)
    v0 = draw(st.just(profile.v_max) | st.floats(0.01, profile.v_max))
    return pilot, v0


@settings(max_examples=40, deadline=None)
@given(checks=st.lists(_braking_check(), min_size=1, max_size=4),
       restart_every=st.sampled_from([1, 3, 5, 7]), dt=st.sampled_from([0.1, 0.05]))
def test_batched_braking_checks_equal_the_scalar_ones(checks, restart_every, dt):
    """Every check of a batch gets the report it gets braked alone, step by
    step with ``advance``, bit for bit."""
    got = determinacy_check_braking(checks, restart_every, dt)
    want = [braking_determinacy_scalar(pilot, v0, restart_every, dt) for pilot, v0 in checks]
    assert [_hex_report(rep) for rep in got] == [_hex_report(rep) for rep in want]


class TestProgressDeterminacy:
    def _probe(self, profile, static, x_e=20.0, v_e=5.0):
        b = most_critical(x_e, v_e, profile, static)
        return TestCase(
            static=static, x_e=x_e, v_e=v_e, x_a=b.x_hat_a + 1.0, x_f=b.x_hat_f + 1.0
        )

    def test_reference_restarts_reproduce(self, std_profile, merge_static):
        tc = self._probe(std_profile, merge_static)
        [rep] = determinacy_check_progress([(reference(std_profile), tc)], restart_every=4)
        assert rep.determinate
        assert rep.verdict_flips == 0
        assert rep.max_deviation <= 0.2

    def test_flawed_accel_flips_a_restart(self, restart_geometry):
        profile, static, a_nominal, _ = restart_geometry
        pilot = non_determinate_accel(profile, {5.0: a_nominal, 6.3: 1.0})
        tc = TestCase(static=static, x_e=11.05, v_e=5.0, x_a=27.6, x_f=12.6)
        [rep] = determinacy_check_progress([(pilot, tc)], restart_every=3)
        assert not rep.determinate
        assert rep.verdict_flips >= 1

    def test_baseline_must_pass(self, std_profile, merge_static, std_boundary):
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a - 2.0, x_f=std_boundary.x_hat_f,
        )
        [rep] = determinacy_check_progress([(reference(std_profile), tc)])
        assert isinstance(rep, CheckAbortedError)

    def test_checks_share_one_static_part(self, std_profile, merge_static):
        pilot = reference(std_profile)
        lane = StaticPart(ScenarioType.LANE_CHANGE, vl=merge_static.vl, d=merge_static.d)
        with pytest.raises(ValueError, match="different static parts"):
            determinacy_check_progress([(pilot, self._probe(std_profile, merge_static)),
                                        (pilot, self._probe(std_profile, lane))])

    @pytest.mark.parametrize("field, value", [
        ("mutations", (ExtraVehicle("static", 12.0),)), ("horizon", 400)])
    def test_a_baseline_is_a_plain_case(self, std_profile, merge_static, field, value):
        """The baselines run on the engine, which takes neither extra vehicles
        nor an explicit horizon; the restarts never had them."""
        tc = replace(self._probe(std_profile, merge_static), **{field: value})
        with pytest.raises(ValueError, match="without extra vehicles or an explicit horizon"):
            determinacy_check_progress([(reference(std_profile), tc)])

    def test_restart_past_crossing_is_vacuous(self, std_profile, merge_static):
        tc = self._probe(std_profile, merge_static)
        [rep] = determinacy_check_progress([(reference(std_profile), tc)],
                                           restart_every=10**6)
        assert rep.determinate  # only the step-0 restart (or none) applies


class TestEquivalence:
    def test_reference_ignores_padding(self, std_profile, merge_static, std_boundary):
        """Traffic padded in behind the arriving vehicle and beyond the front
        one cannot matter, and leaves the reference pilot's verdict alone."""
        tc = TestCase(
            static=merge_static, x_e=20.0, v_e=5.0,
            x_a=std_boundary.x_hat_a + 1.0, x_f=std_boundary.x_hat_f + 1.0,
        )
        pilot = reference(std_profile)
        kinds = [verdict(simulate(pilot, case)).kind
                 for case in [tc, *equivalence_mutations(tc, headway=10.0)]]
        assert kinds == [VerdictKind.PROGRESS_PASS] * 4
