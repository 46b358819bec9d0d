import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab.autopilots import reference
from critlab.criticality import (
    Dominance,
    IncomparableError,
    Zone,
    classify_zone,
    dominates,
    most_critical,
)
from critlab.scenario import ScenarioType, StaticPart, TestCase
from critlab.simulator import SimConfig, VerdictKind, simulate, verdict


class TestMostCritical:
    def test_worked_values(self, std_profile, merge_static):
        b = most_critical(20.0, 5.0, std_profile, merge_static)
        assert b.x_hat_a == pytest.approx(26.235, abs=1e-3)
        assert b.x_hat_f == pytest.approx(13.125, abs=1e-9)
        assert b.x_tilde_a == pytest.approx(40.0)
        assert b.cautious_feasible  # braking_distance(5) = 3.125 <= 20

    def test_top_speed_start_pins_front_requirement(self, std_profile, merge_static):
        b = most_critical(35.0, 15.0, std_profile, merge_static)
        assert b.x_hat_f == pytest.approx(std_profile.braking_distance(15.0))

    def test_stationary_ego(self, std_profile, merge_static):
        b = most_critical(20.0, 0.0, std_profile, merge_static)
        assert math.isinf(b.x_tilde_a)
        assert math.isfinite(b.x_hat_a) and b.x_hat_a > 0

    def test_fitted_regression_geometry(self, restart_geometry):
        profile, static, _, _ = restart_geometry
        b = most_critical(11.05, 5.0, profile, static)
        assert b.x_hat_a == pytest.approx(27.6, abs=1e-9)
        assert b.x_hat_f == pytest.approx(12.6, abs=1e-9)

    def test_boundary_monotone_in_speed(self, std_profile, merge_static):
        speeds = [1.0 + 0.5 * i for i in range(28)]
        bounds = [most_critical(20.0, v, std_profile, merge_static) for v in speeds]
        for b_lo, b_hi in zip(bounds, bounds[1:]):
            assert b_hi.x_hat_a <= b_lo.x_hat_a + 1e-9
            assert b_hi.x_hat_f >= b_lo.x_hat_f - 1e-9


class TestDominance:
    def _tc(self, merge_static, x_a, x_f):
        return TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)

    def test_coordinatewise(self, merge_static):
        assert dominates(
            self._tc(merge_static, 20, 10), self._tc(merge_static, 25, 12)
        ) is Dominance.MORE_CRITICAL

    def test_crossed_coordinates(self, merge_static):
        assert dominates(
            self._tc(merge_static, 20, 12), self._tc(merge_static, 25, 10)
        ) is Dominance.INCOMPARABLE

    def test_equal(self, merge_static):
        assert dominates(
            self._tc(merge_static, 20, 10), self._tc(merge_static, 20, 10)
        ) is Dominance.EQUAL

    def test_mismatched_static_parts(self, merge_static):
        other = StaticPart(ScenarioType.INTERSECTION_YIELD, vl=10.0, d=5.0)
        with pytest.raises(IncomparableError):
            dominates(
                self._tc(merge_static, 20, 10),
                TestCase(static=other, x_e=20.0, v_e=5.0, x_a=20.0, x_f=10.0),
            )

    def test_mismatched_ego_start(self, merge_static):
        with pytest.raises(IncomparableError):
            dominates(
                self._tc(merge_static, 20, 10),
                TestCase(static=merge_static, x_e=25.0, v_e=5.0, x_a=20.0, x_f=10.0),
            )


@settings(max_examples=50, deadline=None)
@given(
    coords=st.lists(
        st.tuples(st.floats(1.0, 60.0), st.floats(1.0, 40.0)), min_size=3, max_size=3
    )
)
def test_dominance_is_a_partial_order(coords):
    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    tcs = [
        TestCase(static=static, x_e=20.0, v_e=5.0, x_a=a, x_f=f) for a, f in coords
    ]
    a, b, c = tcs
    # antisymmetry
    if dominates(a, b) is Dominance.MORE_CRITICAL:
        assert dominates(b, a) is Dominance.LESS_CRITICAL
    # transitivity
    if (
        dominates(a, b) is Dominance.MORE_CRITICAL
        and dominates(b, c) is Dominance.MORE_CRITICAL
    ):
        assert dominates(a, c) is Dominance.MORE_CRITICAL


class TestClassifyZone:
    def _tc(self, merge_static, x_a, x_f, v_e=5.0):
        return TestCase(static=merge_static, x_e=20.0, v_e=v_e, x_a=x_a, x_f=x_f)

    def test_just_above_corner_is_safe_progress(self, merge_static, std_boundary):
        tc = self._tc(merge_static, std_boundary.x_hat_a + 0.01, std_boundary.x_hat_f + 0.01)
        assert classify_zone(tc, std_boundary) is Zone.SAFE_PROGRESS

    def test_close_arrival_cautious_only(self, merge_static, std_boundary):
        tc = self._tc(merge_static, std_boundary.x_hat_a / 2, std_boundary.x_hat_f)
        assert classify_zone(tc, std_boundary) is Zone.CAUTIOUS_ONLY

    def test_beyond_tilde_irrelevant(self, merge_static, std_boundary):
        tc = self._tc(merge_static, std_boundary.x_tilde_a, std_boundary.x_hat_f + 1)
        assert classify_zone(tc, std_boundary) is Zone.IRRELEVANT

    def test_non_nominal_without_cautious_fallback(self, std_profile, merge_static):
        # from 14 m/s the ego needs 24.5 m to stop but only has 10
        b = most_critical(10.0, 14.0, std_profile, merge_static)
        assert not b.cautious_feasible
        tc = TestCase(static=merge_static, x_e=10.0, v_e=14.0, x_a=b.x_hat_a / 2, x_f=50.0)
        assert classify_zone(tc, b) is Zone.NON_NOMINAL

    def test_total_over_a_grid(self, merge_static, std_boundary):
        for x_a in range(1, 60, 4):
            for x_f in range(1, 40, 4):
                tc = self._tc(merge_static, float(x_a), float(x_f))
                assert classify_zone(tc, std_boundary) in Zone


def test_equivalence_mutants_share_zone(merge_static, std_profile, std_boundary):
    from critlab.scenario import equivalence_mutations

    for x_a, x_f in ((20.0, 10.0), (30.0, 15.0), (45.0, 20.0)):
        tc = TestCase(static=merge_static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=x_f)
        zone = classify_zone(tc, std_boundary)
        for mutant in equivalence_mutations(tc, headway=10.0):
            assert classify_zone(mutant, std_boundary) is zone
