import dataclasses
import math

import pytest

from critlab.criticality import Zone, classify_zone, most_critical
from critlab.scenario import TestCase


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

    @pytest.mark.parametrize("v_e", [0.0, 5.0, 15.0], ids=["stationary", "slow", "v_max"])
    def test_fields_are_python_floats(self, std_profile, merge_static, v_e):
        """The boundary comes from the array forms on one start: an
        ``np.float64`` leaking from them would reach the grid axes and the
        external pilots' scenes, and miss their number-text memo."""
        b = most_critical(20.0, v_e, std_profile, merge_static)
        types = {f.name: type(getattr(b, f.name)) for f in dataclasses.fields(b)}
        assert types == {"x_hat_a": float, "x_hat_f": float, "x_tilde_a": float,
                         "cautious_feasible": bool}

    def test_boundary_monotone_in_speed(self, std_profile, merge_static):
        speeds = [1.0 + 0.5 * i for i in range(28)]
        bounds = [most_critical(20.0, v, std_profile, merge_static) for v in speeds]
        for b_lo, b_hi in zip(bounds, bounds[1:]):
            assert b_hi.x_hat_a <= b_lo.x_hat_a + 1e-9
            assert b_hi.x_hat_f >= b_lo.x_hat_f - 1e-9


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
