import numpy as np
import pytest

from critlab.autopilots import reference
from critlab.criticality import most_critical
from critlab.partition import build_partition, coverage_cap, coverage_ratio, envelope_samples
from critlab.scenario import TestCase
from critlab.simulator import SimConfig, VerdictKind, simulate, verdict


@pytest.fixture(scope="module")
def std_partition(std_profile, merge_static):
    return build_partition(20.0, [10.0, 5.0], std_profile, merge_static)


class TestBuildPartition:
    def test_worked_corner(self, std_partition):
        # interval [5, 10]: arriving corner from the slow end, braking room
        # from the fast end: B(VA(20, 10)) = (100 + 80) / 8 = 22.5
        corner = std_partition.corners[0]
        assert corner[0] == pytest.approx(26.235, abs=1e-3)
        assert corner[1] == pytest.approx(22.5)

    def test_single_speed_rejected(self, std_profile, merge_static):
        with pytest.raises(ValueError):
            build_partition(20.0, [10.0], std_profile, merge_static)

    def test_non_decreasing_rejected(self, std_profile, merge_static):
        with pytest.raises(ValueError):
            build_partition(20.0, [5.0, 10.0], std_profile, merge_static)
        with pytest.raises(ValueError):
            build_partition(20.0, [10.0, 10.0], std_profile, merge_static)

    def test_zero_floor_rejected(self, std_profile, merge_static):
        with pytest.raises(ValueError):
            build_partition(20.0, [10.0, 0.0], std_profile, merge_static)

    def test_corners_monotone_across_intervals(self, std_profile, merge_static):
        part = build_partition(20.0, [12.0, 9.0, 6.0, 3.0], std_profile, merge_static)
        for (a0, f0), (a1, f1) in zip(part.corners, part.corners[1:]):
            assert a1 >= a0 - 1e-9  # slower intervals need more arriving room
            assert f1 <= f0 + 1e-9  # and less braking room


class TestCoverageRatio:
    def test_degenerate_interval_covers_everything(self, std_profile, merge_static):
        part = build_partition(20.0, [10.0, 10.0 - 1e-6], std_profile, merge_static)
        result = coverage_ratio(part, x_f_cap=60.0, integration_steps=150)
        assert result.ratio == pytest.approx(1.0, abs=1e-3)

    def test_refinement_strictly_improves(self, std_profile, merge_static):
        caps = 2.0 * std_profile.braking_distance(std_profile.v_max)
        parts = [
            build_partition(20.0, speeds, std_profile, merge_static)
            for speeds in (
                [10.0, 5.0],
                [10.0, 7.5, 5.0],
                [10.0, 8.75, 7.5, 6.25, 5.0],
            )
        ]
        ratios = [coverage_ratio(p, caps, 200).ratio for p in parts]
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(0.0 < r <= 1.0 for r in ratios)

    def test_half_step_convergence(self, std_partition):
        r1 = coverage_ratio(std_partition, 60.0, 200).ratio
        r2 = coverage_ratio(std_partition, 60.0, 400).ratio
        assert abs(r1 - r2) <= 1e-2

    def test_cap_below_corner_rejected(self, std_partition):
        with pytest.raises(ValueError):
            coverage_ratio(std_partition, x_f_cap=10.0)

    @pytest.mark.parametrize("cap", [np.nan, np.inf])
    def test_non_finite_cap_rejected(self, std_partition, cap):
        """Both once gave a NaN ratio and volumes."""
        with pytest.raises(ValueError, match="not finite"):
            coverage_cap(std_partition, cap, 50)

    def test_covered_never_exceeds_safe(self, std_partition):
        result = coverage_ratio(std_partition, 60.0, 150)
        assert result.covered_volume <= result.safe_volume

    def test_rejection_sampling_soundness(self, std_profile, merge_static, std_partition):
        """Sampled covered points are always exactly safe (10^5 points)."""
        rng = np.random.default_rng(0)
        part = std_partition
        x_f_cap = 60.0
        v = rng.uniform(5.0, 10.0, 100_000)
        x_a = rng.uniform(0.0, 80.0, 100_000)
        x_f = rng.uniform(0.0, x_f_cap, 100_000)
        bad = 0
        for vi, ai, fi in zip(v, x_a, x_f):
            b = most_critical(20.0, vi, std_profile, merge_static)
            idx = 0 if vi >= part.speeds[1] else len(part.corners) - 1
            corner_a, corner_f = part.corners[idx]
            covered = corner_a <= ai <= b.x_tilde_a and fi >= corner_f
            safe = b.x_hat_a <= ai <= b.x_tilde_a and fi >= b.x_hat_f
            if covered and not safe:
                bad += 1
        assert bad == 0

    def test_corner_cases_pass_under_reference(self, std_profile, merge_static):
        part = build_partition(20.0, [10.0, 7.5, 5.0], std_profile, merge_static)
        pilot = reference(std_profile)
        for (v_hi, v_lo), (corner_a, corner_f) in zip(
            zip(part.speeds, part.speeds[1:]), part.corners
        ):
            for v in (v_lo, v_hi):
                tc = TestCase(
                    static=merge_static, x_e=20.0, v_e=v,
                    x_a=corner_a + 1.0, x_f=corner_f + 1.0,
                )
                out = simulate(pilot, tc, SimConfig())
                assert verdict(out).kind is VerdictKind.PROGRESS_PASS

    def test_sampled_covered_points_pass_under_reference(
        self, std_profile, merge_static, std_partition
    ):
        rng = np.random.default_rng(7)
        pilot = reference(std_profile)
        checked = 0
        while checked < 200:
            v = float(rng.uniform(5.0, 10.0))
            b = most_critical(20.0, v, std_profile, merge_static)
            idx = 0 if v >= std_partition.speeds[1] else len(std_partition.corners) - 1
            corner_a, corner_f = std_partition.corners[idx]
            if corner_a >= b.x_tilde_a:
                continue  # the covered band is empty at this speed
            x_a = float(rng.uniform(corner_a, b.x_tilde_a))
            x_f = float(rng.uniform(corner_f, 60.0))
            if x_a <= corner_a or x_a >= b.x_tilde_a:
                continue
            tc = TestCase(static=merge_static, x_e=20.0, v_e=v, x_a=x_a, x_f=x_f)
            out = simulate(pilot, tc, SimConfig())
            assert verdict(out).passed, (v, x_a, x_f)
            checked += 1


class TestEnvelopeSamples:
    def test_staircase_dominates_envelope(self, std_partition):
        rows = envelope_samples(std_partition, n=50)
        assert len(rows) == 50
        for row in rows:
            assert row["corner_x_a"] >= row["x_hat_a"] - 1e-9
            assert row["corner_x_f"] >= row["x_hat_f"] - 1e-9
