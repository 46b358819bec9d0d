"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Expected values come from closed forms cross-checked against the
brute-force oracles in ``_oracles.py``, never from the code under test.
"""

import json
import time

import numpy as np
import pytest

from critlab.autopilots import (
    irrational,
    non_determinate_accel,
    non_determinate_brake,
    reference,
    transition_flawed,
)
from critlab.campaign import (
    CampaignCell,
    cell_text,
    load_config,
    render_report,
    run_campaign,
    write_outputs,
)
from critlab.classify import LABELS, classify_grid, determinacy_check_braking, run_grid
from critlab.criticality import most_critical
from critlab.kinematics import ADProfile
from critlab.partition import build_partition, coverage_ratio
from critlab.scenario import ScenarioType, StaticPart, TestCase, collision_window
from critlab.simulator import EventKind, SimConfig, VerdictKind, simulate, verdict

from _oracles import (
    brake_trace_stop,
    by_point,
    euler_accel_run,
    euler_braking_distance,
    euler_braking_speed,
    zone_overlap_constant_speed,
)
from conftest import has


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")


def test_criterion_1_ad_algebra_against_integration_oracle(std_profile):
    """Closed forms vs dt=0.001 forward integration, 20x20 grid, < 5 s."""
    t0 = time.time()
    speeds = np.linspace(0.5, 15.0, 20)
    dists = np.linspace(0.5, 60.0, 20)

    worst_rel = 0.0

    def check(got, ref):
        nonlocal worst_rel
        err = abs(got - ref)
        if err > 0.05:  # absolute floor below which relative error is noise
            worst_rel = max(worst_rel, err / max(abs(ref), 1e-12))
        return err <= max(0.001 * abs(ref), 0.05)

    ok = True
    b_ref = euler_braking_distance(speeds, 4.0)
    for v, ref_val in zip(speeds, b_ref):
        ok &= check(std_profile.braking_distance(v), ref_val)
    for v in speeds:
        vb_ref = euler_braking_speed(np.full(len(dists), v), dists, 4.0)
        t_ref, va_ref = euler_accel_run(np.full(len(dists), v), dists, 2.0, 15.0)
        for x, vb, tr, vr in zip(dists, vb_ref, t_ref, va_ref):
            ok &= check(std_profile.braking_speed(v, x), vb)
            ok &= check(std_profile.accel_time(x, v), tr)
            ok &= check(std_profile.accel_speed(x, v), vr)

    comp_ok = True
    for v in speeds:
        for x1 in (0.0, 3.0, 11.0):
            for x2 in (0.0, 5.0, 17.0):
                lhs = std_profile.braking_speed(v, x1 + x2)
                rhs = std_profile.braking_speed(std_profile.braking_speed(v, x1), x2)
                comp_ok &= abs(lhs - rhs) <= 1e-9
    elapsed = time.time() - t0
    _line(
        1,
        ok and comp_ok and elapsed < 5.0,
        f"A/D algebra matches integration oracle (worst rel {worst_rel:.2e}), "
        f"composability to 1e-9, runtime {elapsed:.2f} s",
    )
    assert ok and comp_ok
    assert elapsed < 5.0


def test_criterion_2_collision_window_threshold():
    """50x50 constant-speed sweep reproduces the |x_e - x_a| <= 10 threshold."""
    d, v = 5.0, 10.0
    xs = [5.0 + i for i in range(50)]
    band = v * 0.01  # one step of the dt=0.01 enumeration
    disagreements = []
    for x_e in xs:
        for x_a in xs:
            window = collision_window(x_e, v, x_a, v, d)
            threshold = abs(x_e - x_a) <= 10.0
            sim = zone_overlap_constant_speed(x_e, v, x_a, v, d, dt=0.01)
            if window != threshold:
                disagreements.append((x_e, x_a, "analytic"))
            if sim != threshold and abs(abs(x_e - x_a) - 10.0) > band:
                disagreements.append((x_e, x_a, "simulated"))
    ok = not disagreements
    _line(
        2,
        ok,
        f"collision window matches |x_e-x_a|<=10 on 50x50 grid "
        f"({len(disagreements)} disagreements beyond one step)",
    )
    assert ok, disagreements[:5]


def test_criterion_3_boundary_tightness(std_profile, merge_static):
    """(x_hat_a, x_hat_f) = (26.235, 13.125) validated in closed loop."""
    b = most_critical(20.0, 5.0, std_profile, merge_static)
    values_ok = (
        abs(b.x_hat_a - 26.235) < 1e-3
        and abs(b.x_hat_f - 13.125) < 1e-9
        and abs(b.x_tilde_a - 40.0) < 1e-9
    )
    pilot = reference(std_profile)
    probe = TestCase(
        static=merge_static, x_e=20.0, v_e=5.0, x_a=b.x_hat_a + 0.5, x_f=b.x_hat_f + 0.5
    )
    above = verdict(simulate(pilot, probe, SimConfig())).kind is VerdictKind.PROGRESS_PASS

    tight = TestCase(
        static=merge_static, x_e=20.0, v_e=5.0, x_a=b.x_hat_a - 1.0, x_f=b.x_hat_f
    )
    ref_out = simulate(pilot, tight, SimConfig())
    goes_cautious = verdict(ref_out).kind is VerdictKind.CAUTIOUS_PASS
    forced = simulate(transition_flawed(std_profile, 1.2), tight, SimConfig())
    collides_if_forced = has(forced, EventKind.COLLISION_ARRIVING)

    def empirical_boundary(dt):
        for x_a in [24.0 + 0.25 * i for i in range(24)]:
            tc = TestCase(
                static=merge_static, x_e=20.0, v_e=5.0, x_a=x_a, x_f=b.x_hat_f + 0.5
            )
            if verdict(simulate(pilot, tc, SimConfig(dt=dt))).kind is VerdictKind.PROGRESS_PASS:
                return x_a
        return float("inf")

    shift = abs(empirical_boundary(0.1) - empirical_boundary(0.05))
    converges = shift <= merge_static.vl * 0.1
    ok = values_ok and above and goes_cautious and collides_if_forced and converges
    _line(
        3,
        ok,
        f"boundary (26.235, 13.125): +0.5 probe passes={above}, below-boundary "
        f"cautious={goes_cautious}/forced-collision={collides_if_forced}, "
        f"dt-halving shift {shift:.2f} m <= 1.0 m",
    )
    assert ok


def _grid_axes(boundary, n=20):
    xa = [
        boundary.x_hat_a * 0.5
        + i * (boundary.x_tilde_a * 1.1 - boundary.x_hat_a * 0.5) / (n - 1)
        for i in range(n)
    ]
    xf = [boundary.x_hat_f * 0.5 + i * (boundary.x_hat_f * 2.0) / (n - 1) for i in range(n)]
    return xa, xf


def test_criterion_4_rationality(std_profile, std_boundary):
    """Reference: zero IS everywhere; the irrational variant: IS only inside
    its configured region (plus at most a boundary-band TF)."""
    region = ((29.0, 34.0), (16.0, 22.0))
    is_counts = {}
    for sc in ScenarioType:
        static = StaticPart(sc, vl=10.0, d=5.0)
        grid = run_grid(reference(std_profile), 20.0, 5.0, static, *_grid_axes(std_boundary))
        is_counts[sc.value] = classify_grid(grid)["counts"].get("IS", 0)
    ref_ok = all(c == 0 for c in is_counts.values())

    static = StaticPart(ScenarioType.MERGE_YIELD, vl=10.0, d=5.0)
    grid = run_grid(
        irrational(std_profile, region), 20.0, 5.0, static, *_grid_axes(std_boundary)
    )
    labels = by_point(grid.x_a_values, grid.x_f_values, classify_grid(grid)["grid"][2], LABELS)
    is_cells = [k for k, lab in labels.items() if lab == "IS"]
    in_region = all(
        region[0][0] <= a <= region[0][1] and region[1][0] <= f <= region[1][1]
        for a, f in is_cells
    )
    xa, xf = _grid_axes(std_boundary)
    band_a = (xa[1] - xa[0]) + 10.0 * 0.1
    band_f = (xf[1] - xf[0]) + 10.0 * 0.1
    stray = [
        k
        for k, lab in labels.items()
        if lab == "TF"
        and not (
            abs(k[0] - std_boundary.x_hat_a) <= band_a
            or abs(k[1] - std_boundary.x_hat_f) <= band_f
        )
        and not (region[0][0] <= k[0] <= region[0][1] and region[1][0] <= k[1] <= region[1][1])
    ]
    irr_ok = bool(is_cells) and in_region and not stray
    ok = ref_ok and irr_ok
    _line(
        4,
        ok,
        f"reference IS counts {is_counts}; irrational: {len(is_cells)} IS cells "
        f"all inside the fail region={in_region}, stray TF cells={len(stray)}",
    )
    assert ok


def test_criterion_5_braking_determinacy():
    """Reference deviation <= v0*dt + 0.25; split-rate variant >= 20 m."""
    ref = reference(ADProfile(2.0, 4.0, 30.0))
    rep_ref = determinacy_check_braking([(ref, 30.0)], restart_every=5)[0]

    p30 = ADProfile(2.0, 5.0, 30.0)
    ndb = non_determinate_brake(p30, {30.0: 5.0, 27.5: 3.0})
    rep_ndb = determinacy_check_braking([(ndb, 30.0)], restart_every=5)[0]

    # freeze the expectation from the trace oracle: the restart landing on
    # 27.5 m/s stops a predictable distance later than the original curve
    oracle_gap = brake_trace_stop(27.5, 3.0) - (brake_trace_stop(30.0, 5.0) - 14.375)
    matches_oracle = abs(rep_ndb.max_deviation - oracle_gap) <= 1e-9

    ok = (
        rep_ref.determinate
        and rep_ref.max_deviation <= 30.0 * 0.1 + 0.25
        and rep_ndb.max_deviation >= 20.0
        and not rep_ndb.determinate
        and matches_oracle
    )
    _line(
        5,
        ok,
        f"reference braking deviation {rep_ref.max_deviation:.3f} m <= 3.25 m; "
        f"split-rate variant {rep_ndb.max_deviation:.2f} m "
        f"(trace oracle {oracle_gap:.2f} m) >= 20 m",
    )
    assert ok


def test_criterion_6_progress_determinacy_regression(restart_geometry):
    """Fixed restart geometry: the reference passes the original case and the
    mid-maneuver restart; the split-rate accel variant collides on restart."""
    profile, static, a_nominal, _ = restart_geometry
    original = TestCase(static=static, x_e=11.05, v_e=5.0, x_a=27.6, x_f=12.6)
    restart = TestCase(static=static, x_e=11.05 - 2.7, v_e=6.3, x_a=20.75, x_f=12.6)
    cfg = SimConfig()

    ref = reference(profile)
    ref_orig = verdict(simulate(ref, original, cfg)).kind is VerdictKind.PROGRESS_PASS
    ref_restart = verdict(simulate(ref, restart, cfg)).kind is VerdictKind.PROGRESS_PASS

    nda = non_determinate_accel(profile, {5.0: a_nominal, 6.3: 1.0})
    nda_orig = verdict(simulate(nda, original, cfg)).kind is VerdictKind.PROGRESS_PASS
    nda_restart_out = simulate(nda, restart, cfg)
    nda_collides = has(nda_restart_out, EventKind.COLLISION_ARRIVING)

    ok = ref_orig and ref_restart and nda_orig and nda_collides
    _line(
        6,
        ok,
        f"reference original={ref_orig}/restart={ref_restart}; split-rate "
        f"variant original={nda_orig}, restart collides in zone={nda_collides}",
    )
    assert ok


def test_criterion_7_partition_coverage(std_profile, merge_static):
    """Refinement monotonicity, rejection-sampling soundness, convergence."""
    cap = 2.0 * std_profile.braking_distance(std_profile.v_max)
    partitions = [
        build_partition(20.0, speeds, std_profile, merge_static)
        for speeds in (
            [10.0, 5.0],
            [10.0, 7.5, 5.0],
            [10.0, 8.75, 7.5, 6.25, 5.0],
        )
    ]
    ratios = [coverage_ratio(p, cap, 200).ratio for p in partitions]
    monotone = ratios[0] < ratios[1] < ratios[2]

    part = partitions[1]
    rng = np.random.default_rng(0)
    n = 100_000
    v = rng.uniform(5.0, 10.0, n)
    x_a = rng.uniform(0.0, 80.0, n)
    x_f = rng.uniform(0.0, cap, n)
    unsound = 0
    for vi, ai, fi in zip(v, x_a, x_f):
        b = most_critical(20.0, vi, std_profile, merge_static)
        idx = 0 if vi >= part.speeds[1] else 1
        ca, cf = part.corners[idx]
        covered = ca <= ai <= b.x_tilde_a and fi >= cf
        safe = b.x_hat_a <= ai <= b.x_tilde_a and fi >= b.x_hat_f
        if covered and not safe:
            unsound += 1

    r_h = coverage_ratio(part, cap, 200).ratio
    r_h2 = coverage_ratio(part, cap, 400).ratio
    converges = abs(r_h - r_h2) <= 1e-2

    ok = monotone and unsound == 0 and converges
    _line(
        7,
        ok,
        f"ratios {['%.4f' % r for r in ratios]} strictly increasing={monotone}; "
        f"covered-but-unsafe points {unsound}/100000; half-step drift "
        f"{abs(r_h - r_h2):.4f} <= 0.01",
    )
    assert ok


@pytest.fixture(scope="module")
def default_campaign_twice(tmp_path_factory):
    t0 = time.time()
    out1 = tmp_path_factory.mktemp("run1")
    out2 = tmp_path_factory.mktemp("run2")
    r1 = run_campaign(load_config(None), out_dir=out1)
    r2 = run_campaign(load_config(None), out_dir=out2)
    elapsed = time.time() - t0
    write_outputs(r1, out1)
    write_outputs(r2, out2)
    return r1, r2, out1, out2, elapsed


def test_criterion_8_end_to_end(default_campaign_twice):
    """Default campaign: byte-deterministic, < 5 min, fixture cell renders
    byte-exactly, and the reference column stays clean."""
    r1, r2, out1, out2, elapsed = default_campaign_twice
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("summary.csv", "report.md", "report.json")
    )
    fast = elapsed < 300.0

    fixture = CampaignCell(
        autopilot="modular_a",
        scenario_type="merge_yield",
        counts={"TF": 8, "IO": 127, "pass": 865},
        n_cells=1000,
        m_states=4,
    )
    cell_ok = cell_text(fixture) == "TF (0.80%) IO (12.7%)"
    md = render_report(r1, "markdown")
    fixture_in_layout = "| Scenario type |" in md and "| merge_yield |" in md

    ref_clean = True
    for sc in r1.scenario_types:
        cell = r1.cells[(sc, "reference")]
        ref_clean &= cell.counts.get("IS", 0) == 0 and cell.counts.get("IO", 0) == 0
    raw_files = list((out1 / "raw").glob("*/*/*.json"))
    raw_ok = len(raw_files) == 8 * 4 * 4
    no_non_nominal = all(
        json.loads(f.read_text())["zone_counts"].get("non_nominal", 0) == 0
        for f in raw_files
    )

    ok = identical and fast and cell_ok and fixture_in_layout and ref_clean and raw_ok and no_non_nominal
    _line(
        8,
        ok,
        f"two runs byte-identical={identical}, wall {elapsed:.0f} s < 300 s, "
        f"fixture cell='{cell_text(fixture)}', reference clean={ref_clean}, "
        f"{len(raw_files)} raw grids, no non-nominal cases={no_non_nominal}",
    )
    assert ok
