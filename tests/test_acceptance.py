"""Acceptance suite. Each test exercises one release criterion end to end
at its stated tolerance and prints one PASS line (straight to the
terminal, bypassing capture) when it holds."""

import math
import time

import numpy as np
import pytest

from rollguard import harness, qp
from rollguard.barrier import (AlphaLinear, DisturbanceBudget,
                               check_budget_schedule, check_envelope_budget,
                               eval_h, zmp_lateral)
from rollguard.differentiator import (DiffChannel, DifferentiatorBank, HgoParams,
                                      calibrate_envelope, error_envelope,
                                      hgo_rates, smooth_max)
from rollguard.scenario import Scenario
from rollguard.sysmodel import NoiseModel, step_rk4

from _oracle import grid_oracle
from _rowcheck import row_derivative_gap
from test_qp import random_feasible_problem

FRAGILITY_NOISE = 0.05
SEED_COUNT = 20


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def flagship():
    """Shared runs of the critical slope scenario."""
    runs = {}
    timings = {}
    for name in ("none", "envelope"):
        start = time.perf_counter()
        runs[name] = harness.run(Scenario(filter=name))
        timings[name] = time.perf_counter() - start
    return runs, timings


def test_criterion_1_unfiltered_violates_filtered_does_not(flagship, capsys):
    runs, timings = flagship
    unfiltered = runs["none"].summary.min_h_true
    filtered = runs["envelope"].summary.min_h_true
    assert unfiltered < 0.0
    assert filtered >= -1e-3
    assert max(timings.values()) < 5.0
    announce(capsys,
             f"PASS criterion 1: unfiltered min h {unfiltered:.3f} < 0, "
             f"envelope min h {filtered:.3f} >= -1e-3, "
             f"runtime {max(timings.values()):.2f}s < 5s per run")


def test_criterion_2_margin_ladder(flagship, capsys):
    floors = (0.03, 0.9, 1.5)
    alpha = AlphaLinear(Scenario().alpha)
    summaries = []
    for floor in floors:
        sc = Scenario(filter="const_margin", budget_floor=floor)
        summaries.append(harness.run(sc).summary)
    for floor in floors[1:]:
        report = check_budget_schedule(DisturbanceBudget(0.0, 1.0, floor),
                                       alpha, Scenario().horizon)
        assert report.passed
    low, mid, high = summaries
    assert low.proj_max > floors[0]          # realized projection exceeds it
    assert low.min_h_true < 0.0              # and the run violates
    assert mid.min_h_true >= -1e-3
    assert high.min_h_true >= -1e-3
    dists = [s.final_distance for s in summaries]
    assert dists[0] <= dists[1] <= dists[2]  # conservatism ordering
    envelope = flagship[0]["envelope"].summary
    assert envelope.min_h_true >= -1e-3
    assert envelope.final_distance <= dists[2]
    announce(capsys,
             f"PASS criterion 2: margin ladder {floors} -> min h "
             f"({low.min_h_true:.3f}, {mid.min_h_true:.3f}, "
             f"{high.min_h_true:.3f}), distances {dists[0]:.4f} <= "
             f"{dists[1]:.4f} <= {dists[2]:.4f}, envelope distance "
             f"{envelope.final_distance:.4f}")


def test_criterion_3_backward_difference_fragility(capsys):
    bd_violations = 0
    envelope_violations = 0
    for seed in range(SEED_COUNT):
        bd = harness.run(Scenario(filter="backward_diff", seed=seed,
                                  v_inf=FRAGILITY_NOISE)).summary
        env = harness.run(Scenario(filter="envelope", seed=seed,
                                   v_inf=FRAGILITY_NOISE)).summary
        bd_violations += bd.min_h_true < 0.0
        envelope_violations += env.min_h_true < -1e-3
    assert bd_violations >= 0.8 * SEED_COUNT
    assert envelope_violations == 0
    announce(capsys,
             f"PASS criterion 3: backward difference violates on "
             f"{bd_violations}/{SEED_COUNT} seeds (>= 80%), envelope on "
             f"{envelope_violations}/{SEED_COUNT}")


def test_criterion_4_qp_oracle_equivalence(capsys):
    rng = np.random.default_rng(2718)
    count = 10_000
    start = time.perf_counter()
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(count):
        prob = random_feasible_problem(rng)
        sol = qp.solve(prob)
        assert sol.status == "optimal"
        oracle = grid_oracle(prob)
        assert oracle is not None
        gap = abs(sol.objective - oracle[0])
        assert gap <= 1e-6 * (1.0 + sol.objective)
        assert sol.kkt_residual <= 1e-8
        worst_gap = max(worst_gap, gap / (1.0 + sol.objective))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(capsys,
             f"PASS criterion 4: {count} QPs, worst relative gap "
             f"{worst_gap:.2e} <= 1e-6, worst KKT residual {worst_kkt:.2e} "
             f"<= 1e-8, runtime {elapsed:.2f}s < 10s")


def test_criterion_5_envelope_soundness_battery(capsys):
    """50 sinusoids with seeded bounded noise: the observer's error norm
    stays inside the envelope calibrated, with no safety factor, on the
    battery's own grid, at a 0.5 ms step and at the run's 5 ms substep."""
    params = HgoParams(2, 1, 50)
    v_inf, curvature, pdot_bound = 0.02, 8.0, 4.5
    checked = 0
    for dt, steps, stride in ((5e-4, 8000, 5), (5e-3, 800, 1)):
        coeffs = calibrate_envelope(params, v_inf, curvature, dt, steps)
        bank = DifferentiatorBank((DiffChannel(), DiffChannel()), params, coeffs,
                                  e0_bound=v_inf + pdot_bound, v_inf=v_inf)
        rng = np.random.default_rng(515)
        violations = 0
        for trial in range(50):
            omega = rng.uniform(0.25, 1.4)
            amp = min(curvature / omega ** 2, pdot_bound / omega) * rng.uniform(0.2, 1.0)
            phase = rng.uniform(0, 2 * math.pi)
            noise = NoiseModel(v_inf, 200.0, 4.0, seed=int(rng.integers(1 << 30)),
                               tau=0.004)
            p0 = lambda t: amp * math.sin(omega * t + phase)
            p0dot = lambda t: amp * omega * math.cos(omega * t + phase)

            def rhs(t, yy):
                return hgo_rates(*yy, params, p0(t) + noise.sample(t)[0])

            y = (p0(0.0) + noise.sample(0.0)[0], 0.0)
            t = 0.0
            for k in range(steps):
                y = step_rk4(y, t, dt, rhs)
                t += dt
                if k % stride == 0:
                    checked += 1
                    if math.hypot(y[0] - p0(t), y[1] - p0dot(t)) > error_envelope(bank, t)[0]:
                        violations += 1
        assert violations == 0, dt
    announce(capsys,
             f"PASS criterion 5: 50 sinusoid runs at 0.5 ms and at 5 ms, {checked} "
             f"samples, 0 envelope violations")


def test_criterion_6_smooth_max_sandwich(capsys):
    """smooth_max at sharpness 100 also defines the runtime offset: the bank's
    envelope is the smooth maximum of its two equal channel envelopes."""
    rng = np.random.default_rng(161)
    lam = 100.0
    worst = 0.0
    for _ in range(10_000):
        pair = rng.uniform(-20.0, 20.0, size=2)
        val = smooth_max(list(pair), lam)
        top = float(pair.max())
        assert top <= val <= top + math.log(2.0) / lam
        worst = max(worst, val - top)
    announce(capsys,
             f"PASS criterion 6: 10000 pairs, max <= lse <= max + ln(2)/lambda "
             f"(largest gap {worst:.2e} <= {math.log(2)/lam:.2e})")


def test_criterion_7_row_derivative_along_flow(flagship, capsys):
    scenario = Scenario()
    records = flagship[0]["envelope"].records
    rng = np.random.default_rng(77)
    picks = rng.choice(len(records) - 40, size=50, replace=False) + 20
    worst = 0.0
    for idx in picks:
        for which in ("h1", "h2"):
            fd, analytic = row_derivative_gap(scenario, records[idx], which)
            rel = abs(fd - analytic) / (1.0 + abs(analytic))
            worst = max(worst, rel)
            assert rel <= 1e-4
    announce(capsys,
             f"PASS criterion 7: 100 trace segments, worst relative "
             f"derivative mismatch {worst:.2e} <= 1e-4")


def test_criterion_8_algebraic_identities(geom, capsys):
    rng = np.random.default_rng(88)
    for _ in range(10_000):
        v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
        g_y, g_z = rng.uniform(-6, 6), rng.uniform(-12, 12)
        total = (eval_h("h1", v, omega, g_y, g_z, geom)
                 + eval_h("h2", v, omega, g_y, g_z, geom))
        assert abs(total - (-2.0 * 0.75 * g_z)) <= 1e-12 * max(1.0, abs(g_z))
    counterexamples = 0
    for _ in range(100_000):
        v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
        g_y = rng.uniform(-6, 6)
        g_z = -rng.uniform(0.5, 12)
        inside = (eval_h("h1", v, omega, g_y, g_z, geom) >= 0
                  and eval_h("h2", v, omega, g_y, g_z, geom) >= 0)
        tip = abs(zmp_lateral(v, omega, g_y, g_z, geom)) <= 0.30 + 1e-12
        counterexamples += inside != tip
    assert counterexamples == 0
    announce(capsys,
             "PASS criterion 8: pair-sum identity to 1e-12 (1e4 samples); "
             "edge equivalence 0 counterexamples in 1e5 samples")


def test_criterion_9_schedule_check_examples(capsys):
    # budget schedule examples
    assert check_budget_schedule(DisturbanceBudget(0, 1, 0),
                                 AlphaLinear(1.0), 5.0).passed
    ok = check_budget_schedule(DisturbanceBudget(0.0, 1.0, 1.0),
                               AlphaLinear(2.0), 5.0)
    assert ok.passed and ok.min_margin == pytest.approx(1.0)
    bad = check_budget_schedule(DisturbanceBudget(1.0, 0.5, 0.0),
                                AlphaLinear(1.0), 5.0)
    assert not bad.passed and bad.first_violation_t == 0.0

    # envelope/budget compatibility examples
    env = lambda t: (0.5 * math.exp(-1.5 * t) + 0.2, -0.75 * math.exp(-1.5 * t))
    assert check_envelope_budget(1.25, env, DisturbanceBudget(0, 1, 0),
                                 AlphaLinear(2.0), 5.0).passed
    boundary = check_envelope_budget(
        1.25, lambda t: (0.4, 0.0),
        DisturbanceBudget(0.0, 1.0, 2.0 * 1.25 * 0.4), AlphaLinear(2.0), 5.0)
    assert boundary.passed and boundary.min_margin == pytest.approx(0.0, abs=1e-12)
    exceeded = check_envelope_budget(
        1.25, lambda t: (0.1, 0.0), DisturbanceBudget(0.0, 1.0, 10.0),
        AlphaLinear(2.0), 5.0)
    assert not exceeded.passed and exceeded.first_violation_t == 0.0
    announce(capsys,
             "PASS criterion 9: schedule and compatibility checks reproduce "
             "their example outcomes exactly")


def test_criterion_10_determinism(tmp_path, capsys):
    for filt in ("envelope", "none"):
        paths = []
        for run_idx in range(2):
            res = harness.run(Scenario(filter=filt, seed=3))
            path = tmp_path / f"{filt}_{run_idx}.csv"
            harness.write_trace(res.records, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
    announce(capsys,
             "PASS criterion 10: same-seed reruns produce byte-identical "
             "traces")
