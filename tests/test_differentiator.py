import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollguard import differentiator
from rollguard.differentiator import (BackwardDiffWindow, DiffChannel,
                                      DifferentiatorBank, EnvelopeCoeffs,
                                      HgoParams, backward_diff,
                                      calibrate_envelope, check_rk4_resolves,
                                      error_dynamics_eigenvalues,
                                      error_envelope, hgo_rates, rk4_amplification,
                                      smooth_max)
from rollguard.errors import DomainError
from rollguard.scenario import Scenario
from rollguard.sysmodel import NoiseModel, observer_period, step_rk4


def make_bank(coeffs, e0_bound=0.0, v_inf=0.0):
    return DifferentiatorBank((DiffChannel(), DiffChannel()), HgoParams(),
                              coeffs, e0_bound, v_inf)


def smooth_max_rate(values, rates, sharpness: float) -> float:
    """Chain rule through `smooth_max`: convex softmax weights applied to
    the channel rates. The reference for the rate of
    `DifferentiatorBank.envelope`, which takes it in closed form."""
    if sharpness <= 0.0:
        raise DomainError("sharpness must be positive")
    vals = list(values)
    rts = list(rates)
    if len(vals) != len(rts):
        raise DomainError("values and rates length mismatch")
    if not vals:
        raise DomainError("smooth_max_rate of an empty list")
    m = max(vals)
    ws = [math.exp(sharpness * (v - m)) for v in vals]
    total = sum(ws)
    return sum(w * r for w, r in zip(ws, rts)) / total


class TestHgo:
    def test_fixed_point_at_zero_innovation(self):
        assert hgo_rates(3.2, 0.0, HgoParams(2, 1, 10), 3.2) == (0.0, 0.0)

    def test_direct_substitution(self):
        assert hgo_rates(0.0, 0.0, HgoParams(2, 1, 10), 1.0) == (20.0, 100.0)

    def test_ramp_slope_recovered(self):
        # noise-free ramp input: the rate estimate converges to the slope
        params = HgoParams(2, 1, 10)
        y = (0.0, 0.0)

        def rhs(t, yy):
            return hgo_rates(*yy, params, t)

        t, dt = 0.0, 1e-3
        for _ in range(5000):
            y = step_rk4(y, t, dt, rhs)
            t += dt
        assert y[1] == pytest.approx(1.0, abs=1e-9)

    def test_params_validated(self):
        with pytest.raises(DomainError):
            HgoParams(k1=0.0)


class TestEnvelope:
    def test_zero_everything(self):
        bank = make_bank(EnvelopeCoeffs(2.0, 1.0, 0.5), e0_bound=0.0, v_inf=0.0)
        assert error_envelope(bank, 0.0)[0] == 0.0
        assert error_envelope(bank, 7.0)[0] == 0.0

    def test_substitution(self):
        bank = make_bank(EnvelopeCoeffs(2.0, 1.0, 0.5), e0_bound=1.0, v_inf=0.2)
        assert error_envelope(bank, 0.0)[0] == pytest.approx(2.1)
        assert error_envelope(bank, 60.0)[0] == pytest.approx(0.1)

    def test_rate_substitution(self):
        bank = make_bank(EnvelopeCoeffs(2.0, 1.0, 0.5), e0_bound=1.0, v_inf=0.2)
        assert error_envelope(bank, 0.0)[1] == pytest.approx(-2.0)
        assert error_envelope(bank, 50.0)[1] <= 0.0

    def test_rate_matches_central_difference(self):
        bank = make_bank(EnvelopeCoeffs(1.5, 2.3, 0.4), e0_bound=0.7, v_inf=0.3)
        eps = 1e-4
        for t in (0.1, 0.5, 2.0):
            fd = (error_envelope(bank, t + eps)[0]
                  - error_envelope(bank, t - eps)[0]) / (2 * eps)
            assert error_envelope(bank, t)[1] == pytest.approx(fd, abs=1e-6)

    def test_negative_time_rejected(self):
        bank = make_bank(EnvelopeCoeffs(0.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            error_envelope(bank, -0.1)

    @pytest.mark.parametrize("coeffs", [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0),
                                        (1.0, 1.0, math.nan), (math.inf, 1.0, 0.0),
                                        (1.0, 1.0, math.inf), (-1.0, 1.0, 0.0)])
    def test_coefficients_must_be_finite_and_nonnegative(self, coeffs):
        with pytest.raises(DomainError):
            EnvelopeCoeffs(*coeffs)


class TestSmoothMax:
    def test_symmetric_pair(self):
        lam = 100.0
        assert smooth_max([0.4, 0.4], lam) == pytest.approx(0.4 + math.log(2) / lam)

    def test_dominant_value(self):
        assert smooth_max([1.0, 0.0], 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_gap_below_log_count(self):
        val = smooth_max([0.3, 0.7], 40.0)
        assert 0.7 <= val <= 0.7 + math.log(2) / 40.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            smooth_max([], 10.0)
        with pytest.raises(DomainError):
            smooth_max([1.0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(1.0, 500.0))
    def test_sandwich(self, values, lam):
        val = smooth_max(values, lam)
        top = max(values)
        assert top - 1e-12 <= val <= top + math.log(len(values)) / lam + 1e-12

    def test_overflow_safe(self):
        assert math.isfinite(smooth_max([1e4, -1e4], 100.0))

    def test_rate_uniform_weights(self):
        assert smooth_max_rate([0.5, 0.5], [2.0, -1.0], 80.0) == pytest.approx(0.5)

    def test_rate_zero(self):
        assert smooth_max_rate([0.1, 0.9], [0.0, 0.0], 80.0) == 0.0

    def test_rate_length_mismatch(self):
        with pytest.raises(DomainError):
            smooth_max_rate([1.0], [1.0, 2.0], 10.0)

    def test_rate_matches_central_difference(self):
        lam = 60.0
        m = lambda t: [0.5 * math.exp(-2.0 * t) + 0.05, 0.8 * math.exp(-1.1 * t)]
        dm = lambda t: [-1.0 * math.exp(-2.0 * t), -0.88 * math.exp(-1.1 * t)]
        eps = 1e-5
        for t in (0.0, 0.3, 1.5):
            fd = (smooth_max(m(t + eps), lam) - smooth_max(m(t - eps), lam)) / (2 * eps)
            assert smooth_max_rate(m(t), dm(t), lam) == pytest.approx(fd, abs=1e-6)

    def test_weights_are_convex(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            vals = rng.uniform(-5, 5, size=3)
            shifted = np.exp(50.0 * (vals - vals.max()))
            w = shifted / shifted.sum()
            assert np.all(w >= 0) and np.all(w <= 1)
            assert w.sum() == pytest.approx(1.0)
            rates = rng.uniform(-3, 3, size=3)
            assert smooth_max_rate(list(vals), list(rates), 50.0) == \
                pytest.approx(float(w @ rates), abs=1e-12)


class TestBackwardDiff:
    def test_constant_signal(self):
        win = BackwardDiffWindow(period=0.02)
        for _ in range(5):
            win.push(4.2)
        assert backward_diff(win) == pytest.approx(0.0, abs=1e-12)

    def test_exact_on_quadratic(self):
        win = BackwardDiffWindow(period=0.1)
        for t in (0.8, 0.9, 1.0):
            win.push(t * t)
        assert backward_diff(win) == pytest.approx(2.0, abs=1e-12)

    def test_exact_on_line(self):
        for period in (0.01, 0.3):
            win = BackwardDiffWindow(period=period)
            for t in (1.0 - 2 * period, 1.0 - period, 1.0):
                win.push(3.0 * t - 1.0)
            assert backward_diff(win) == pytest.approx(3.0, abs=1e-9)

    def test_random_quadratics_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c = rng.uniform(-5, 5, size=3)
            period = rng.uniform(0.005, 0.2)
            tn = rng.uniform(-2, 2)
            win = BackwardDiffWindow(period=period)
            for t in (tn - 2 * period, tn - period, tn):
                win.push(a * t * t + b * t + c)
            assert backward_diff(win) == pytest.approx(2 * a * tn + b, abs=1e-9)

    def test_warm_up_flagged(self):
        win = BackwardDiffWindow(period=0.02)
        win.push(1.0)
        assert not win.ready and backward_diff(win) == 0.0
        win.push(2.0)
        assert not win.ready and backward_diff(win) == 0.0
        win.push(3.0)
        assert win.ready

    def test_bad_period(self):
        with pytest.raises(DomainError):
            BackwardDiffWindow(period=0.0)


# the run's grid at the defaults: 525 control steps of 4 substeps of 5 ms,
# the horizon step included
_DEFAULT = Scenario()
SUB_DT = _DEFAULT.grid()[2]
GRID = (SUB_DT, _DEFAULT.grid()[1] * _DEFAULT.substeps)


def drive_observer(params, dt, n, boundary=None, mid=None, e0=((0.0, 0.0), (0.0, 0.0))):
    """The shipped `sysmodel.observer_period`, one substep of dt per call
    from t = 0, on both channels at zero truth, so the estimates are the
    errors. Channel c starts at e0[c] and measures the noise
    boundary[c][j] at time j dt (the end of substep j - 1 and the start of
    substep j) and mid[c][j] at substep j's midpoint; absent samples are
    zero. Returns per channel the errors (value, rate) at m = 0 .. n."""
    boundary = boundary or ({}, {})
    mid = mid or ({}, {})

    def signals(t):
        idx = round(t / (0.5 * dt))
        table, j = (mid, (idx - 1) // 2) if idx % 2 else (boundary, idx // 2)
        return 0.0, 0.0, table[0].get(j, 0.0), table[1].get(j, 0.0), 0.0, 0.0

    period = observer_period(params, signals, 1, dt)
    o, sig = (e0[0][0], e0[0][1], e0[1][0], e0[1][1]), signals(0.0)
    out = ([e0[0]], [e0[1]])
    for m in range(n):
        o, sig = period(o, m * dt, (m + 1) * dt, sig, [])
        out[0].append(o[:2])
        out[1].append(o[2:])
    return np.array(out[0]), np.array(out[1])


def impulse_responses(params, dt, n):
    """The observer's errors at m = 0 .. n after one unit noise sample,
    shape (n + 1, 2) each: A from the sample at t = dt, which ends substep
    0 and starts substep 1; B from substep 0's midpoint; C from the sample
    at t = 0, which only starts substep 0. By time invariance the sample
    ending substep j - 1 adds A[m - j + 1] to e_m, and the midpoint of
    substep j adds B[m - j]."""
    a, b = drive_observer(params, dt, n, boundary=({1: 1.0}, {}), mid=({}, {0: 1.0}))
    c, _ = drive_observer(params, dt, n, boundary=({0: 1.0}, {}))
    return a, b, c


def noise_sums(params, dt, n):
    """Brute force from the impulse responses: per row, the l1 norm of the
    noise response of the error at every m = 1 .. n, shape (n, 2)."""
    a, b, c = impulse_responses(params, dt, n)
    a, b = np.abs(a[1:]), np.abs(b[1:])
    return np.cumsum(a, axis=0) + np.cumsum(b, axis=0) + np.abs(c[1:])


def transition_powers(params, dt, n):
    """Phi^m for m = 0 .. n from the shipped observer, shape (n + 1, 2, 2)."""
    col1, col2 = drive_observer(params, dt, n, e0=((1.0, 0.0), (0.0, 1.0)))
    return np.stack((col1, col2), axis=2)


class TestCalibration:
    def test_error_dynamics_hurwitz(self):
        """The closed form covers all three root configurations and agrees
        with numpy's companion-matrix roots."""
        key = lambda e: (e.real, e.imag)
        for params in (HgoParams(2, 1, 50),    # double root
                       HgoParams(3, 1, 50),    # distinct real roots
                       HgoParams(1, 1, 50)):   # complex-conjugate pair
            eigs = error_dynamics_eigenvalues(params)
            assert all(e.real < 0 for e in eigs)
            reference = np.roots([1.0, params.k1 * params.ell,
                                  params.k2 * params.ell ** 2])
            assert sorted(eigs, key=key) == pytest.approx(
                sorted((complex(e) for e in reference), key=key), rel=1e-12)
            coeffs = calibrate_envelope(params, 0.02, 8.0, *GRID)
            assert type(coeffs.decay_rate) is float
            assert coeffs.decay_rate == pytest.approx(
                0.9 * min(-e.real for e in eigs), rel=1e-15)
        eigs = error_dynamics_eigenvalues(HgoParams(2, 1, 50))
        assert max(e.real for e in eigs) == pytest.approx(-50.0, abs=1e-3)

    def test_rejects_unusable_combination(self):
        with pytest.raises(DomainError):
            calibrate_envelope(HgoParams(2, 1, 50), 0.0, 1.0, *GRID)

    def test_stiff_observer_within_the_step_bound_calibrates(self):
        """k1 = 16 (roots 254 times apart) at a 0.5 ms substep over the
        10.5 s horizon: 21 000 substeps, far inside MAX_RUN_SUBSTEPS, which
        bounds the calibration's cost as it bounds the run's."""
        start = time.perf_counter()
        coeffs = calibrate_envelope(HgoParams(16, 1, 50), 0.01, 8.0, 0.0005, 21_000)
        assert time.perf_counter() - start < 1.0
        assert all(math.isfinite(c) and c > 0.0 for c in
                   (coeffs.transient_gain, coeffs.decay_rate, coeffs.noise_gain))

    def test_known_coefficients(self):
        """Pins the calibration of the default design on the flagship grid:
        the bits must not move when the sums are reorganised."""
        want = {(0.01, 8.0): (184.04939469602718, 45.0, 68.80792934473419),
                (0.05, 8.0): (184.04939469602718, 45.0, 43.21140611427783),
                (0.0, 0.0): (184.04939469602718, 45.0, 36.813037708534274)}
        for (v_inf, curvature), coeffs in want.items():
            got = calibrate_envelope(HgoParams(), v_inf, curvature, *GRID)
            assert (got.transient_gain, got.decay_rate, got.noise_gain) == coeffs

    def test_quadrature_once_per_design(self):
        """Two noise levels of one design on one grid are two calibrations
        on one run of the noise-independent grid sums."""
        params = HgoParams(2.5, 1.5, 31.0)  # a design no other test calibrates
        sums = differentiator._grid_sums
        before = sums.cache_info()
        first = calibrate_envelope(params, 0.01, 8.0, *GRID)
        second = calibrate_envelope(params, 0.05, 8.0, *GRID)
        after = sums.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert first.transient_gain == second.transient_gain
        assert first.decay_rate == second.decay_rate
        assert first.noise_gain != second.noise_gain

    def test_decay_rate_rule(self):
        coeffs = calibrate_envelope(HgoParams(2, 1, 50), 0.02, 8.0, *GRID)
        assert coeffs.decay_rate == pytest.approx(45.0, rel=1e-3)
        assert coeffs.transient_gain >= 1.0
        assert coeffs.noise_gain > 0.0

    def test_envelope_soundness_battery(self):
        """Sinusoids within the calibration class, seeded bounded noise: the
        error norm must stay inside the envelope calibrated on the
        battery's own grid, at 0.5 ms and at the run's 5 ms substep."""
        params = HgoParams(2, 1, 50)
        v_inf, curvature = 0.02, 8.0
        pdot_bound = 4.5
        for dt, steps, stride in ((5e-4, 8000, 10), (5e-3, 800, 1)):
            coeffs = calibrate_envelope(params, v_inf, curvature, dt, steps)
            rng = np.random.default_rng(2024)
            violations = 0
            for trial in range(10):
                omega = rng.uniform(0.3, 1.3)
                amp = min(curvature / omega ** 2, pdot_bound / omega) * rng.uniform(0.3, 1.0)
                phase = rng.uniform(0, 2 * math.pi)
                noise = NoiseModel(v_inf, 200.0, 4.0, seed=int(rng.integers(1 << 30)),
                                   tau=0.004)
                p0 = lambda t: amp * math.sin(omega * t + phase)
                p0dot = lambda t: amp * omega * math.cos(omega * t + phase)
                bank = make_bank(coeffs, e0_bound=v_inf + pdot_bound, v_inf=v_inf)

                def rhs(t, yy):
                    return hgo_rates(*yy, params, p0(t) + noise.sample(t)[0])

                y = (p0(0.0) + noise.sample(0.0)[0], 0.0)
                t = 0.0
                for k in range(steps):
                    y = step_rk4(y, t, dt, rhs)
                    t += dt
                    if k % stride == 0:
                        err = math.hypot(y[0] - p0(t), y[1] - p0dot(t))
                        if err > error_envelope(bank, t)[0] + 1e-9:
                            violations += 1
            assert violations == 0, dt

    def test_continuous_limit(self):
        """As dt -> 0 the default design's four sums approach the L1 norms
        of the continuous impulse responses of the double root -ell:
        value and rate from the noise, 1 + 2 e^-2 and 2 ell / e, and from
        the curvature, 1 / ell^2 and 2 / ell."""
        ell = 50.0
        want = (1.0 + 2.0 * math.exp(-2.0), 2.0 * ell / math.e, 1.0 / ell ** 2, 2.0 / ell)
        got = differentiator._grid_sums(HgoParams(2, 1, ell), 1e-3, 1000)[2:]
        assert got == pytest.approx(want, rel=1e-6)
        # at the run's 5 ms substep the sums are a few 1e-5 off the limit
        coarse = differentiator._grid_sums(HgoParams(2, 1, ell), *GRID)[2:]
        assert coarse != pytest.approx(want, rel=1e-6)

    def test_peano_kernel_is_the_substep_defect(self):
        """The truth's one-substep defect, the shipped substep from the true
        value and rate minus the true end point, equals the integral of the
        Peano kernel K(u) = Gm (dt/2 - u)_+ + (G1 - e1)(dt - u) - e2
        against p0_ddot, on sinusoids and three designs."""
        rng = np.random.default_rng(17)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        dt = SUB_DT
        for params in (HgoParams(), HgoParams(4, 0.2, 137), HgoParams(1, 1, 20)):
            gm = drive_observer(params, dt, 1, mid=({0: 1.0}, {}))[0][1]
            g1 = drive_observer(params, dt, 1, boundary=({1: 1.0}, {}))[0][1]
            for _ in range(20):
                amp, omega, phase = rng.uniform(0.5, 2.0), rng.uniform(0.5, 20.0), \
                    rng.uniform(0.0, 2 * math.pi)
                t0 = float(rng.uniform(0.0, 5.0))
                p0 = lambda t: amp * math.sin(omega * (t0 + t) + phase)
                p1 = lambda t: amp * omega * math.cos(omega * (t0 + t) + phase)
                samples = {0: p0(0.0), 1: p0(dt)}
                direct = drive_observer(params, dt, 1, boundary=(samples, {}),
                                        mid=({0: p0(0.5 * dt)}, {}),
                                        e0=((p0(0.0), p1(0.0)), (0.0, 0.0)))[0][1]
                direct = direct - (p0(dt), p1(dt))
                peano = np.zeros(2)
                for lo, hi in ((0.0, 0.5 * dt), (0.5 * dt, dt)):
                    for x, w in zip(nodes, weights):
                        u = lo + (hi - lo) * 0.5 * (x + 1.0)
                        kernel = (gm * max(0.5 * dt - u, 0.0) + (g1 - (1.0, 0.0)) * (dt - u)
                                  - (0.0, 1.0))
                        p2 = -amp * omega ** 2 * math.sin(omega * (t0 + u) + phase)
                        peano += 0.5 * (hi - lo) * w * kernel * p2
                scale = amp * omega ** 2 * dt  # the defect's size
                assert direct == pytest.approx(peano, rel=1e-9, abs=1e-10 * scale)

    @pytest.mark.parametrize("params, horizon", [
        (HgoParams(), 10.5),
        (HgoParams(4, 0.2, 137), 10.5),
        # near the RK4 bound the weighted transient grows with m; on the
        # 10.5 s grid it peaks at m = 1115, where Phi^m is exp(-1410), below
        # the float range, so its transient is driven on a 1 s grid
        (HgoParams(2, 1, 281), 1.0),
    ], ids=["default", "k1_4_k2_0.2_ell_137", "ell_281"])
    def test_tightness_battery(self, params, horizon):
        """The envelope is the exact worst case of the observer the run
        integrates. Driven at the run's substep with v_inf times the sign
        of each noise response coefficient (the value row's signs on one
        channel, the rate row's on the other), the two rows reach the
        noise term within 1e-6 and no error norm exceeds it; driven from
        e0 along the top singular vector of Phi^m*, the transient reaches
        the envelope at m* and never exceeds it. The sums also match the
        brute-force impulse responses and matrix powers to 1e-9. Rounding
        slack 1e-12 relative on "never exceeds"."""
        v_inf, dt, n = 0.01, SUB_DT, GRID[1]
        coeffs = calibrate_envelope(params, v_inf, 0.0, dt, n)
        sums = noise_sums(params, dt, n)
        tops = sums.max(axis=0)
        a, b, c = impulse_responses(params, dt, n)
        # channel `row` gets the signs of row `row` at its peak m
        peaks = np.argmax(sums, axis=0) + 1
        boundary, mid = ({}, {}), ({}, {})
        for row, peak in enumerate(peaks):
            for j in range(1, peak + 1):
                boundary[row][j] = v_inf * float(np.sign(a[peak - j + 1, row]))
                mid[row][j - 1] = v_inf * float(np.sign(b[peak - j + 1, row]))
            boundary[row][0] = v_inf * float(np.sign(c[peak, row]))
        errors = drive_observer(params, dt, n, boundary, mid)
        for row, peak in enumerate(peaks):
            norms = np.hypot(errors[row][:, 0], errors[row][:, 1])
            assert norms.max() <= coeffs.noise_gain * v_inf * (1 + 1e-12)
            assert abs(errors[row][peak, row]) == pytest.approx(v_inf * tops[row], rel=1e-6)
        assert coeffs.noise_gain == pytest.approx(math.hypot(*tops), rel=1e-9)
        # the transient, on the design's own grid
        n = round(horizon / dt)
        coeffs = calibrate_envelope(params, 0.0, 0.0, dt, n)
        powers = transition_powers(params, dt, n)
        weights = np.exp(coeffs.decay_rate * dt * np.arange(n + 1))
        norms = np.linalg.norm(powers, 2, axis=(1, 2))
        peak = int(np.argmax(norms * weights))
        e0 = np.linalg.svd(powers[peak])[2][0]
        errors = drive_observer(params, dt, n, e0=(tuple(e0), (0.0, 0.0)))[0]
        bank = make_bank(coeffs, e0_bound=1.0, v_inf=0.0)
        bound = np.array([error_envelope(bank, m * dt)[0] for m in range(n + 1)])
        reached = np.hypot(errors[:, 0], errors[:, 1])
        assert (reached <= bound * (1 + 1e-12)).all()
        assert reached[peak] == pytest.approx(bound[peak], rel=1e-6)
        assert coeffs.transient_gain == pytest.approx(norms[peak] * weights[peak], rel=1e-9)

    def test_sums_match_the_impulse_response_on_random_designs(self):
        """Over the tests' design ranges, on a 2 s grid at the run's substep,
        the calibrated gains equal the brute-force sums of the shipped
        observer's impulse responses and matrix powers to 1e-9."""
        rng = np.random.default_rng(29)
        dt, n = SUB_DT, 400
        for _ in range(6):
            params = HgoParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 3.0)),
                               float(rng.uniform(5.0, 90.0)))
            coeffs = calibrate_envelope(params, 0.0, 0.0, dt, n)
            tops = noise_sums(params, dt, n).max(axis=0)
            assert differentiator._grid_sums(params, dt, n)[2:4] == pytest.approx(
                tuple(tops), rel=1e-9)
            powers = transition_powers(params, dt, n)
            weighted = (np.linalg.norm(powers, 2, axis=(1, 2))
                        * np.exp(coeffs.decay_rate * dt * np.arange(n + 1)))
            assert coeffs.transient_gain == pytest.approx(weighted.max(), rel=1e-9)


class TestRk4Resolution:
    """The load-time condition that RK4 at the run's substep damps each
    observer error mode at least as fast as the envelope assumes."""

    def test_stability_function(self):
        # R is e^z to fourth order, and one RK4 step of y' = lambda y
        for z in (-1e-3, -0.1, 0.25j, complex(-0.2, 0.3)):
            assert abs(rk4_amplification(z) - abs(np.exp(z))) <= abs(z) ** 5
        lam, dt = -37.0, 0.01
        y = step_rk4((1.0,), 0.0, dt, lambda t, yy: (lam * yy[0],))[0]
        assert rk4_amplification(lam * dt) == pytest.approx(abs(y), rel=1e-15)
        # the real stability interval ends near z = -2.785
        assert rk4_amplification(-2.78) < 1.0 < rk4_amplification(-2.79)

    def test_critically_damped_bound_at_the_default_substep(self):
        """(s + ell)^2 at sub_dt = 5 ms: resolved up to ell about 281."""
        check_rk4_resolves(HgoParams(2, 1, 281.0), 0.005)
        for ell in (282.0, 550.0, 1000.0):
            with pytest.raises(DomainError, match="not resolved by RK4"):
                check_rk4_resolves(HgoParams(2, 1, ell), 0.005)
        # a shorter substep resolves it again
        check_rk4_resolves(HgoParams(2, 1, 550.0), 0.0025)

    def test_non_finite_stability_function_is_a_domain_error(self):
        """At ell = 1e100 R overflows; the check says so instead of raising
        OverflowError or comparing inf."""
        for params in (HgoParams(2, 1, 1e100), HgoParams(1, 1, 1e100)):
            with pytest.raises(DomainError, match="overflows"):
                check_rk4_resolves(params, 0.005)

    def test_admits_every_design_of_the_test_ranges(self):
        """The random designs the tests draw (k1 0.5-4, k2 0.2-3, ell
        5-90) stay admitted at the default substep."""
        for k1 in np.linspace(0.5, 4.0, 15):
            for k2 in np.linspace(0.2, 3.0, 15):
                for ell in np.linspace(5.0, 90.0, 18):
                    check_rk4_resolves(HgoParams(float(k1), float(k2), float(ell)), 0.005)


def test_bank_envelope_aggregation():
    bank = make_bank(EnvelopeCoeffs(2.0, 1.0, 0.5), e0_bound=1.0, v_inf=0.1)
    value, rate = bank.envelope(0.5)
    bound = error_envelope(bank, 0.5)[0]
    assert bound <= value <= bound + math.log(2) / 100.0
    assert rate <= 0.0


@pytest.mark.parametrize("v_inf", [0.0, 0.01, 0.05])
def test_bank_envelope_bit_equal_to_reference(v_inf):
    """The bank's envelope is the smooth maximum at sharpness 100 of its two
    channels, both bounded by the one error_envelope, and its rate the
    chain rule through it, bit for bit, from t = 0 on; a zero e0_bound
    gives the -0.0 rate that the softmax-weighted mean turns into +0.0."""
    for e0_bound in (4.51, 0.0):
        bank = make_bank(EnvelopeCoeffs(1.9, 45.0, 0.73), e0_bound, v_inf)
        times = [0.0] + np.random.default_rng(8).exponential(0.3, 300).tolist()
        for t in times:
            bound, bound_rate = error_envelope(bank, t)
            want = (smooth_max([bound, bound], 100.0),
                    smooth_max_rate([bound, bound], [bound_rate, bound_rate], 100.0))
            got = bank.envelope(t)
            assert [x.hex() for x in got] == [x.hex() for x in want], (e0_bound, t)
    assert bound_rate.hex() == (-0.0).hex()
    assert got[1].hex() == (0.0).hex()


def test_bank_envelope_rejects_negative_time():
    bank = make_bank(EnvelopeCoeffs(0.0, 1.0, 0.0), v_inf=0.01)
    with pytest.raises(DomainError):
        bank.envelope(-1e-9)
    with pytest.raises(DomainError):
        error_envelope(bank, -1e-9)


def test_bank_requires_channels():
    for channels in ((), (DiffChannel(),), (DiffChannel(),) * 3):
        with pytest.raises(DomainError, match="one channel per gravity component"):
            DifferentiatorBank(channels=channels, hgo=HgoParams(),
                               coeffs=EnvelopeCoeffs(0.0, 1.0, 0.0), e0_bound=0.0, v_inf=0.0)
