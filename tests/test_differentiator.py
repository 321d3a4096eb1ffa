import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollguard import differentiator
from rollguard.differentiator import (BackwardDiffWindow, DiffChannel,
                                      DifferentiatorBank, EnvelopeCoeffs,
                                      HgoParams, backward_diff,
                                      calibrate_envelope,
                                      error_dynamics_eigenvalues,
                                      error_envelope, hgo_rates, smooth_max)
from rollguard.errors import DomainError
from rollguard.sysmodel import NoiseModel, step_rk4


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
            coeffs = calibrate_envelope(params, 0.02, 8.0)
            assert type(coeffs.decay_rate) is float
            assert coeffs.decay_rate == pytest.approx(
                0.9 * min(-e.real for e in eigs), rel=1e-15)
        eigs = error_dynamics_eigenvalues(HgoParams(2, 1, 50))
        assert max(e.real for e in eigs) == pytest.approx(-50.0, abs=1e-3)

    def test_rejects_unusable_combination(self):
        with pytest.raises(DomainError):
            calibrate_envelope(HgoParams(2, 1, 50), v_inf=0.0, curvature_bound=1.0)

    def test_stiff_observer_within_the_step_bound_calibrates(self):
        """k1 = 16 (roots 254 times apart, 3.05e6 transition steps) stays
        under CALIBRATION_MAX_STEPS."""
        coeffs = calibrate_envelope(HgoParams(16, 1, 50), 0.01, 8.0)
        assert all(math.isfinite(c) and c > 0.0 for c in
                   (coeffs.transient_gain, coeffs.decay_rate, coeffs.noise_gain))

    def test_known_coefficients(self):
        """Pins the calibration of the default design: the bits must not
        move when the quadrature is reorganised."""
        want = {(0.01, 8.0): (230.01753991968005, 45.0, 86.00857536472208),
                (0.05, 8.0): (230.01753991968005, 45.0, 54.011361970659735),
                (0.0, 0.0): (230.01753991968005, 45.0, 46.013011940268846)}
        for (v_inf, curvature), coeffs in want.items():
            got = calibrate_envelope(HgoParams(), v_inf, curvature)
            assert (got.transient_gain, got.decay_rate, got.noise_gain) == coeffs

    def test_quadrature_once_per_design(self):
        """Two noise levels of one design are two calibrations on one run of
        the noise-independent quadrature."""
        params = HgoParams(2.5, 1.5, 31.0)  # a design no other test calibrates
        quadrature = differentiator._error_quadrature
        before = quadrature.cache_info()
        first = calibrate_envelope(params, 0.01, 8.0)
        second = calibrate_envelope(params, 0.05, 8.0)
        after = quadrature.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert first.transient_gain == second.transient_gain
        assert first.decay_rate == second.decay_rate
        assert first.noise_gain != second.noise_gain

    def test_decay_rate_rule(self):
        coeffs = calibrate_envelope(HgoParams(2, 1, 50), 0.02, 8.0)
        assert coeffs.decay_rate == pytest.approx(45.0, rel=1e-3)
        assert coeffs.transient_gain >= 1.0
        assert coeffs.noise_gain > 0.0

    def test_envelope_soundness_battery(self):
        """Sinusoids within the calibration class, seeded bounded noise:
        the rate-estimate error must stay inside the envelope throughout."""
        params = HgoParams(2, 1, 50)
        v_inf, curvature = 0.02, 8.0
        pdot_bound = 4.5
        coeffs = calibrate_envelope(params, v_inf, curvature)
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
            t, dt = 0.0, 5e-4
            for k in range(8000):
                y = step_rk4(y, t, dt, rhs)
                t += dt
                if k % 10 == 0:
                    err = abs(y[1] - p0dot(t))
                    if err > error_envelope(bank, t)[0] + 1e-9:
                        violations += 1
        assert violations == 0


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
