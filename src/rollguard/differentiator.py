"""Derivative estimation for noisy slope-gravity signals.

Each measured channel p(t) = p0(t) + v(t), |v| <= v_inf, is differentiated
by a high-gain observer

    value_est_dot = rate_est + k1 * ell * (p - value_est)
    rate_est_dot  = k2 * ell^2 * (p - value_est)

`hgo_rates` is this right-hand side for one channel, pure over floats: the
estimate rates of every constraint row, and under `step_rk4` the source
of `sysmodel.substep_map`, the observer's RK4 substep as the one affine
map that the run applies. Its error has a certified envelope

    M(t) = transient_gain * exp(-decay_rate * t) * e0_bound
           + noise_gain * v_inf.

`calibrate_envelope` produces coefficients that make the envelope the
exact worst-case bound on the error norm of the observer the run
integrates (that map on the run's grid), at every
substep end, for every admissible noise realization and initial error
and every true signal whose second derivative stays within the configured
bound. Both gravity channels share one observer design, one initial error
bound and one noise level, so a `DifferentiatorBank` holds one M(t),
`error_envelope`. The rows and `h_rob` use `DifferentiatorBank.envelope`,
M + ln(2)/100: the log-sum-exp smooth maximum of the two equal channel
envelopes at sharpness 100.

A three-point backward difference is included as the naive baseline; it is
exact on quadratics and badly noise-amplifying, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache

from .errors import DomainError
from .sysmodel import substep_map


@dataclass(frozen=True)
class HgoParams:
    """Observer design coefficients; k1, k2 > 0 keeps the error dynamics
    Hurwitz for any positive high-gain parameter ell whose k1 ell and
    k2 ell^2 are finite nonzero floats."""

    k1: float = 2.0
    k2: float = 1.0
    ell: float = 50.0

    def __post_init__(self):
        if not (self.k1 > 0.0 and self.k2 > 0.0 and 0.0 < self.k1 * self.ell < math.inf
                and 0.0 < self.k2 * self.ell * self.ell < math.inf):
            raise DomainError(f"HGO parameters must be positive, with k1 * ell and "
                              f"k2 * ell^2 finite and nonzero, got {self!r}")


@dataclass(frozen=True)
class EnvelopeCoeffs:
    transient_gain: float
    decay_rate: float
    noise_gain: float

    def __post_init__(self):
        if not all(0.0 <= v < math.inf for v in astuple(self)):
            raise DomainError(f"envelope coefficients must be finite and >= 0: {self!r}")


@dataclass
class DiffChannel:
    """Estimator state of one measured channel."""

    value_est: float = 0.0
    rate_est: float = 0.0


@dataclass(frozen=True)
class DifferentiatorBank:
    """The two gravity channels (lateral, normal), differentiated separately
    with one shared observer design; each channel's error is bounded by the
    one envelope M(t) of `coeffs`, `e0_bound` and `v_inf`."""

    channels: tuple[DiffChannel, ...]
    hgo: HgoParams
    coeffs: EnvelopeCoeffs
    e0_bound: float
    v_inf: float

    def __post_init__(self):
        if len(self.channels) != 2:
            raise DomainError("bank needs one channel per gravity component")

    def envelope(self, t: float) -> tuple[float, float]:
        """Smooth maximum of the two equal channel envelopes at t and its rate,
        (M + ln(2)/100, dM/dt + 0.0); the + 0.0 makes a zero rate +0.0."""
        value, rate = error_envelope(self, t)
        return value + _CHANNEL_MAX_OFFSET, rate + 0.0


def hgo_rates(value_est: float, rate_est: float, params: HgoParams,
              p: float) -> tuple[float, float]:
    """Time derivatives of one channel's (value_est, rate_est) for one
    measurement p; pure over floats. Integration is owned by the caller as
    part of the augmented state."""
    innov = p - value_est
    return (rate_est + params.k1 * params.ell * innov,
            params.k2 * params.ell * params.ell * innov)


def error_envelope(bank: DifferentiatorBank, t: float) -> tuple[float, float]:
    """The bank's error envelope M(t) and its time derivative (<= 0); one exp."""
    if t < 0.0:
        raise DomainError("envelope is defined for t >= 0")
    c = bank.coeffs
    decay = math.exp(-c.decay_rate * t)
    return (c.transient_gain * decay * bank.e0_bound + c.noise_gain * bank.v_inf,
            -c.transient_gain * c.decay_rate * decay * bank.e0_bound)


def smooth_max(values, sharpness: float) -> float:
    """Log-sum-exp upper approximation of max(values).

    Satisfies max <= result <= max + ln(len(values)) / sharpness. Computed
    with the max-shift trick so large inputs cannot overflow.
    """
    if sharpness <= 0.0:
        raise DomainError("sharpness must be positive")
    vals = list(values)
    if not vals:
        raise DomainError("smooth_max of an empty list")
    m = max(vals)
    acc = sum(math.exp(sharpness * (v - m)) for v in vals)
    return m + math.log(acc) / sharpness


# log-sum-exp of two equal channel envelopes above their value, at sharpness 100
_CHANNEL_MAX_OFFSET = smooth_max((0.0, 0.0), 100.0)


@dataclass
class BackwardDiffWindow:
    """Last three samples of one channel at a fixed sampling period."""

    period: float
    p_n: float = 0.0
    p_n1: float = 0.0
    p_n2: float = 0.0
    count: int = 0

    def __post_init__(self):
        if self.period <= 0.0:
            raise DomainError("sampling period must be positive")

    def push(self, p: float) -> None:
        self.p_n2 = self.p_n1
        self.p_n1 = self.p_n
        self.p_n = p
        self.count += 1

    @property
    def ready(self) -> bool:
        return self.count >= 3


def backward_diff(window: BackwardDiffWindow) -> float:
    """Three-point backward difference; returns 0 during the two-sample
    warm-up (the caller can test window.ready)."""
    if window.period <= 0.0:
        raise DomainError("sampling period must be positive")
    if not window.ready:
        return 0.0
    return (3.0 * window.p_n - 4.0 * window.p_n1 + window.p_n2) / (2.0 * window.period)


def error_dynamics_eigenvalues(params: HgoParams) -> tuple[complex, complex]:
    """Roots of the characteristic polynomial s^2 + k1 ell s + k2 ell^2.

    Closed form in plain floats, so every quantity calibrated from them is
    a builtin number. A real pair is formed with the cancellation-free
    variant of the quadratic formula (the smaller-magnitude root as c / q).
    """
    b = params.k1 * params.ell
    c = params.k2 * params.ell * params.ell
    disc = b * b - 4.0 * c
    if disc > 0.0:
        q = -0.5 * (b + math.sqrt(disc))
        return complex(q), complex(c / q)
    if disc == 0.0:
        return complex(-0.5 * b), complex(-0.5 * b)
    im = 0.5 * math.sqrt(-disc)
    return complex(-0.5 * b, im), complex(-0.5 * b, -im)


def rk4_amplification(z: complex) -> float:
    """|R(z)| for classical RK4, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: the
    factor by which one step of size dt scales a linear mode e^(lambda t),
    at z = lambda dt (Hairer & Wanner, Solving ODEs II, section IV.2). It
    is inf or nan where R overflows."""
    r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return math.hypot(r.real, r.imag)


def check_rk4_resolves(params: HgoParams, dt: float) -> None:
    """Raise DomainError unless RK4 steps of size dt damp each observer
    error mode at least as fast as the calibrated envelope assumes: for
    both roots lambda, |R(lambda dt)| <= exp(-decay_rate dt), with
    decay_rate 0.9 of the slowest root as in `calibrate_envelope`. The
    substep map's eigenvalues are R(lambda dt), so this keeps the
    calibration's transient max_m ||Phi^m|| exp(decay_rate m dt) from
    growing geometrically with the horizon into a sound but useless or
    overflowing envelope."""
    eigs = error_dynamics_eigenvalues(params)
    decay = 0.9 * min(-eig.real for eig in eigs)
    bound = math.exp(-decay * dt)
    for eig in eigs:
        amp = rk4_amplification(eig * dt)
        if not math.isfinite(amp):
            raise DomainError(f"observer error root {eig} overflows RK4's stability "
                              f"function at the substep {dt} s")
        if amp > bound:
            raise DomainError(f"observer error root {eig} is not resolved by RK4 at "
                              f"the substep {dt} s: one substep keeps {amp:.6g} of "
                              f"its mode, more than the envelope's "
                              f"exp(-decay_rate * substep) = {bound:.6g}")


def _spectral_norm_2x2(a, b, c, d) -> float:
    # largest singular value of [[a, b], [c, d]]
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    gap = max(fro2 * fro2 - 4.0 * det * det, 0.0)
    return math.sqrt(0.5 * (fro2 + math.sqrt(gap)))


@lru_cache(maxsize=64)
def calibrate_envelope(params: HgoParams, v_inf: float, curvature_bound: float,
                       dt: float, substeps: int) -> EnvelopeCoeffs:
    """Envelope coefficients for the observer the run integrates:
    `substeps` RK4 substeps of dt from t = 0 (the horizon step included),
    each the map `sysmodel.substep_map` that `sysmodel.observer_period`
    applies. Each substep reads the measurement p = p0 + v at its start,
    midpoint and end (the next start), so the error e = (value_est - p0,
    rate_est - p0_dot) obeys, with Phi, G0, Gm and G1 the map's own
    coefficients (Phi's value column implied),

        e_{m+1} = Phi e_m + G0 v_m + Gm v_{m+1/2} + G1 v_{m+1} + d_m.

    The truth's defect d_m is linear in p0 and vanishes for affine p0, so
    it is the integral over u in [0, dt] of K(u) p0_ddot(t_m + u), with the
    Peano kernel K(u) = Gm (dt/2 - u)_+ + (G1 - e1)(dt - u) - e2. Over
    m = 0 .. substeps: decay_rate is 0.9 of the slowest continuous root
    and transient_gain = max_m ||Phi^m||_2 exp(decay_rate m dt); per row
    (value, rate), the noise sum is the largest l1 norm of the noise
    response at any m (the end and next start coefficients of one sample
    added before the absolute value), and the curvature sum is
    sum_m int |row Phi^m K|, exact from K's values at 0, dt/2 and dt;
    noise_gain = hypot(the rows' noise sum v_inf + curvature sum
    curvature_bound) / v_inf. These are the l1 norms of the discrete
    impulse responses (Dahleh & Diaz-Bobillo, 1995), the worst cases over
    |v| <= v_inf, |p0_ddot| <= curvature_bound and ||e_0|| <= e0_bound, so
    ||e_m|| <= M(m dt) with no safety factor, at substep ends, where the
    run reads M (the rows, h_rob and the audit). Two premises remain,
    outside the sums, both at rounding level: the run's float times lie
    off the exact grid j dt/2 by under an ulp of the horizon (1.7e-15 s on
    the flagship grid), which moves a truth sample by up to pdot_bound
    times that (7.5e-15 at 4.5); and the walk applies the map in floats,
    which rounds a substep's result by under 1e-15 and moves the flagship
    walk's estimates off the map's exact recursion by up to 2.0e-15 in
    value and 8.9e-14 in rate. With the curvature folded into noise_gain,
    v_inf = 0 needs a zero curvature bound. `_grid_sums` runs once per
    (params, dt, substeps).
    """
    if v_inf < 0.0 or curvature_bound < 0.0:
        raise DomainError("bounds must be nonnegative")
    if v_inf == 0.0 and curvature_bound > 0.0:
        raise DomainError(
            "v_inf = 0 leaves no envelope term to absorb the curvature "
            "residual; set a positive v_inf or a zero curvature bound")

    decay, transient, noise1, noise2, curv1, curv2 = _grid_sums(params, dt, substeps)
    if v_inf > 0.0:
        noise = math.hypot(noise1 * v_inf + curv1 * curvature_bound,
                           noise2 * v_inf + curv2 * curvature_bound) / v_inf
    else:
        # curvature_bound is zero here; keep the noise gain meaningful
        noise = math.hypot(noise1, noise2)
    return EnvelopeCoeffs(transient_gain=transient, decay_rate=decay, noise_gain=noise)


def _mean_abs_linear(a: float, b: float) -> float:
    # mean of |a + (b - a) s| over s in [0, 1]
    total = abs(a) + abs(b)
    return 0.5 * total if a * b >= 0.0 else 0.5 * (a * a + b * b) / total


@lru_cache(maxsize=64)
def _grid_sums(params: HgoParams, dt: float, substeps: int) -> tuple[float, ...]:
    """The noise-independent part of `calibrate_envelope`: (decay_rate,
    transient_gain, the value and rate noise sums, the value and rate
    curvature sums)."""
    slowest = min(-eig.real for eig in error_dynamics_eigenvalues(params))
    decay, half = 0.9 * slowest, 0.5 * dt
    # the run's substep map, with Phi's value column implied by the others;
    # at k = 0: Phi^k G0, Gm and G1 as (value, rate) pairs, Phi^k (p), and
    # Q^k = (w Phi)^k (q), whose norm is the weighted transient
    f12, f22, x0, xm, x1, y0, ym, y1 = substep_map(params, dt)
    f11, f21 = 1.0 - x0 - xm - x1, -(y0 + ym + y1)
    p11, p12, p21, p22 = q11, q12, q21, q22 = 1.0, 0.0, 0.0, 1.0
    w11, w12, w21, w22 = (math.exp(decay * dt) * f for f in (f11, f12, f21, f22))
    run1 = run2 = top1 = top2 = curv1 = curv2 = last1 = last2 = 0.0
    transient = 1.0
    for _ in range(substeps):
        # the noise of e_{k+1}: both coefficients of each shared sample
        # (last = Phi^(k-1) G0), the midpoints, and the first start sample
        run1 += abs(xm) + abs(last1 + x1)
        run2 += abs(ym) + abs(last2 + y1)
        top1, top2 = max(top1, run1 + abs(x0)), max(top2, run2 + abs(y0))
        # each row of Phi^k K at dt/2 (kh), at dt (-p_r2) and at 0; K is
        # linear on each half substep
        kh1, kh2 = half * (x1 - p11) - p12, half * (y1 - p21) - p22
        curv1 += half * (_mean_abs_linear(half * xm + 2.0 * kh1 + p12, kh1)
                         + _mean_abs_linear(kh1, -p12))
        curv2 += half * (_mean_abs_linear(half * ym + 2.0 * kh2 + p22, kh2)
                         + _mean_abs_linear(kh2, -p22))
        last1, last2 = x0, y0
        x0, y0 = f11 * x0 + f12 * y0, f21 * x0 + f22 * y0
        xm, ym = f11 * xm + f12 * ym, f21 * xm + f22 * ym
        x1, y1 = f11 * x1 + f12 * y1, f21 * x1 + f22 * y1
        p11, p12, p21, p22 = (f11 * p11 + f12 * p21, f11 * p12 + f12 * p22,
                              f21 * p11 + f22 * p21, f21 * p12 + f22 * p22)
        q11, q12, q21, q22 = (w11 * q11 + w12 * q21, w11 * q12 + w12 * q22,
                              w21 * q11 + w22 * q21, w21 * q12 + w22 * q22)
        transient = max(transient, _spectral_norm_2x2(q11, q12, q21, q22))
    return decay, transient, top1, top2, curv1, curv2
