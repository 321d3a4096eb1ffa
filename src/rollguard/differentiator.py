"""Derivative estimation for noisy slope-gravity signals.

Each measured channel p(t) = p0(t) + v(t), |v| <= v_inf, is differentiated
by a high-gain observer

    value_est_dot = rate_est + k1 * ell * (p - value_est)
    rate_est_dot  = k2 * ell^2 * (p - value_est)

`hgo_rates` is this right-hand side for one channel, pure over floats: the
estimate rates of every constraint row, and the reference definition of
the observer half of `sysmodel.observer_period`. Its error has a
certified envelope

    M(t) = transient_gain * exp(-decay_rate * t) * e0_bound
           + noise_gain * v_inf.

`calibrate_envelope` produces coefficients that make the envelope a sound
upper bound on the error norm for every admissible noise realization and
every true signal whose second derivative stays within the configured
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

CALIBRATION_SAFETY = 1.25  # factor on every calibrated gain, for quadrature error
# calibration steps, 12000 * fastest / slowest root, ~2 us each; k1 = 16 takes 3.05e6
CALIBRATION_MAX_STEPS = 10_000_000


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
    envelope bounds the continuous-time observer; this is a necessary
    condition for its transient term to bound the integrated one."""
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
def calibrate_envelope(params: HgoParams, v_inf: float,
                       curvature_bound: float) -> EnvelopeCoeffs:
    """Envelope coefficients that soundly bound the observer error.

    The error e = (value_est - p0, rate_est - p0_dot) obeys the linear
    dynamics e_dot = A e + B_v v(t) + B_p p0_ddot(t) with

        A = [[-k1 ell, 1], [-k2 ell^2, 0]],
        B_v = (k1 ell, k2 ell^2),  B_p = (0, -1).

    decay_rate is 0.9 of the slowest error eigenvalue. transient_gain
    covers the initial-condition response: sup_t ||exp(At)|| e^(decay*t).
    The forced response is bounded through the componentwise L1 norms of
    the impulse responses, which is the exact worst case over all inputs
    with |v| <= v_inf and |p0_ddot| <= curvature_bound; the curvature share
    is folded into noise_gain, so v_inf = 0 is only admissible for signals
    with zero curvature bound. Everything is multiplied by
    CALIBRATION_SAFETY to absorb quadrature error. The quadrature depends
    on the design alone and runs once per design (`_error_quadrature`).
    """
    if v_inf < 0.0 or curvature_bound < 0.0:
        raise DomainError("bounds must be nonnegative")
    if v_inf == 0.0 and curvature_bound > 0.0:
        raise DomainError(
            "v_inf = 0 leaves no envelope term to absorb the curvature "
            "residual; set a positive v_inf or a zero curvature bound")

    decay, sup_weighted, gv1, gv2, gp1, gp2 = _error_quadrature(params)
    c1 = CALIBRATION_SAFETY * sup_weighted
    steady1 = gv1 * v_inf + gp1 * curvature_bound
    steady2 = gv2 * v_inf + gp2 * curvature_bound
    steady = math.hypot(steady1, steady2)
    if v_inf > 0.0:
        c3 = CALIBRATION_SAFETY * steady / v_inf
    else:
        # curvature_bound is zero here; keep the noise gain meaningful
        c3 = CALIBRATION_SAFETY * math.hypot(gv1, gv2)
    return EnvelopeCoeffs(transient_gain=c1, decay_rate=decay, noise_gain=c3)


@lru_cache(maxsize=64)
def _error_quadrature(params: HgoParams) -> tuple[float, ...]:
    """The noise-independent part of `calibrate_envelope` for one design:
    (decay_rate, sup_t ||exp(At)|| e^(decay*t), and the L1 norms of the
    impulse responses, gv1, gv2 from B_v and gp1, gp2 from B_p)."""
    eigs = error_dynamics_eigenvalues(params)
    slowest = min(-eig.real for eig in eigs)
    fastest = max(-eig.real for eig in eigs)
    if slowest <= 0.0:
        raise DomainError("observer error dynamics are not Hurwitz")
    decay = 0.9 * slowest

    k1l, k2l2 = params.k1 * params.ell, params.k2 * params.ell * params.ell
    a11, a12, a21, a22 = -k1l, 1.0, -k2l2, 0.0

    dt = 0.01 / fastest
    horizon = 120.0 / slowest
    if not horizon / dt <= CALIBRATION_MAX_STEPS:
        raise DomainError(f"observer error roots {fastest / slowest:.4g} times apart "
                          f"need {horizon / dt:.3g} calibration steps, more than "
                          f"{CALIBRATION_MAX_STEPS:.0e}")

    # exp(A*dt) by plain Taylor series; ||A dt|| is small so this is exact
    # to machine precision.
    e11, e12, e21, e22 = 1.0, 0.0, 0.0, 1.0
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    for n in range(1, 20):
        s = dt / n
        n11 = (t11 * a11 + t12 * a21) * s
        n12 = (t11 * a12 + t12 * a22) * s
        n21 = (t21 * a11 + t22 * a21) * s
        n22 = (t21 * a12 + t22 * a22) * s
        t11, t12, t21, t22 = n11, n12, n21, n22
        e11 += t11
        e12 += t12
        e21 += t21
        e22 += t22

    steps = int(math.ceil(horizon / dt))
    # transition matrix recursion Phi_{k+1} = exp(A dt) Phi_k
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    sup_weighted = 1.0
    # trapezoid accumulators for integral |Phi(t) B| dt, componentwise
    bv1_prev, bv2_prev = abs(k1l * p11 + k2l2 * p12), abs(k1l * p21 + k2l2 * p22)
    bp1_prev, bp2_prev = abs(-p12), abs(-p22)
    gv1 = gv2 = gp1 = gp2 = 0.0
    t = 0.0
    for _ in range(steps):
        q11 = e11 * p11 + e12 * p21
        q12 = e11 * p12 + e12 * p22
        q21 = e21 * p11 + e22 * p21
        q22 = e21 * p12 + e22 * p22
        p11, p12, p21, p22 = q11, q12, q21, q22
        t += dt
        w = _spectral_norm_2x2(p11, p12, p21, p22) * math.exp(decay * t)
        if w > sup_weighted:
            sup_weighted = w
        bv1 = abs(k1l * p11 + k2l2 * p12)
        bv2 = abs(k1l * p21 + k2l2 * p22)
        bp1 = abs(-p12)
        bp2 = abs(-p22)
        gv1 += 0.5 * dt * (bv1 + bv1_prev)
        gv2 += 0.5 * dt * (bv2 + bv2_prev)
        gp1 += 0.5 * dt * (bp1 + bp1_prev)
        gp2 += 0.5 * dt * (bp2 + bp2_prev)
        bv1_prev, bv2_prev, bp1_prev, bp2_prev = bv1, bv2, bp1, bp2
    return decay, sup_weighted, gv1, gv2, gp1, gp2
