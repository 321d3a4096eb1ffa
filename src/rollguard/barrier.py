"""Rollover constraints from the lateral zero-moment point, their
robustified forms, and assembly of affine-in-input constraint rows.

Sign conventions (asserted in tests):
  - body z up, so the normal gravity component g_z is negative while the
    robot is upright; the lateral tip-point is y_zmp = (v*omega - g_y) *
    cg_height / g_z;
  - h1 guards the +y track edge, h2 the -y edge; h >= 0 for both is
    algebraically equivalent to |y_zmp| <= half_width whenever g_z < 0.

Everything here is pure evaluation and safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .differentiator import DifferentiatorBank, error_envelope, hgo_rates
from .errors import DomainError, SingularityError, StaleMeasurementError
from .sysmodel import ActuatorParams, RobotState

_SIGNS = {"h1": 1.0, "h2": -1.0}

# |g_z| below this makes the tip point singular; scenarios whose roll puts
# the normal gravity component inside the band are rejected at load
TIP_POINT_SINGULAR_BAND = 1e-6


def _sign_of(which: str) -> float:
    try:
        return _SIGNS[which]
    except KeyError:
        raise DomainError(f"unknown barrier {which!r}; expected 'h1' or 'h2'") from None


@dataclass(frozen=True)
class GeometryParams:
    half_width: float      # b, m
    cg_height: float       # m, center of mass above ground

    def __post_init__(self):
        if not (self.half_width > 0.0 and self.cg_height > 0.0):
            raise DomainError("geometry parameters must be positive")

    @property
    def width_ratio(self) -> float:
        return self.half_width / self.cg_height


@dataclass(frozen=True)
class AlphaLinear:
    """Linear class-K rate alpha(r) = rate * r."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0.0:
            raise DomainError("alpha rate must be positive")

    def __call__(self, r: float) -> float:
        return self.rate * r


def lipschitz_gain(geom: GeometryParams) -> float:
    """Smallest Lipschitz constant of h in the gravity pair w.r.t. the
    Euclidean norm; shared by h1 and h2."""
    return math.hypot(1.0, geom.width_ratio)


def zmp_lateral(v: float, omega: float, g_y: float, g_z: float,
                geom: GeometryParams) -> float:
    """Lateral tip-point coordinate, m."""
    if abs(g_z) < TIP_POINT_SINGULAR_BAND:
        raise SingularityError("normal gravity component ~ 0; tip point undefined")
    return (v * omega * geom.cg_height - g_y * geom.cg_height) / g_z


def h_pair(v: float, omega: float, g_y: float, g_z: float,
           ratio: float) -> tuple[float, float]:
    """(h1, h2) at one speed, yaw rate and gravity pair, with `ratio` the
    geometry's width_ratio; h1 + h2 = -2 * ratio * g_z always."""
    vw = v * omega
    rz = ratio * g_z
    return (vw - rz - g_y, -vw - rz + g_y)


def eval_h(which: str, v: float, omega: float, g_y: float, g_z: float,
           geom: GeometryParams) -> float:
    """Rollover constraint value: the `which` entry of `h_pair`."""
    sign = _sign_of(which)
    return h_pair(v, omega, g_y, g_z, geom.width_ratio)[0 if sign > 0.0 else 1]


@dataclass(frozen=True)
class BarrierEval:
    """One constraint evaluated at one instant.

    drift is the full input-independent part of the robustified constraint
    derivative (robot drift, estimator drift, and the envelope-rate term);
    input_row is the coefficient of the commanded input (u_v, u_omega), so
    d/dt h_rob = drift + input_row . u along the augmented flow.
    """

    h: float
    h_rob: float
    drift: float
    input_row: tuple[float, float]


@dataclass(frozen=True)
class ConstraintRow:
    """Affine inequality a . u >= beta on the commanded input."""

    a: tuple[float, float]
    beta: float
    label: str


def row_terms(v: float, omega: float, est: tuple[float, float],
              est_rate: tuple[float, float], env_rate: float, consts: tuple
              ) -> tuple[float, float, float, float, float, float]:
    """(a0, a1, h1, h2, drift1, drift2) of both constraints in one pass,
    h1's input row a and h2's -a, with `consts` (tau_v, tau_omega,
    width_ratio, lipschitz_gain). The sign +-1 makes h2's products the
    negatives of h1's, so they are shared exactly; the sums, whose signed
    zeros a shared negation would not keep, are taken per constraint."""
    tau_v, tau_omega, ratio, lip = consts
    e0, e1 = est
    vw = v * omega
    rz = ratio * e1
    # d h1 / d omega = v and d h1 / d v = omega, times each speed's lag drift
    drift_omega = v * (-tau_omega * omega)
    drift_v = omega * (-tau_v * v)
    rate_term = ratio * est_rate[1]
    env_term = lip * env_rate
    return (omega * tau_v, v * tau_omega, vw - rz - e0, -vw - rz + e0,
            drift_omega + drift_v - est_rate[0] - rate_term - env_term,
            -drift_omega - drift_v + est_rate[0] - rate_term - env_term)


def row_rhs(h_rob: float, drift: float, rate: float, budget_value: float) -> float:
    """beta of the row a . u >= beta that enforces
    drift + a . u >= -alpha(h_rob) + alpha.rate * budget, alpha's rate `rate`."""
    return -(rate * h_rob) + rate * budget_value - drift


def row_pair(v: float, omega: float, est: tuple[float, float],
             est_rate: tuple[float, float], env_value: float, env_rate: float,
             budget_value: float, consts: tuple, rate: float) -> tuple[tuple, tuple]:
    """h1's and h2's rows of `constraint_row` as (a0, a1, beta) triples,
    bit for bit, from one `row_terms` pass; `consts` as there and `rate`
    the alpha rate."""
    a0, a1, h1, h2, drift1, drift2 = row_terms(v, omega, est, est_rate, env_rate, consts)
    margin = consts[3] * env_value
    return ((a0, a1, row_rhs(h1 - margin, drift1, rate, budget_value)),
            (-a0, -a1, row_rhs(h2 - margin, drift2, rate, budget_value)))


def eval_barrier(which: str, state: RobotState, est: tuple[float, float],
                 geom: GeometryParams, actuator: ActuatorParams,
                 est_rate: tuple[float, float] = (0.0, 0.0),
                 env_value: float = 0.0, env_rate: float = 0.0) -> BarrierEval:
    """Evaluate one constraint at the gravity estimates `est`, robustified
    by the bank's envelope: h_rob = h(est) - lipschitz * env_value.

    `est_rate` is the time derivative of the value estimates along the
    estimator flow (rate estimate plus innovation).
    """
    if env_value < 0.0:
        raise DomainError("envelope value must be nonnegative")
    sign = _sign_of(which)
    lip = lipschitz_gain(geom)
    a0, a1, h1, h2, drift1, drift2 = row_terms(
        state.v, state.omega, est, est_rate, env_rate,
        (actuator.tau_v, actuator.tau_omega, geom.width_ratio, lip))
    if sign > 0.0:
        return BarrierEval(h=h1, h_rob=h1 - lip * env_value, drift=drift1,
                           input_row=(a0, a1))
    return BarrierEval(h=h2, h_rob=h2 - lip * env_value, drift=drift2,
                       input_row=(-a0, -a1))


@dataclass(frozen=True)
class DisturbanceBudget:
    """Time-varying bound on the disturbance projected onto the constraint
    gradient: budget(t) = initial * exp(-decay * t) + floor."""

    initial: float = 0.0
    decay: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        if min(self.initial, self.decay, self.floor) < 0.0:
            raise DomainError("budget parameters must be nonnegative")

    def value(self, t: float) -> float:
        return self.initial * math.exp(-self.decay * t) + self.floor

    def rate(self, t: float) -> float:
        return -self.initial * self.decay * math.exp(-self.decay * t)


def constraint_row(which: str, state: RobotState, est: tuple[float, float],
                   est_rate: tuple[float, float], env_value: float, env_rate: float,
                   budget_value: float, geom: GeometryParams,
                   actuator: ActuatorParams, alpha: AlphaLinear) -> ConstraintRow:
    """Assemble one affine row for the safety QP from values taken once
    per control step: the value estimates `est` and their rates along the
    observer flow, the bank's envelope (value, rate) and the budget
    value at the step's time. Every filter enforces the one robustified
    condition
        drift + a . u >= -alpha(h_rob) + alpha.rate * budget(t),
    with h_rob and drift from `eval_barrier` and beta from `row_rhs`; a
    filter picks which inputs it sets to zero. `row_pair` gives both
    constraints' rows in one pass.
    """
    be = eval_barrier(which, state, est, geom, actuator, est_rate,
                      env_value, env_rate)
    beta = row_rhs(be.h_rob, be.drift, alpha.rate, budget_value)
    return ConstraintRow(a=be.input_row, beta=beta, label=which)


def build_constraint_row(which: str, mode: str, state: RobotState,
                         bank: DifferentiatorBank, measurements: tuple[float, float] | None,
                         t: float, v_inf: float, geom: GeometryParams,
                         actuator: ActuatorParams, alpha: AlphaLinear,
                         budget: DisturbanceBudget | None = None) -> ConstraintRow:
    """One row of `constraint_row` from the bank's current estimates: the
    estimate rates come from `hgo_rates` on each channel's estimates and
    its entry of `measurements`. mode 'envelope' takes the envelope from
    `bank.envelope(t)` with zero budget; mode 'budget' takes the budget
    value from `budget.value(t)` with zero envelope, and needs an alpha
    rate >= 1 for the row to be sufficient. `v_inf` must be `bank.v_inf`."""
    if measurements is None:
        raise StaleMeasurementError("constraint row requires current measurements")
    if v_inf != bank.v_inf:
        raise DomainError(f"v_inf {v_inf!r} differs from the bank's {bank.v_inf!r}")
    est = (bank.channels[0].value_est, bank.channels[1].value_est)
    est_rate = tuple(hgo_rates(ch.value_est, ch.rate_est, bank.hgo, p)[0]
                     for ch, p in zip(bank.channels, measurements))
    env_value = env_rate = budget_value = 0.0
    if mode == "envelope":
        env_value, env_rate = bank.envelope(t)
    elif mode == "budget":
        if budget is None:
            raise DomainError("budget mode requires a DisturbanceBudget")
        if alpha.rate < 1.0:
            raise DomainError("budget mode requires alpha rate >= 1")
        budget_value = budget.value(t)
    else:
        raise DomainError(f"unknown row mode {mode!r}")
    return constraint_row(which, state, est, est_rate, env_value, env_rate,
                          budget_value, geom, actuator, alpha)


def build_bd_row(which: str, state: RobotState, measurements: tuple[float, float],
                 rate_estimates: tuple[float, float], geom: GeometryParams,
                 actuator: ActuatorParams, alpha: AlphaLinear) -> ConstraintRow:
    """Baseline row: h at the raw measurements, with the parameter drift
    taken from a finite-difference derivative estimate. No robustification;
    noisy rate estimates feed straight into the inequality."""
    return constraint_row(which, state, measurements, rate_estimates, 0.0, 0.0,
                          0.0, geom, actuator, alpha)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    first_violation_t: float | None
    min_margin: float
    points: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "first_violation_t": self.first_violation_t,
            "min_margin": self.min_margin,
            "points": self.points,
        }


_CHECK_TOL = 1e-12


def _grid_check(name: str, margin: Callable[[float], float], horizon: float,
                n: int) -> CheckReport:
    if n < 2 or horizon <= 0.0:
        raise DomainError("need a positive horizon and at least two grid points")
    first = None
    worst = math.inf
    for i in range(n):
        t = horizon * i / (n - 1)
        m = margin(t)
        if m < worst:
            worst = m
        if m < -_CHECK_TOL and first is None:
            first = t
    return CheckReport(name, first is None, first, worst, n)


def check_budget_schedule(budget: DisturbanceBudget, alpha: AlphaLinear,
                          horizon: float, n: int = 501) -> CheckReport:
    """Self-consistency of the budget schedule: the margin may shrink no
    faster than the linear rate restores it,
        -budget_rate(t) + budget(t) <= alpha(budget(t)).
    """
    def margin(t: float) -> float:
        return alpha(budget.value(t)) + budget.rate(t) - budget.value(t)

    return _grid_check("budget_schedule", margin, horizon, n)


def check_envelope_budget(lip: float,
                          envelope: Callable[[float], tuple[float, float]],
                          budget: DisturbanceBudget, alpha: AlphaLinear,
                          horizon: float, n: int = 501) -> CheckReport:
    """Envelope/budget compatibility for the robustified constraint, with
    `envelope(t)` the bank's (env_value, env_rate) at t:
        -lip * env_rate(t) + budget(t) <= alpha(lip * env_value(t)).
    """
    def margin(t: float) -> float:
        env_value, env_rate = envelope(t)
        return alpha(lip * env_value) + lip * env_rate - budget.value(t)

    return _grid_check("envelope_budget", margin, horizon, n)


def check_envelope_decay(bank: DifferentiatorBank, alpha: AlphaLinear,
                         horizon: float, n: int = 501) -> CheckReport:
    """Premise of the budget row: alpha rate >= 1 and the bank's error
    envelope decaying at least at that rate, dM/dt <= -alpha(M)."""
    def margin(t: float) -> float:
        value, rate = error_envelope(bank, t)
        return -rate - alpha(value)

    report = _grid_check("envelope_decay", margin, horizon, n)
    if alpha.rate < 1.0:
        return CheckReport(report.name, False, 0.0, report.min_margin, report.points)
    return report


@dataclass(frozen=True)
class CandidateReport:
    points: int
    gated: int
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"points": self.points, "gated": self.gated,
                "violations": list(self.violations), "passed": self.passed}


def verify_cbf_candidate(which: str, v_grid: Sequence[float],
                         omega_grid: Sequence[float], roll_grid: Sequence[float],
                         geom: GeometryParams, actuator: ActuatorParams,
                         alpha: AlphaLinear, gravity: float = 9.81) -> CandidateReport:
    """Audit of the constraint over an operating grid: wherever the input
    direction vanishes, the drift alone must satisfy the rate condition.
    Necessary, not sufficient, once inputs are bounded.
    """
    sign = _sign_of(which)
    # the input-direction gate does not depend on the roll
    rest = [(v, omega) for v in v_grid for omega in omega_grid
            if math.hypot(actuator.tau_v * omega, actuator.tau_omega * v)
            < 1e-8 * (1.0 + math.hypot(v, omega))]
    violations = []
    for phi in roll_grid:
        g_y = gravity * math.sin(phi)
        g_z = -gravity * math.cos(phi)
        for v, omega in rest:
            h = eval_h(which, v, omega, g_y, g_z, geom)
            drift = -sign * (actuator.tau_v + actuator.tau_omega) * v * omega
            if drift < -alpha(h) - 1e-12:
                violations.append({"v": v, "omega": omega, "roll": phi,
                                   "h": h, "drift": drift})
    return CandidateReport(points=len(roll_grid) * len(v_grid) * len(omega_grid),
                           gated=len(roll_grid) * len(rest),
                           violations=tuple(violations))
