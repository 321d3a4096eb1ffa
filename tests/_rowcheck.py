"""Oracles for the constraint rows.

`row_derivative_gap` is the finite-difference oracle for the row
derivative: it propagates the augmented closed loop (without disturbance,
input held) from recorded states and compares d/dt of the robustified
constraint against the analytic drift + input_row . u. The flow is the
one `harness.run` integrates, by its reference definition
`_stepref.reference_closed_loop_step` on the run's `exogenous_signals`,
which also give the measurements, on the scenario without disturbance.

`budget_row_margin_rebuilt` rebuilds the envelope row and the budget row
of both constraints at every trace record, the reference for the closed
form of `harness.budget_row_margin`."""

import dataclasses
import math

from rollguard.barrier import constraint_row, eval_barrier
from rollguard.differentiator import hgo_rates
from rollguard.sysmodel import RobotState, exogenous_signals

from _stepref import reference_closed_loop_step


def row_derivative_gap(scenario, record, which):
    """Returns (finite_difference, analytic) for one trace record, taken at
    the midpoint of the record's hold period so every evaluation stays
    inside one smooth piece of the measurement signal."""
    calm = dataclasses.replace(scenario, disturbance_kind="none")
    geom = calm.geometry()
    act = calm.actuator()
    bank = calm.make_bank()
    hgo = bank.hgo
    u_v, u_omega = record.u_star
    period = 1.0 / calm.control_rate
    signals = exogenous_signals(calm.terrain(), calm.noise_model(), calm.disturbance())
    step = reference_closed_loop_step(act, hgo, signals)(u_v, u_omega)

    def h_rob(tt, yy):
        env_value, _ = bank.envelope(tt)
        return eval_barrier(which, RobotState(*yy[:5]), (yy[5], yy[7]),
                            geom, act, env_value=env_value).h_rob

    s = record.state
    y = (s.x, s.y, s.theta, s.omega, s.v, *record.est)
    t = record.t
    for _ in range(2):
        y = step(y, t, period / 4.0)
        t += period / 4.0

    eps = 1e-6
    y1 = step(y, t, eps)
    y2 = step(y1, t + eps, eps)
    fd = (-3.0 * h_rob(t, y) + 4.0 * h_rob(t + eps, y1)
          - h_rob(t + 2 * eps, y2)) / (2.0 * eps)

    g_y0, g_z0, ny, nz, _, _ = signals(t)
    meas = (g_y0 + ny, g_z0 + nz)
    est = (y[5], y[7])
    est_rate = (hgo_rates(y[5], y[6], hgo, meas[0])[0],
                hgo_rates(y[7], y[8], hgo, meas[1])[0])
    env_value, env_rate = bank.envelope(t)
    be = eval_barrier(which, RobotState(*y[:5]), est, geom, act, est_rate,
                      env_value, env_rate)
    analytic = be.drift + be.input_row[0] * u_v + be.input_row[1] * u_omega
    return fd, analytic


def budget_row_margin_rebuilt(scenario, records):
    """Minimum over a trace of beta(budget row) - beta(envelope row), both
    rows rebuilt from the recorded states, estimates and measurements."""
    geom, act = scenario.geometry(), scenario.actuator()
    alpha = scenario.alpha_fn()
    budget = scenario.budget()
    bank = scenario.make_bank()
    worst = math.inf
    for rec in records:
        est_value = (rec.est[0], rec.est[2])
        est_rate = (hgo_rates(rec.est[0], rec.est[1], bank.hgo, rec.g_meas[0])[0],
                    hgo_rates(rec.est[2], rec.est[3], bank.hgo, rec.g_meas[1])[0])
        env_value, env_rate = bank.envelope(rec.t)
        for which in ("h1", "h2"):
            env = constraint_row(which, rec.state, est_value, est_rate,
                                 env_value, env_rate, 0.0, geom, act, alpha)
            bud = constraint_row(which, rec.state, est_value, est_rate,
                                 0.0, 0.0, budget.value(rec.t), geom, act, alpha)
            worst = min(worst, bud.beta - env.beta)
    return worst
