"""The reference definition of `sysmodel.closed_loop_step`.

`reference_closed_loop_step` has its signature and returns the same
`hold(u_v, u_omega) -> step(y, t, dt)` closures, built from the plain
definitions: `step_rk4` over a right-hand side made of `eval_dynamics`
(with the disturbance) plus two `hgo_rates` calls on the noisy
measurements, then `wrap_angle` on the heading. `signals` gives the
gravity truth, noise and disturbance as `exogenous_signals` does. The
sysmodel tests compare the two step by step, the reference on the plain
`gravity_at` and `DisturbanceModel.sample`, and the harness tests run
`harness.run` with it in place of the shipped step, on the run's own
`signals`. `reference_rhs` is that right-hand side on its own."""

from rollguard.differentiator import hgo_rates
from rollguard.sysmodel import (ControlInput, RobotState, eval_dynamics, step_rk4,
                                wrap_angle)


def reference_rhs(act, hgo, signals):
    """`hold(u_v, u_omega) -> rhs(t, y)`: the closed-loop right-hand side
    that `reference_closed_loop_step` integrates."""
    def hold(u_v, u_omega):
        u = ControlInput(u_v, u_omega)

        def rhs(t, y):
            g_y0, g_z0, ny, nz, d_omega, d_v = signals(t)
            return (eval_dynamics(RobotState(*y[:5]), u, act, (d_omega, d_v))
                    + hgo_rates(y[5], y[6], hgo, g_y0 + ny)
                    + hgo_rates(y[7], y[8], hgo, g_z0 + nz))
        return rhs
    return hold


def reference_closed_loop_step(act, hgo, signals):
    rhs_of = reference_rhs(act, hgo, signals)

    def hold(u_v, u_omega):
        rhs = rhs_of(u_v, u_omega)

        def step(y, t, dt):
            y = step_rk4(y, t, dt, rhs)
            return (y[0], y[1], wrap_angle(y[2]), *y[3:])
        return step
    return hold
