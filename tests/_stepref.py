"""The reference definition of one RK4 step of the augmented closed loop,
and of its two halves.

`reference_closed_loop_step(act, hgo, signals)` returns
`hold(u_v, u_omega) -> step(y, t, dt)` on the augmented 9-state (robot
plus both observers), built from the plain definitions: `step_rk4` over a
right-hand side made of `eval_dynamics` (with the disturbance) plus two
`hgo_rates` calls on the noisy measurements, then `wrap_angle` on the
heading. `signals` gives the gravity truth, noise and disturbance as
`exogenous_signals` does. `reference_rhs` is that right-hand side on its
own.

The shipped engine splits the step into `sysmodel.robot_step` and
`sysmodel.observer_step`, which share the signals at the three stage
times. `reference_robot_step` and `reference_observer_step` have their
signatures and derive each half from `reference_closed_loop_step`: the
other half is held at zero with zero inputs, which keeps it at exactly
zero, and the signals it does not read are zeroed. The sysmodel tests
compare the composed shipped halves with the reference step by step, and
the harness tests run `harness.run` with the derived halves in place of
the shipped ones."""

from rollguard.differentiator import HgoParams, hgo_rates
from rollguard.sysmodel import (ActuatorParams, ControlInput, RobotState, eval_dynamics,
                                step_rk4, wrap_angle)


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


def _stage_signals(t, dt, s1, s2, s4, keep):
    """`signals` for one reference step from t: the values given for its
    stage times, unpacked when the step reads them and passed through
    `keep`."""
    at = {t: s1, t + 0.5 * dt: s2, t + dt: s4}

    def signals(tt):
        g_y0, g_z0, ny, nz, d_omega, d_v = at[tt]
        return keep(g_y0, g_z0, ny, nz, d_omega, d_v)
    return signals


def _disturbance_only(g_y0, g_z0, ny, nz, d_omega, d_v):
    return (0.0, 0.0, 0.0, 0.0, d_omega, d_v)


def _measurement_only(g_y0, g_z0, ny, nz, d_omega, d_v):
    return (g_y0, g_z0, ny, nz, 0.0, 0.0)


def reference_robot_step(act):
    """`sysmodel.robot_step`'s signature, from the reference: the robot part
    of its result, with both observers at zero and zero measurements."""
    def hold(u_v, u_omega):
        def step(r, t, dt, s1, s2, s4):
            signals = _stage_signals(t, dt, s1, s2, s4, _disturbance_only)
            y = reference_closed_loop_step(act, HgoParams(), signals)(u_v, u_omega)(
                (*r, 0.0, 0.0, 0.0, 0.0), t, dt)
            return y[:5]
        return step
    return hold


def reference_observer_step(hgo):
    """`sysmodel.observer_step`'s signature, from the reference: the observer
    part of its result, with the robot at rest, zero input and zero
    disturbance."""
    act = ActuatorParams(1.0, 1.0)

    def step(o, t, dt, s1, s2, s4):
        signals = _stage_signals(t, dt, s1, s2, s4, _measurement_only)
        y = reference_closed_loop_step(act, hgo, signals)(0.0, 0.0)(
            (0.0, 0.0, 0.0, 0.0, 0.0, *o), t, dt)
        return y[5:]
    return step
