"""The reference definition of `sysmodel.closed_loop_step`.

`reference_closed_loop_step` has its signature and returns the same
`hold(u_v, u_omega) -> step(y, t, dt)` closures, built from the reference
parts: `step_rk4` over `closed_loop_rhs`, then `wrap_angle` on the heading.
The sysmodel tests compare the two step by step, and the harness tests run
`harness.run` with it in place of the shipped step."""

from rollguard.sysmodel import closed_loop_rhs, step_rk4, wrap_angle


def reference_closed_loop_step(act, hgo, signals):
    hold_rhs = closed_loop_rhs(act, hgo, signals)

    def hold(u_v, u_omega):
        rhs = hold_rhs(u_v, u_omega)

        def step(y, t, dt):
            y = step_rk4(y, t, dt, rhs)
            return (y[0], y[1], wrap_angle(y[2]), *y[3:])
        return step
    return hold
