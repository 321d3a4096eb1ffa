"""The reference definition of one RK4 step of the augmented closed loop,
of its two halves, and of their per-period form.

`reference_closed_loop_step(act, hgo, signals)` returns
`hold(u_v, u_omega) -> step(y, t, dt)` on the augmented 9-state (robot
plus both observers), built from the plain definitions: `step_rk4` over a
right-hand side made of `eval_dynamics` (with the disturbance) plus two
`hgo_rates` calls on the noisy measurements, then `wrap_angle` on the
heading. `signals` gives the gravity truth, noise and disturbance as
`exogenous_signals` does. `reference_rhs` is that right-hand side on its
own.

`reference_robot_step(act)` returns `hold(u_v, u_omega) -> step(r, t, dt,
s1, s2, s4)`: one robot substep on the signals at its three stage times,
derived from `reference_closed_loop_step` with both observers held at
zero on zero measurements, which keeps them at exactly zero. The observer
half is linear, so its reference is its RK4 substep as an affine map:
`reference_observer_step(hgo)` returns `step(o, t, dt, s1, s2, s4)`, the
map of `sysmodel.substep_map` written out per channel. That map is
checked against `step_rk4` over `hgo_rates` within a derived rounding
bound (`tests/test_sysmodel.py::TestSubstepMap`).

The shipped engine, `sysmodel.observer_period` and
`sysmodel.robot_period`, advances each half through one control period
per call and passes the robot its stage-2 and stage-4 signals as flat
entries; a substep's stage 1 reads the stage 4 of the one before it, or
the period's start signals.
`reference_observer_period` and `reference_robot_period` have their
signatures and build them one reference substep at a time: the observer
on the walk's time grid, filling each entry (and a failing one) in read
order, the robot on each entry's stage signals, with `barrier.h_pair` at
the entry's end gravity folded into the minimum by `min`. The sysmodel
tests compare the shipped periods with these and with the fused
reference, and the harness tests run `harness.run` with them in place of
the shipped ones."""

import math

from rollguard.barrier import h_pair
from rollguard.differentiator import HgoParams, hgo_rates
from rollguard.errors import DomainError, NonFiniteStateError
from rollguard.sysmodel import (ControlInput, RobotState, _Raises, eval_dynamics,
                                step_rk4, substep_map, wrap_angle)


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


def _stage_signals(t, dt, s1, s2, s4):
    """`signals` for one reference robot step from t: the disturbances
    given for its stage times, with zero gravity and noise; a `_Raises`
    given for a stage raises its error there."""
    at = {t: s1, t + 0.5 * dt: s2, t + dt: s4}

    def signals(tt):
        values = at[tt]
        if type(values) is _Raises:
            raise values.kind(values.message)
        return (0.0, 0.0, 0.0, 0.0, *values[4:])
    return signals


def reference_robot_step(act):
    """One robot substep from the reference: the robot part of its result,
    with both observers at zero and zero measurements."""
    def hold(u_v, u_omega):
        def step(r, t, dt, s1, s2, s4):
            signals = _stage_signals(t, dt, s1, s2, s4)
            y = reference_closed_loop_step(act, HgoParams(), signals)(u_v, u_omega)(
                (*r, 0.0, 0.0, 0.0, 0.0), t, dt)
            return y[:5]
        return step
    return hold


def reference_observer_step(hgo):
    """One observer substep: per channel, the affine map of
    `sysmodel.substep_map` written out on the measurements g + n at the
    substep's start, midpoint and end, then the finiteness check of
    `step_rk4`."""
    def step(o, t, dt, s1, s2, s4):
        f12, f22, x0, xm, x1, y0, ym, y1 = substep_map(hgo, dt)
        out = []
        for c in (0, 1):
            value, rate = o[2 * c], o[2 * c + 1]
            i0, im, i1 = (s[c] + s[c + 2] - value for s in (s1, s2, s4))
            out += [value + (f12 * rate + x0 * i0 + xm * im + x1 * i1),
                    f22 * rate + y0 * i0 + ym * im + y1 * i1]
        if not all(map(math.isfinite, out)):
            raise NonFiniteStateError(f"non-finite state after step at t={t}")
        return tuple(out)
    return step


def reference_observer_period(hgo, signals, substeps, dt):
    """`sysmodel.observer_period`'s signature, one `reference_observer_step`
    per substep, on the signals at its start, midpoint and end (t_next for
    the last substep)."""
    step = reference_observer_step(hgo)

    def period(o, t, t_next, sig, entries):
        for i in range(substeps):
            t_i = t + i * dt
            read = [t_i]
            try:
                s2 = signals(t_i + 0.5 * dt)
                read += s2[4:]
                s4 = signals(t_next if i == substeps - 1 else t + (i + 1) * dt)
                read += s4[4:]
                o = step(o, t_i, dt, sig, s2, s4)
            except (DomainError, NonFiniteStateError) as exc:
                entries.append(tuple(read) + (_Raises(exc),) * (7 - len(read)))
                raise
            sig = s4
            entries.append((*read, *sig[:2]))
        return o, sig
    return period


def _stage(d_omega, d_v):
    """A stage's signals from an entry's disturbance pair; a `_Raises` there
    stands for signals that raise when read."""
    if type(d_omega) is _Raises:
        return d_omega
    return (0.0, 0.0, 0.0, 0.0, d_omega, d_v)


def reference_robot_period(act, ratio, dt):
    """`sysmodel.robot_period`'s signature, one `reference_robot_step` per
    entry."""
    hold = reference_robot_step(act)

    def period(r, u_v, u_omega, dist, entries, low):
        step = hold(u_v, u_omega)
        y = r
        s1 = _stage(*dist)
        try:
            for t_i, dw2, dv2, dw4, dv4, g_y, g_z in entries:
                s4 = _stage(dw4, dv4)
                y = step(y, t_i, dt, s1, _stage(dw2, dv2), s4)
                low = min(low, *h_pair(y[4], y[3], g_y, g_z, ratio))
                s1 = s4
        except (DomainError, NonFiniteStateError) as exc:
            return r, low, exc
        return RobotState(*y), low, None
    return period
