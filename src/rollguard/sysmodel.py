"""Planar robot model with first-order actuator lag, slope-driven body-frame
gravity signals, disturbance injection, and fixed-step integration.

State ordering used throughout: (x, y, theta, omega, v)

    x_dot     = v cos(theta)
    y_dot     = v sin(theta)
    theta_dot = omega
    omega_dot = -tau_omega * omega + tau_omega * u_omega + d_omega
    v_dot     = -tau_v * v + tau_v * u_v + d_v

The augmented 9-state (robot plus two high-gain observers) advances in
two halves that share one set of stage signals, one control period per
call, each classical RK4 written out on named floats with its state in
locals: `observer_period` over the four observer states, which also
appends per substep the flat tuple of the floats the robot reads (the
substep's start time, the disturbances at its three stage times and the
gravity truth at its end), and `robot_period` over the five robot states
under the held input, which checks each stage's dynamics inputs with one
finiteness test of their sum and returns the running intersample minimum
of the true constraint with the state. The observers read only the
measurements, which depend on time alone, so one observer trajectory
serves every filter of a scenario (`harness.exogenous_track`).
Their composition's reference definition is, per substep, `step_rk4`
over the right-hand side made of `eval_dynamics` here and two
`differentiator.hgo_rates` calls, followed by `wrap_angle` on the
heading; the two halves repeat its float operations in order and are
bit-equal to it.

Everything that depends on time alone (true gravity components, noise and
disturbance) comes from the one sampler built by `exogenous_signals`,
written out on named floats from the parameter records `TerrainProfile`
and `DisturbanceModel` and from `NoiseModel`'s stored targets and states.
Its reference definitions are `gravity_at` with `NoiseModel.sample`, for
the gravity truth and the noise, and `DisturbanceModel.sample`; the
sampler is bit-equal to them and raises their errors at the same calls.
`RobotState` and `ControlInput` are named tuples. Every function here is
pure but for the appends of `observer_period`'s periods to the list they
are given, and independent scenarios can run concurrently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, NonFiniteStateError

GRAVITY = 9.81


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return theta - 2.0 * math.pi * math.ceil((theta - math.pi) / (2.0 * math.pi))


class RobotState(NamedTuple):
    """Planar pose plus yaw rate and forward speed."""

    x: float
    y: float
    theta: float  # rad; the stepping loop wraps to (-pi, pi]
    omega: float  # rad/s
    v: float      # m/s


class ControlInput(NamedTuple):
    u_v: float      # commanded speed, m/s
    u_omega: float  # commanded yaw rate, rad/s


@dataclass(frozen=True)
class ActuatorParams:
    """Inverse time constants of the speed and yaw-rate loops, 1/s."""

    tau_v: float
    tau_omega: float

    def __post_init__(self):
        if not (self.tau_v > 0.0 and self.tau_omega > 0.0):
            raise DomainError("actuator time constants must be positive")


@dataclass(frozen=True)
class TerrainProfile:
    """Body roll imposed by the slope as a function of time, as the record
    of its parameters. Kind "constant" holds `angle` throughout; kind
    "ramp" is 0 until `start`, rises to `angle` over [start, start +
    duration] along a quintic smoothstep, so the ramp is twice continuously
    differentiable, and holds `angle` after it.

    `roll` must stay within (-pi/2, pi/2) over the horizon; `roll_rate` is
    its analytic derivative (used only for post-hoc audits, never by the
    controller).
    """

    kind: str  # ramp | constant
    angle: float
    start: float = 0.0
    duration: float = 1.0
    gravity: float = GRAVITY

    def __post_init__(self):
        if self.kind not in ("ramp", "constant"):
            raise DomainError(f"unknown terrain profile {self.kind!r}")
        if self.kind == "ramp" and self.duration <= 0.0:
            raise DomainError("ramp duration must be positive")

    def roll(self, t: float) -> float:
        if self.kind == "constant":
            return self.angle
        u = (t - self.start) / self.duration
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return self.angle
        return self.angle * (u * u * u * (10.0 + u * (-15.0 + 6.0 * u)))

    def roll_rate(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        u = (t - self.start) / self.duration
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return self.angle * 30.0 * u * u * (1.0 + u * (-2.0 + u)) / self.duration


class NoiseModel:
    """Seeded measurement noise with an exact sup-norm bound.

    Uniform targets in [-v_inf, v_inf] are drawn once per control period,
    y then z, from one `random.Random(seed)` stream, and fed through a
    first-order low-pass, whose piecewise solution

        n(t) = target_k + (n(t_k) - target_k) * exp(-(t - t_k) / tau)

    is evaluated in closed form. Every value is a convex combination of the
    previous state and the target, so |n(t)| <= v_inf by construction, and
    the signal is continuous and deterministic in t given the seed.
    """

    def __init__(self, v_inf: float, rate: float, horizon: float, seed: int,
                 tau: float = 0.005):
        if v_inf < 0.0:
            raise DomainError("v_inf must be nonnegative")
        if tau <= 0.0 or rate <= 0.0 or horizon <= 0.0:
            raise DomainError("tau, rate and horizon must be positive")
        self.v_inf = v_inf
        self.tau = tau
        self.period = 1.0 / rate
        n = int(math.ceil(horizon * rate)) + 2
        # Python keeps random.Random's stream for a seed fixed across
        # versions; low + (high - low) * u with u in [0, 1) rounds to at
        # most v_inf in magnitude
        u = random.Random(seed).random
        low, width = -v_inf, 2.0 * v_inf
        targets = [(low + width * u(), low + width * u()) for _ in range(n)]
        decay = math.exp(-self.period / tau)
        sy = sz = 0.0
        states = [(sy, sz)]
        for ty, tz in targets:
            sy = ty + (sy - ty) * decay
            sz = tz + (sz - tz) * decay
            states.append((sy, sz))
        self._targets = targets
        self._states = states
        self._n = n

    def sample(self, t: float) -> tuple[float, float]:
        # the period of t clamped to the stored ones, as min(max(k, 0), n - 1)
        k = int(t / self.period)
        if k < 0:
            k = 0
        elif k >= self._n:
            k = self._n - 1
        w = math.exp(-(t - k * self.period) / self.tau)
        ty, tz = self._targets[k]
        sy, sz = self._states[k]
        return (ty + (sy - ty) * w, tz + (sz - tz) * w)


@dataclass(frozen=True)
class DisturbanceModel:
    """Additive disturbances on the omega_dot and v_dot channels, as the
    record of their parameters: none (kind "none"), or one sinusoid per
    channel, amp * sin(2 pi freq t + phase) (kind "sinusoid"). Position and
    heading carry no disturbance: they do not enter the rollover
    constraints, so the projected effect of any disturbance on safety is
    fully captured by these two channels."""

    kind: str = "none"  # none | sinusoid
    omega_amp: float = 0.0
    omega_freq: float = 0.0
    v_amp: float = 0.0
    v_freq: float = 0.0
    omega_phase: float = 0.0
    v_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "sinusoid"):
            raise DomainError(f"unknown disturbance kind {self.kind!r}")

    def sample(self, t: float) -> tuple[float, float]:
        if self.kind == "none":
            return (0.0, 0.0)
        return (self.omega_amp * math.sin(2.0 * math.pi * self.omega_freq * t
                                          + self.omega_phase),
                self.v_amp * math.sin(2.0 * math.pi * self.v_freq * t + self.v_phase))


def _upright_error(phi: float) -> DomainError:
    return DomainError(f"terrain roll {phi} rad leaves the upright regime")


def gravity_at(t: float, profile: TerrainProfile,
               noise=None) -> tuple[float, float, float, float]:
    """Body-frame gravity at time t as (g_y0, g_z0, n_y, n_z): the true
    lateral and normal components and the additive measurement noise
    (zero without a noise model), so the measurements are g_y0 + n_y and
    g_z0 + n_z.

    Convention: the body z axis points up, so g_z0 < 0 while the robot is
    on its tracks. |roll| must stay below pi/2.
    """
    phi = profile.roll(t)
    if abs(phi) >= 0.5 * math.pi:
        raise _upright_error(phi)
    g = profile.gravity
    n_y, n_z = (0.0, 0.0) if noise is None else noise.sample(t)
    return (g * math.sin(phi), -g * math.cos(phi), n_y, n_z)


def eval_dynamics(state: RobotState, u: ControlInput, params: ActuatorParams,
                  d: tuple[float, float] = (0.0, 0.0)) -> tuple[float, ...]:
    """Right-hand side of the robot dynamics; returns the 5-vector
    (x_dot, y_dot, theta_dot, omega_dot, v_dot)."""
    vals = (state.x, state.y, state.theta, state.omega, state.v,
            u.u_v, u.u_omega, d[0], d[1])
    for val in vals:
        if not math.isfinite(val):
            raise DomainError("non-finite dynamics input")
    return (
        state.v * math.cos(state.theta),
        state.v * math.sin(state.theta),
        state.omega,
        -params.tau_omega * state.omega + params.tau_omega * u.u_omega + d[0],
        -params.tau_v * state.v + params.tau_v * u.u_v + d[1],
    )


def exogenous_signals(terrain: TerrainProfile, noise: NoiseModel,
                      dist: DisturbanceModel):
    """Time-only inputs of one run, as one sampler built once per run.

    Returns `signals(t) -> (g_y0, g_z0, n_y, n_z, d_omega, d_v)`: the true
    body-frame gravity components, the measurement noise and the two
    disturbances at t. Its reference definitions are `gravity_at(t,
    terrain, noise)` for the first four and `dist.sample(t)` for the last
    two. `signals` writes them out on named floats: the gravity pair of
    each constant piece of the roll (before the ramp, after it, and the
    constant profile) is computed here once, the noise reads `noise`'s
    stored targets and states with its one `exp`, and both sines are
    inline. Every float operation happens in the references' order, so each
    value is bit-equal to theirs, and a roll outside the upright regime
    raises the same DomainError at the same call, before the noise is
    read. It is pure: it keeps no state between calls.
    """
    g = terrain.gravity
    sin, cos, exp = math.sin, math.cos, math.exp
    half_pi = 0.5 * math.pi
    ramp = terrain.kind == "ramp"
    angle, start, duration = terrain.angle, terrain.start, terrain.duration
    # the pair of a constant piece, None where its roll is not upright
    before = (g * sin(0.0), -g * cos(0.0))
    after = None if abs(angle) >= half_pi else (g * sin(angle), -g * cos(angle))
    period, tau, n = noise.period, noise.tau, noise._n
    targets, states = noise._targets, noise._states
    sinusoid = dist.kind == "sinusoid"
    w_omega = 2.0 * math.pi * dist.omega_freq
    w_v = 2.0 * math.pi * dist.v_freq
    a_omega, ph_omega = dist.omega_amp, dist.omega_phase
    a_v, ph_v = dist.v_amp, dist.v_phase

    def signals(t: float) -> tuple[float, float, float, float, float, float]:
        u = (t - start) / duration if ramp else 1.0
        if u <= 0.0:
            g_y0, g_z0 = before
        elif u >= 1.0:
            if after is None:
                raise _upright_error(angle)
            g_y0, g_z0 = after
        else:
            phi = angle * (u * u * u * (10.0 + u * (-15.0 + 6.0 * u)))
            if abs(phi) >= half_pi:
                raise _upright_error(phi)
            g_y0, g_z0 = g * sin(phi), -g * cos(phi)
        # NoiseModel.sample
        k = int(t / period)
        if k < 0:
            k = 0
        elif k >= n:
            k = n - 1
        w = exp(-(t - k * period) / tau)
        ty, tz = targets[k]
        sy, sz = states[k]
        if sinusoid:
            return (g_y0, g_z0, ty + (sy - ty) * w, tz + (sz - tz) * w,
                    a_omega * sin(w_omega * t + ph_omega), a_v * sin(w_v * t + ph_v))
        return (g_y0, g_z0, ty + (sy - ty) * w, tz + (sz - tz) * w, 0.0, 0.0)

    return signals


def _all_finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


class _Raises:
    """A track slot whose computation raised: reading it, by unpacking, by
    a field or as a number in a sum or product, raises the same error
    again, in a fresh exception."""

    __slots__ = ("kind", "message")

    def __init__(self, exc: Exception):
        self.kind, self.message = type(exc), str(exc)

    def _raise(self, *_):
        raise self.kind(self.message)

    __iter__ = __getattr__ = __add__ = __radd__ = __mul__ = __rmul__ = _raise


def observer_period(hgo, signals, substeps: int, dt: float):
    """Both high-gain observers through one control period, built once per
    run.

    Returns `period(o, t, sig, entries) -> (o, t_end, sig)`: `substeps`
    classical RK4 steps of dt of o = (est_gy, rate_gy, est_gz, rate_gz)
    from time t, one observer (`hgo`) per gravity channel, driven by its
    noisy measurement g + n from `signals`, the run's `exogenous_signals`;
    `sig` is its value at t. Substep i runs from t_i = t + i * dt to
    t + (i + 1) * dt, whose signals are evaluated only when that time
    differs from the stage-4 time t_i + dt (in the last bit, on some
    substeps) and start the next substep. `period` returns the state, the
    last end time and the signals there, and appends per substep the flat
    tuple `robot_period` reads: t_i, (d_omega, d_v) at t_i, t_i + dt/2
    and t_i + dt, and the gravity truth (g_y0, g_z0) at the substep's end.

    Its reference definition is, per substep, `step_rk4` over two
    `differentiator.hgo_rates` calls on the measurements; `period` repeats
    their float operations in order and is bit-equal. At the first signals
    error, or a non-finite state after a substep (`NonFiniteStateError`,
    as `step_rk4` raises it), it appends the substep's entry with a
    `_Raises` of the error in every slot from the first the robot reads
    after it (the stage-2 or stage-4 disturbances when that stage's
    signals raised, else the end gravity: the robot finishes its own
    checks of the substep first) and raises the error again.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    k1l = hgo.k1 * hgo.ell
    k2l2 = hgo.k2 * hgo.ell * hgo.ell
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite

    def period(o, t: float, sig, entries: list):
        ey, ry, ez, rz = o
        g_y, g_z, ny, nz, dw1, dv1 = sig
        my, mz = g_y + ny, g_z + nz
        try:
            for i in range(substeps):
                t_i = t + i * dt
                dw2 = dw4 = None  # the stage signals read so far, for a failing entry
                iy, iz = my - ey, mz - ez
                a5, a6 = ry + k1l * iy, k2l2 * iy
                a7, a8 = rz + k1l * iz, k2l2 * iz

                # stages 2 and 3 share one measurement
                g_y, g_z, ny, nz, dw2, dv2 = signals(t_i + half)
                my, mz = g_y + ny, g_z + nz
                ey2, ry2 = ey + half * a5, ry + half * a6
                ez2, rz2 = ez + half * a7, rz + half * a8
                iy, iz = my - ey2, mz - ez2
                b5, b6 = ry2 + k1l * iy, k2l2 * iy
                b7, b8 = rz2 + k1l * iz, k2l2 * iz

                ey3, ry3 = ey + half * b5, ry + half * b6
                ez3, rz3 = ez + half * b7, rz + half * b8
                iy, iz = my - ey3, mz - ez3
                c5, c6 = ry3 + k1l * iy, k2l2 * iy
                c7, c8 = rz3 + k1l * iz, k2l2 * iz

                t4 = t_i + dt
                sig = signals(t4)
                g_y, g_z, ny, nz, dw4, dv4 = sig
                my, mz = g_y + ny, g_z + nz
                ey4, ry4 = ey + dt * c5, ry + dt * c6
                ez4, rz4 = ez + dt * c7, rz + dt * c8
                iy, iz = my - ey4, mz - ez4
                d5, d6 = ry4 + k1l * iy, k2l2 * iy
                d7, d8 = rz4 + k1l * iz, k2l2 * iz

                ey = ey + sixth * (a5 + 2.0 * (b5 + c5) + d5)
                ry = ry + sixth * (a6 + 2.0 * (b6 + c6) + d6)
                ez = ez + sixth * (a7 + 2.0 * (b7 + c7) + d7)
                rz = rz + sixth * (a8 + 2.0 * (b8 + c8) + d8)
                if not (isfinite(ey) and isfinite(ry) and isfinite(ez) and isfinite(rz)):
                    raise NonFiniteStateError(f"non-finite state after step at t={t_i}")

                t_end = t + (i + 1) * dt
                if t_end != t4:
                    sig = signals(t_end)
                    g_y, g_z, ny, nz, dw, dv = sig
                    my, mz = g_y + ny, g_z + nz
                else:
                    dw, dv = dw4, dv4
                entries.append((t_i, dw1, dv1, dw2, dv2, dw4, dv4, g_y, g_z))
                dw1, dv1 = dw, dv
        except (DomainError, NonFiniteStateError) as exc:
            bad = _Raises(exc)
            if dw2 is None:
                entries.append((t_i, dw1, dv1) + (bad,) * 6)
            elif dw4 is None:
                entries.append((t_i, dw1, dv1, dw2, dv2) + (bad,) * 4)
            else:
                entries.append((t_i, dw1, dv1, dw2, dv2, dw4, dv4, bad, bad))
            raise
        return (ey, ry, ez, rz), t_end, sig
    return period


def robot_period(act: ActuatorParams, ratio: float, dt: float):
    """The five robot states through one control period, built once per
    run.

    Returns `period(r, u_v, u_omega, entries, low) -> (r, low, fault)`: per
    flat entry of `observer_period`, one classical RK4 step of dt of
    r = (x, y, theta, omega, v) from the entry's t_i under the held input,
    on the entry's disturbances (stage 3 shares stage 2's), then the
    heading wrapped to (-pi, pi], and `low`, the running intersample
    minimum, lowered by min()'s rule (NaN and ties included) with both
    values of `barrier.h_pair` at the new state and the entry's end
    gravity (`ratio` is the geometry's width_ratio). It returns the
    `RobotState` at the period's end, `low` and None; on an error, r as
    given, `low` over the substeps it finished, and the error.

    Its reference definition is, per substep, `step_rk4` over
    `eval_dynamics` with the disturbance, followed by `wrap_angle` on the
    heading. `period` repeats their float operations in order on five
    named floats, so each state is bit-equal, and each check gives the
    same error: a non-finite held input (checked once per period, where
    the reference checks it at every first stage), a non-finite state or
    disturbance at any stage and a non-finite result; `dt <= 0` raises
    when the period is built. Each check makes one `isfinite` test, of the
    sum of the values it checks, and tests them one by one only when the
    sum is not finite: a finite sum has only finite terms, and a sum that
    overflows from finite terms passes. An entry's `_Raises` raises where
    its stage's sum, or `h_pair` at its end, first reads it, which is
    where the reference reads those signals. With `observer_period` on the
    same entries it is one RK4 step per substep of the augmented closed
    loop: the robot does not feed the observers, and the observers do not
    feed the robot within a step.
    """
    from .barrier import h_pair  # barrier imports this module
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    tau_v, tau_omega = act.tau_v, act.tau_omega
    # -tau * state parses as (-tau) * state, so the negations are exact
    neg_tau_v, neg_tau_omega = -tau_v, -tau_omega
    sin, cos, ceil, isfinite = math.sin, math.cos, math.ceil, math.isfinite
    pi = math.pi
    two_pi = 2.0 * math.pi
    half = 0.5 * dt
    sixth = dt / 6.0

    def period(r, u_v: float, u_omega: float, entries: list, low: float):
        try:
            if not (isfinite(u_v) and isfinite(u_omega)):
                raise DomainError("non-finite dynamics input")
            # the input terms of the two actuator rates are fixed over the hold
            in_omega = tau_omega * u_omega
            in_v = tau_v * u_v
            x, p, th, w, v = r
            for t_i, dw, dv, dw2, dv2, dw4, dv4, g_y, g_z in entries:
                # stage 1 at (t_i, r)
                if not isfinite(x + p + th + w + v + dw + dv) and \
                        not _all_finite(x, p, th, w, v, dw, dv):
                    raise DomainError("non-finite dynamics input")
                a0, a1, a2 = v * cos(th), v * sin(th), w
                a3 = neg_tau_omega * w + in_omega + dw
                a4 = neg_tau_v * v + in_v + dv

                # stages 2 and 3 at t_i + dt/2
                x2, p2, th2 = x + half * a0, p + half * a1, th + half * a2
                w2, v2 = w + half * a3, v + half * a4
                if not isfinite(x2 + p2 + th2 + w2 + v2 + dw2 + dv2) and \
                        not _all_finite(x2, p2, th2, w2, v2, dw2, dv2):
                    raise DomainError("non-finite dynamics input")
                b0, b1, b2 = v2 * cos(th2), v2 * sin(th2), w2
                b3 = neg_tau_omega * w2 + in_omega + dw2
                b4 = neg_tau_v * v2 + in_v + dv2

                x3, p3, th3 = x + half * b0, p + half * b1, th + half * b2
                w3, v3 = w + half * b3, v + half * b4
                # the disturbances were checked in stage 2
                if not isfinite(x3 + p3 + th3 + w3 + v3) and \
                        not _all_finite(x3, p3, th3, w3, v3):
                    raise DomainError("non-finite dynamics input")
                c0, c1, c2 = v3 * cos(th3), v3 * sin(th3), w3
                c3 = neg_tau_omega * w3 + in_omega + dw2
                c4 = neg_tau_v * v3 + in_v + dv2

                # stage 4 at t_i + dt
                x4, p4, th4 = x + dt * c0, p + dt * c1, th + dt * c2
                w4, v4 = w + dt * c3, v + dt * c4
                if not isfinite(x4 + p4 + th4 + w4 + v4 + dw4 + dv4) and \
                        not _all_finite(x4, p4, th4, w4, v4, dw4, dv4):
                    raise DomainError("non-finite dynamics input")
                d0, d1, d2 = v4 * cos(th4), v4 * sin(th4), w4
                d3 = neg_tau_omega * w4 + in_omega + dw4
                d4 = neg_tau_v * v4 + in_v + dv4

                x = x + sixth * (a0 + 2.0 * (b0 + c0) + d0)
                p = p + sixth * (a1 + 2.0 * (b1 + c1) + d1)
                th = th + sixth * (a2 + 2.0 * (b2 + c2) + d2)
                w = w + sixth * (a3 + 2.0 * (b3 + c3) + d3)
                v = v + sixth * (a4 + 2.0 * (b4 + c4) + d4)
                if not isfinite(x + p + th + w + v) and not _all_finite(x, p, th, w, v):
                    raise NonFiniteStateError(f"non-finite state after step at t={t_i}")
                # the heading through wrap_angle's expression
                th = th - two_pi * ceil((th - pi) / two_pi)

                h1, h2 = h_pair(v, w, g_y, g_z, ratio)
                if h1 < low:
                    low = h1
                if h2 < low:
                    low = h2
        except (DomainError, NonFiniteStateError) as exc:
            return r, low, exc
        return RobotState(x, p, th, w, v), low, None
    return period


def step_rk4(y: Sequence[float], t: float, dt: float,
             rhs: Callable[[float, Sequence[float]], Sequence[float]]) -> tuple[float, ...]:
    """One classical Runge-Kutta step of y' = rhs(t, y).

    The input (if any) must be held constant inside rhs over the step; the
    caller owns the zero-order hold. Raises NonFiniteStateError if the step
    leaves the finite domain.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    k1 = rhs(t, y)
    h2 = 0.5 * dt
    k2 = rhs(t + h2, [yi + h2 * ki for yi, ki in zip(y, k1)])
    k3 = rhs(t + h2, [yi + h2 * ki for yi, ki in zip(y, k2)])
    k4 = rhs(t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
    sixth = dt / 6.0
    out = tuple([yi + sixth * (a + 2.0 * (b + c) + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    for val in out:
        if not math.isfinite(val):
            raise NonFiniteStateError(f"non-finite state after step at t={t}")
    return out
