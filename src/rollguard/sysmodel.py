"""Planar robot model with first-order actuator lag, slope-driven body-frame
gravity signals, disturbance injection, and fixed-step integration.

State ordering used throughout: (x, y, theta, omega, v)

    x_dot     = v cos(theta)
    y_dot     = v sin(theta)
    theta_dot = omega
    omega_dot = -tau_omega * omega + tau_omega * u_omega + d_omega
    v_dot     = -tau_v * v + tau_v * u_v + d_v

A run advances the augmented 9-state (robot plus two high-gain observers)
with `closed_loop_step`, built once per run: one classical RK4 step of the
closed loop, written out on nine floats. Its reference definition is
`step_rk4` over the right-hand side made of `eval_dynamics` here and two
`differentiator.hgo_rates` calls, followed by `wrap_angle` on the heading;
the step repeats that composition's float operations in order and is
bit-equal to it.

Everything that depends on time alone (true gravity components, noise and
disturbance) comes from one per-run function built by `exogenous_signals`.
Its reference definitions are `gravity_at`, for the gravity truth and the
noise, and `DisturbanceModel.sample`. It keeps a one-entry memo of its
last time point, so it is stateful: build one per run and share it only
within that run. Every other function here is pure, and independent
scenarios can run concurrently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, NonFiniteStateError

GRAVITY = 9.81


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return theta - 2.0 * math.pi * math.ceil((theta - math.pi) / (2.0 * math.pi))


@dataclass(frozen=True)
class RobotState:
    """Planar pose plus yaw rate and forward speed."""

    x: float
    y: float
    theta: float  # rad; the stepping loop wraps to (-pi, pi]
    omega: float  # rad/s
    v: float      # m/s


@dataclass(frozen=True)
class ControlInput:
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
    """Body roll imposed by the slope as a function of time.

    `roll` must stay within (-pi/2, pi/2) over the horizon and be
    continuously differentiable within each piece; `roll_rate` is its
    analytic derivative (used only for post-hoc audits, never by the
    controller).
    """

    roll: Callable[[float], float]
    roll_rate: Callable[[float], float]
    gravity: float = GRAVITY


def constant_roll(angle: float, gravity: float = GRAVITY) -> TerrainProfile:
    return TerrainProfile(roll=lambda t: angle, roll_rate=lambda t: 0.0, gravity=gravity)


def smooth_ramp_roll(angle: float, start: float, duration: float,
                     gravity: float = GRAVITY) -> TerrainProfile:
    """Roll ramping 0 -> angle over [start, start+duration] along a quintic
    smoothstep, so the ramp is twice continuously differentiable."""
    if duration <= 0.0:
        raise DomainError("ramp duration must be positive")

    def roll(t: float) -> float:
        u = (t - start) / duration
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return angle
        return angle * (u * u * u * (10.0 + u * (-15.0 + 6.0 * u)))

    def roll_rate(t: float) -> float:
        u = (t - start) / duration
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return angle * 30.0 * u * u * (1.0 + u * (-2.0 + u)) / duration

    return TerrainProfile(roll=roll, roll_rate=roll_rate, gravity=gravity)


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
        k = min(max(int(t / self.period), 0), self._n - 1)
        w = math.exp(-(t - k * self.period) / self.tau)
        ty, tz = self._targets[k]
        sy, sz = self._states[k]
        return (ty + (sy - ty) * w, tz + (sz - tz) * w)


@dataclass(frozen=True)
class DisturbanceModel:
    """Additive disturbances on the omega_dot and v_dot channels with
    per-channel envelopes. Position and heading carry no disturbance: they
    do not enter the rollover constraints, so the projected effect of any
    disturbance on safety is fully captured by these two channels."""

    d_omega: Callable[[float], float]
    d_v: Callable[[float], float]

    def sample(self, t: float) -> tuple[float, float]:
        return (self.d_omega(t), self.d_v(t))


def no_disturbance() -> DisturbanceModel:
    zero = lambda t: 0.0
    return DisturbanceModel(zero, zero)


def sinusoid_disturbance(omega_amp: float, omega_freq: float,
                         v_amp: float, v_freq: float,
                         omega_phase: float = 0.0, v_phase: float = 0.0) -> DisturbanceModel:
    wo = 2.0 * math.pi * omega_freq
    wv = 2.0 * math.pi * v_freq
    return DisturbanceModel(
        d_omega=lambda t: omega_amp * math.sin(wo * t + omega_phase),
        d_v=lambda t: v_amp * math.sin(wv * t + v_phase),
    )


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
        raise DomainError(f"terrain roll {phi} rad leaves the upright regime")
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


def exogenous_signals(terrain: TerrainProfile, noise, dist: DisturbanceModel):
    """Time-only inputs of one run, built once per run.

    Returns `signals(t) -> (g_y0, g_z0, n_y, n_z, d_omega, d_v)`: the true
    body-frame gravity components, the measurement noise and the two
    disturbances at t. `signals(t)[:4]` is bit-equal to
    `gravity_at(t, terrain, noise)` and `signals(t)[4:]` to
    `dist.sample(t)`, and a roll outside the upright regime raises the
    same DomainError.

    The last result is kept and returned again only for a bit-equal t: the
    two midpoint stages of one RK4 step share a time, and the end of one
    substep is usually the start of the next. The memo lives in this
    closure alone, so nothing is shared between runs.
    """
    roll, g = terrain.roll, terrain.gravity
    sample = noise.sample
    d_omega, d_v = dist.d_omega, dist.d_v
    sin, cos, copysign = math.sin, math.cos, math.copysign
    half_pi = 0.5 * math.pi
    last_t = math.nan  # equal to no float
    last = None

    def signals(t: float) -> tuple[float, float, float, float, float, float]:
        nonlocal last_t, last
        # 0.0 == -0.0, but the signals at the two may differ in sign
        if t == last_t and (t or copysign(1.0, t) == copysign(1.0, last_t)):
            return last
        phi = roll(t)
        if abs(phi) >= half_pi:
            raise DomainError(f"terrain roll {phi} rad leaves the upright regime")
        ny, nz = sample(t)
        last = (g * sin(phi), -g * cos(phi), ny, nz, d_omega(t), d_v(t))
        last_t = t
        return last

    return signals


def closed_loop_step(act: ActuatorParams, hgo, signals):
    """One RK4 step of one run's augmented closed loop, built once per run.

    The augmented state is the flat 9-tuple (x, y, theta, omega, v,
    est_gy, rate_gy, est_gz, rate_gz): the robot plus one high-gain
    observer (`hgo`, an `HgoParams`) per measured gravity channel, each
    driven by its noisy measurement. `signals` is the run's
    `exogenous_signals` function. The result is `hold(u_v, u_omega)`,
    which returns `step(y, t, dt)` for that input held over a control
    period: one classical RK4 step from `y` at time `t`, returning the
    9-tuple at `t + dt` with the heading wrapped to (-pi, pi]. Every
    `step` of one run shares `signals` and its memo.

    Its reference definition is `step_rk4` over the right-hand side
    `eval_dynamics` (with the disturbance) plus two
    `differentiator.hgo_rates` calls on the measurements, followed by
    `wrap_angle` on the heading. `step` writes that composition out on
    nine named floats, without stage lists or a call per stage; every
    float operation happens in the reference's order, so the result is
    bit-equal, and each check raises the same error: a non-finite held
    input (from `hold`, which the reference rejects at the first stage), a
    non-finite robot state or disturbance at any stage, a non-finite
    result and `dt <= 0`. The two midpoint stages share one
    `signals(t + dt/2)` value, as the reference does through the memo.
    """
    tau_v, tau_omega = act.tau_v, act.tau_omega
    # -tau * state parses as (-tau) * state, so the negations are exact
    neg_tau_v, neg_tau_omega = -tau_v, -tau_omega
    k1l = hgo.k1 * hgo.ell
    k2l2 = hgo.k2 * hgo.ell * hgo.ell
    sin, cos, ceil, isfinite = math.sin, math.cos, math.ceil, math.isfinite
    pi = math.pi
    two_pi = 2.0 * math.pi

    def hold(u_v: float, u_omega: float):
        if not (isfinite(u_v) and isfinite(u_omega)):
            raise DomainError("non-finite dynamics input")
        # the input terms of the two actuator rates are fixed over the hold
        in_omega = tau_omega * u_omega
        in_v = tau_v * u_v

        def step(y, t: float, dt: float) -> tuple[float, ...]:
            if dt <= 0.0:
                raise DomainError("dt must be positive")
            x, p, th, w, v, ey, ry, ez, rz = y
            h2 = 0.5 * dt

            # stage 1 at (t, y)
            g_y0, g_z0, ny, nz, dw, dv = signals(t)
            if not (isfinite(x) and isfinite(p) and isfinite(th) and isfinite(w)
                    and isfinite(v) and isfinite(dw) and isfinite(dv)):
                raise DomainError("non-finite dynamics input")
            iy = (g_y0 + ny) - ey
            iz = (g_z0 + nz) - ez
            a0, a1, a2 = v * cos(th), v * sin(th), w
            a3 = neg_tau_omega * w + in_omega + dw
            a4 = neg_tau_v * v + in_v + dv
            a5, a6 = ry + k1l * iy, k2l2 * iy
            a7, a8 = rz + k1l * iz, k2l2 * iz

            # stages 2 and 3 at t + dt/2 share one signals value
            x2, p2, th2 = x + h2 * a0, p + h2 * a1, th + h2 * a2
            w2, v2 = w + h2 * a3, v + h2 * a4
            ey2, ry2, ez2, rz2 = ey + h2 * a5, ry + h2 * a6, ez + h2 * a7, rz + h2 * a8
            g_y0, g_z0, ny, nz, dw, dv = signals(t + h2)
            if not (isfinite(x2) and isfinite(p2) and isfinite(th2) and isfinite(w2)
                    and isfinite(v2) and isfinite(dw) and isfinite(dv)):
                raise DomainError("non-finite dynamics input")
            my, mz = g_y0 + ny, g_z0 + nz
            iy, iz = my - ey2, mz - ez2
            b0, b1, b2 = v2 * cos(th2), v2 * sin(th2), w2
            b3 = neg_tau_omega * w2 + in_omega + dw
            b4 = neg_tau_v * v2 + in_v + dv
            b5, b6 = ry2 + k1l * iy, k2l2 * iy
            b7, b8 = rz2 + k1l * iz, k2l2 * iz

            x3, p3, th3 = x + h2 * b0, p + h2 * b1, th + h2 * b2
            w3, v3 = w + h2 * b3, v + h2 * b4
            ey3, ry3, ez3, rz3 = ey + h2 * b5, ry + h2 * b6, ez + h2 * b7, rz + h2 * b8
            # the disturbances were checked in stage 2
            if not (isfinite(x3) and isfinite(p3) and isfinite(th3) and isfinite(w3)
                    and isfinite(v3)):
                raise DomainError("non-finite dynamics input")
            iy, iz = my - ey3, mz - ez3
            c0, c1, c2 = v3 * cos(th3), v3 * sin(th3), w3
            c3 = neg_tau_omega * w3 + in_omega + dw
            c4 = neg_tau_v * v3 + in_v + dv
            c5, c6 = ry3 + k1l * iy, k2l2 * iy
            c7, c8 = rz3 + k1l * iz, k2l2 * iz

            # stage 4 at t + dt
            x4, p4, th4 = x + dt * c0, p + dt * c1, th + dt * c2
            w4, v4 = w + dt * c3, v + dt * c4
            ey4, ry4, ez4, rz4 = ey + dt * c5, ry + dt * c6, ez + dt * c7, rz + dt * c8
            g_y0, g_z0, ny, nz, dw, dv = signals(t + dt)
            if not (isfinite(x4) and isfinite(p4) and isfinite(th4) and isfinite(w4)
                    and isfinite(v4) and isfinite(dw) and isfinite(dv)):
                raise DomainError("non-finite dynamics input")
            iy = (g_y0 + ny) - ey4
            iz = (g_z0 + nz) - ez4
            d0, d1, d2 = v4 * cos(th4), v4 * sin(th4), w4
            d3 = neg_tau_omega * w4 + in_omega + dw
            d4 = neg_tau_v * v4 + in_v + dv
            d5, d6 = ry4 + k1l * iy, k2l2 * iy
            d7, d8 = rz4 + k1l * iz, k2l2 * iz

            sixth = dt / 6.0
            x = x + sixth * (a0 + 2.0 * (b0 + c0) + d0)
            p = p + sixth * (a1 + 2.0 * (b1 + c1) + d1)
            th = th + sixth * (a2 + 2.0 * (b2 + c2) + d2)
            w = w + sixth * (a3 + 2.0 * (b3 + c3) + d3)
            v = v + sixth * (a4 + 2.0 * (b4 + c4) + d4)
            ey = ey + sixth * (a5 + 2.0 * (b5 + c5) + d5)
            ry = ry + sixth * (a6 + 2.0 * (b6 + c6) + d6)
            ez = ez + sixth * (a7 + 2.0 * (b7 + c7) + d7)
            rz = rz + sixth * (a8 + 2.0 * (b8 + c8) + d8)
            if not (isfinite(x) and isfinite(p) and isfinite(th) and isfinite(w)
                    and isfinite(v) and isfinite(ey) and isfinite(ry)
                    and isfinite(ez) and isfinite(rz)):
                raise NonFiniteStateError(f"non-finite state after step at t={t}")
            # the heading through wrap_angle's expression
            return (x, p, th - two_pi * ceil((th - pi) / two_pi), w, v, ey, ry, ez, rz)
        return step
    return hold


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
