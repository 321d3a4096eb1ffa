import math
import random

import numpy as np
import pytest

from rollguard.differentiator import hgo_rates
from rollguard.errors import DomainError, NonFiniteStateError
from rollguard.scenario import Scenario
from rollguard.sysmodel import (ActuatorParams, ControlInput, DisturbanceModel, NoiseModel,
                                RobotState, TerrainProfile, constant_roll, eval_dynamics,
                                exogenous_signals, gravity_at, observer_step, robot_step,
                                sinusoid_disturbance, smooth_ramp_roll, step_rk4,
                                wrap_angle)

from _stepref import reference_closed_loop_step, reference_rhs, reference_robot_step


def state(x=0.0, y=0.0, theta=0.0, omega=0.0, v=0.0):
    return RobotState(x, y, theta, omega, v)


class ConstantNoise:
    """Fixed additive offset on both channels, in place of a NoiseModel."""

    def __init__(self, n_y: float, n_z: float):
        self.n_y, self.n_z = n_y, n_z

    def sample(self, t: float) -> tuple[float, float]:
        return (self.n_y, self.n_z)


class TestDynamics:
    def test_equilibrium(self, actuator):
        assert eval_dynamics(state(), ControlInput(0, 0), actuator) == (0,) * 5

    def test_direct_substitution_speed_loop(self):
        params = ActuatorParams(tau_v=2.0, tau_omega=1.0)
        dx = eval_dynamics(state(v=1.0), ControlInput(1.0, 0.0), params)
        assert dx[4] == pytest.approx(-2.0 * 1.0 + 2.0 * 1.0)
        assert dx[0] == pytest.approx(1.0)

    def test_direct_substitution_heading(self):
        params = ActuatorParams(tau_v=2.0, tau_omega=1.0)
        dx = eval_dynamics(state(theta=math.pi / 2, omega=0.5, v=2.0),
                           ControlInput(0.0, 0.0), params)
        assert dx[1] == pytest.approx(2.0)
        assert dx[3] == pytest.approx(-0.5)

    def test_rejects_non_finite(self, actuator):
        with pytest.raises(DomainError):
            eval_dynamics(state(v=math.nan), ControlInput(0, 0), actuator)
        with pytest.raises(DomainError):
            eval_dynamics(state(), ControlInput(math.inf, 0), actuator)

    def test_affine_in_input(self, actuator):
        # superposition of the input-dependent part on random samples
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = state(*rng.uniform(-2, 2, size=5))
            u1 = ControlInput(*rng.uniform(-3, 3, size=2))
            u2 = ControlInput(*rng.uniform(-3, 3, size=2))
            lam = rng.uniform()
            mix = ControlInput(lam * u1.u_v + (1 - lam) * u2.u_v,
                               lam * u1.u_omega + (1 - lam) * u2.u_omega)
            f0 = np.array(eval_dynamics(s, ControlInput(0, 0), actuator))
            g1 = np.array(eval_dynamics(s, u1, actuator)) - f0
            g2 = np.array(eval_dynamics(s, u2, actuator)) - f0
            gm = np.array(eval_dynamics(s, mix, actuator)) - f0
            assert np.allclose(gm, lam * g1 + (1 - lam) * g2, atol=1e-12)

    def test_geometric_convergence_to_command(self, actuator):
        u = ControlInput(1.5, -0.7)
        y = (0.0, 0.0, 0.0, 0.0, 0.0)
        dt = 0.005
        rhs = lambda t, yy: eval_dynamics(RobotState(*yy), u, actuator)
        t = 0.0
        for _ in range(int(10.0 / actuator.tau_v / dt)):
            y = step_rk4(y, t, dt, rhs)
            t += dt
        assert abs(y[4] - u.u_v) <= 1e-3 * abs(u.u_v) + 1e-9
        assert abs(y[3] - u.u_omega) <= 1e-3 * abs(u.u_omega) + 1e-9


class TestGravity:
    def test_flat_ground(self):
        assert gravity_at(0.0, constant_roll(0.0)) == (0.0, -9.81, 0.0, 0.0)

    def test_slope_trig(self):
        g_y0, g_z0, _, _ = gravity_at(0.0, constant_roll(math.radians(27.0)))
        assert g_y0 == pytest.approx(9.81 * math.sin(math.radians(27.0)))
        assert g_z0 == pytest.approx(-9.81 * math.cos(math.radians(27.0)))
        assert g_y0 == pytest.approx(4.4536, abs=1e-4)
        assert g_z0 == pytest.approx(-8.7408, abs=1e-4)

    def test_additive_noise(self):
        g_y0, g_z0, n_y, n_z = gravity_at(0.0, constant_roll(0.0),
                                          ConstantNoise(0.1, 0.1))
        assert (g_y0, g_z0, n_y, n_z) == (0.0, -9.81, 0.1, 0.1)
        assert g_y0 + n_y == pytest.approx(0.1)
        assert g_z0 + n_z == pytest.approx(-9.71)

    def test_magnitude_preserved(self):
        profile = smooth_ramp_roll(math.radians(27.0), 0.0, 2.0)
        for t in np.linspace(0.0, 3.0, 200):
            g_y0, g_z0, _, _ = gravity_at(t, profile)
            assert g_y0 ** 2 + g_z0 ** 2 == pytest.approx(9.81 ** 2, abs=1e-12)

    def test_upright_regime_guard(self):
        with pytest.raises(DomainError):
            gravity_at(0.0, constant_roll(math.radians(95.0)))

    def test_ramp_rate_matches_finite_difference(self):
        profile = smooth_ramp_roll(math.radians(27.0), 0.5, 2.0)
        eps = 1e-6
        for t in [0.7, 1.2, 1.9, 2.3]:
            fd = (profile.roll(t + eps) - profile.roll(t - eps)) / (2 * eps)
            assert profile.roll_rate(t) == pytest.approx(fd, abs=1e-6)


class TestRk4:
    def test_zero_field(self):
        y = (1.0, -2.0, 3.0)
        assert step_rk4(y, 0.0, 0.1, lambda t, yy: (0.0, 0.0, 0.0)) == y

    def test_scalar_decay(self):
        y = step_rk4((1.0,), 0.0, 0.02, lambda t, yy: (-yy[0],))
        assert y[0] == pytest.approx(0.980198673, abs=1e-9)
        assert y[0] == pytest.approx(math.exp(-0.02), abs=1e-9)

    def test_linear_system_vs_matrix_exponential(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.4]])
        rhs = lambda t, yy: tuple(A @ yy)
        y = (1.0, -0.5)
        t, dt = 0.0, 0.02
        for _ in range(50):
            y = step_rk4(y, t, dt, rhs)
            t += dt
        # A has eigenvalues mu +- i w, so e^A = e^mu [cos w I + sin w / w (A - mu I)]
        mu, w = -0.2, 1.4
        expm = math.exp(mu) * (math.cos(w) * np.eye(2)
                               + math.sin(w) / w * (A - mu * np.eye(2)))
        exact = expm @ np.array([1.0, -0.5])
        assert np.linalg.norm(np.array(y) - exact) <= 1e-7 * np.linalg.norm(exact)

    def test_order(self):
        # halving dt cuts the error vs a dt/64 reference by >= 12x
        rhs = lambda t, yy: (math.sin(t) - 0.5 * yy[0] ** 2 + 0.2 * yy[1], -yy[0])

        def integrate(dt, t_end=1.0):
            y, t = (0.3, -0.2), 0.0
            for _ in range(int(round(t_end / dt))):
                y = step_rk4(y, t, dt, rhs)
                t += dt
            return np.array(y)

        ref = integrate(0.02 / 64)
        err1 = np.linalg.norm(integrate(0.02) - ref)
        err2 = np.linalg.norm(integrate(0.01) - ref)
        assert err1 / err2 >= 12.0

    def test_non_finite_aborts(self):
        with pytest.raises(NonFiniteStateError):
            step_rk4((1.0,), 0.0, 1.0, lambda t, yy: (1e308 * (1 + yy[0]),))

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            step_rk4((1.0,), 0.0, 0.0, lambda t, yy: (0.0,))


def _bits(values):
    return [float(v).hex() for v in values]


def _parts(rng):
    """One random scenario's (actuator, observer, terrain, noise,
    disturbance, horizon)."""
    sc = Scenario(tau_v=rng.uniform(0.5, 9.0), tau_omega=rng.uniform(0.5, 9.0),
                  hgo_k1=rng.uniform(0.5, 4.0), hgo_k2=rng.uniform(0.2, 3.0),
                  hgo_ell=rng.uniform(5.0, 90.0), v_inf=rng.uniform(0.0, 0.1),
                  seed=int(rng.integers(1 << 30)))
    return (sc.actuator(), sc.hgo(), sc.terrain(), sc.noise_model(),
            sc.disturbance(), sc.horizon)


def composed_step(act, hgo, signals):
    """The shipped halves as one augmented step, with
    `reference_closed_loop_step`'s signature: `robot_step` on y[:5], then
    `observer_step` on y[5:], both on `signals` at the stage times t,
    t + dt/2 and t + dt, as `harness.exogenous_track` hands them out."""
    move_of = robot_step(act)
    observe = observer_step(hgo)

    def hold(u_v, u_omega):
        move = move_of(u_v, u_omega)

        def step(y, t, dt):
            stages = (signals(t), signals(t + 0.5 * dt), signals(t + dt))
            return move(y[:5], t, dt, *stages) + observe(y[5:], t, dt, *stages)
        return step
    return hold


def _outcome(call):
    """The bits of call()'s result, or the type and text of what it raised."""
    try:
        return _bits(call())
    except (DomainError, NonFiniteStateError) as exc:
        return (type(exc), str(exc))


class TestClosedLoopRhs:
    """The closed-loop right-hand side, on a run's signals, against the
    model written out by hand: eval_dynamics on the disturbance plus two
    hgo_rates calls on g sin(phi) + n_y and -g cos(phi) + n_z, bit for bit.
    Each stage of the shipped robot and observer steps evaluates this
    field, and their reference integrates it."""

    @staticmethod
    def _hold(parts):
        act, hgo, terrain, noise, dist, _ = parts
        return reference_rhs(act, hgo, exogenous_signals(terrain, noise, dist))

    @staticmethod
    def _reference(parts, u, t, y):
        act, hgo, terrain, noise, dist, _ = parts
        dx = eval_dynamics(RobotState(*y[:5]), ControlInput(*u), act, dist.sample(t))
        phi = terrain.roll(t)
        ny, nz = noise.sample(t)
        g = terrain.gravity
        ry = hgo_rates(y[5], y[6], hgo, g * math.sin(phi) + ny)
        rz = hgo_rates(y[7], y[8], hgo, -g * math.cos(phi) + nz)
        return dx + ry + rz

    def test_bit_equal_to_reference(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(20):
            parts = _parts(rng)
            hold = self._hold(parts)
            for _ in range(60):
                u = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
                t = float(rng.uniform(0.0, parts[5]))
                y = rng.normal(0.0, 5.0, 9).tolist()
                got = hold(*u)(t, y)
                assert type(got) is tuple and len(got) == 9
                assert _bits(got) == _bits(self._reference(parts, u, t, y))
                checked += 1
        assert checked >= 1000

    @pytest.mark.parametrize("where", range(7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, where, bad):
        """The hand-written model, the right-hand side and the composed
        shipped step, whose first stage evaluates it at (t, y), raise the
        same error."""
        parts = _parts(np.random.default_rng(5))
        act, hgo, terrain, noise, dist, _ = parts
        u = [0.5, -0.2]
        y = [0.1, 0.2, 0.3, 0.4, 0.5, -1.0, 0.0, -9.0, 0.0]
        if where < 5:
            y[where] = bad
        else:
            u[where - 5] = bad
        shipped = composed_step(act, hgo, exogenous_signals(terrain, noise, dist))
        outcomes = {_outcome(lambda: self._reference(parts, u, 0.3, y)),
                    _outcome(lambda: self._hold(parts)(*u)(0.3, y)),
                    _outcome(lambda: shipped(*u)(y, 0.3, 0.02))}
        assert outcomes == {(DomainError, "non-finite dynamics input")}


class TestClosedLoopStep:
    """The two unrolled halves a run integrates, `robot_step` composed with
    the track's `observer_step`, against their reference definition,
    step_rk4 over eval_dynamics plus two hgo_rates calls, then wrap_angle,
    bit for bit: the same results and the same errors."""

    Y = (0.1, 0.2, 0.3, 0.4, 0.5, -1.0, 0.0, -9.0, 0.0)
    NON_FINITE = "non-finite dynamics input"

    @staticmethod
    def _holds(parts, dist=None):
        """(shipped, reference) holds: the composed shipped halves on the
        run's signals, the reference on their plain definitions."""
        act, hgo, terrain, noise, run_dist, _ = parts
        dist = run_dist if dist is None else dist
        plain = lambda t: (*gravity_at(t, terrain, noise), *dist.sample(t))
        return [composed_step(act, hgo, exogenous_signals(terrain, noise, dist)),
                reference_closed_loop_step(act, hgo, plain)]

    def _both(self, parts, u, y, t, dt, dist=None):
        got, want = [_outcome(lambda: hold(*u)(y, t, dt))
                     for hold in self._holds(parts, dist)]
        assert got == want
        return got

    def test_bit_equal_to_reference(self):
        """Random scenarios, inputs, states (headings that wrap) and start
        times; each sample chains the substeps of one control period, at
        control rates 2 and 50 Hz with 1, 2, 4 or 7 substeps."""
        rng = np.random.default_rng(4096)
        checked = 0
        for _ in range(20):
            parts = _parts(rng)
            got_hold, want_hold = self._holds(parts)
            for _ in range(60):
                u = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
                substeps = int(rng.choice([1, 2, 4, 7]))
                dt = (1.0 / float(rng.choice([2.0, 50.0]))) / substeps
                t = float(rng.uniform(0.0, parts[5]))
                y = rng.normal(0.0, 5.0, 9).tolist()
                y[2] = float(rng.uniform(-20.0, 20.0))
                got_step, want_step = got_hold(*u), want_hold(*u)
                got = want = y
                for i in range(substeps):
                    got = got_step(got, t + i * dt, dt)
                    want = want_step(want, t + i * dt, dt)
                    assert type(got) is tuple and len(got) == 9
                    assert -math.pi < got[2] <= math.pi
                    assert _bits(got) == _bits(want)
                    checked += 1
        assert checked >= 1000

    def test_memo_bit_equal_on_repeated_times(self):
        """Times that repeat, interleave and come back, through two held
        inputs of one run, which share one signals function: the step
        keeps no state between calls."""
        rng = np.random.default_rng(77)
        for _ in range(5):
            parts = _parts(rng)
            got_hold, want_hold = self._holds(parts)
            u_a = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
            u_b = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
            steps = {which: (got_hold(*u), want_hold(*u))
                     for which, u in (("a", u_a), ("b", u_b))}
            t1, t2 = rng.uniform(0.0, parts[5], 2).tolist()
            dt = 0.005
            for which, t in [("a", t1), ("a", t1), ("b", t1), ("a", t2),
                             ("b", t1), ("b", t2), ("a", t2), ("a", t1),
                             ("b", 0.0), ("a", 0.0), ("b", t1), ("a", t1 + dt),
                             ("b", t1 + dt / 2.0)]:
                y = rng.normal(0.0, 5.0, 9).tolist()
                got_step, want_step = steps[which]
                assert _bits(got_step(y, t, dt)) == _bits(want_step(y, t, dt)), (which, t)

    @pytest.mark.parametrize("where", range(2))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_held_input(self, where, bad):
        """The shipped robot step rejects the input in `hold`, the reference
        at its first stage, with the same error."""
        parts = _parts(np.random.default_rng(5))
        u = [0.5, -0.2]
        u[where] = bad
        assert self._both(parts, u, self.Y, 0.3, 0.02) == \
            (DomainError, self.NON_FINITE)

    @pytest.mark.parametrize("where", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_robot_state(self, where, bad):
        parts = _parts(np.random.default_rng(5))
        y = list(self.Y)
        y[where] = bad
        assert self._both(parts, (0.5, -0.2), y, 0.3, 0.02) == \
            (DomainError, self.NON_FINITE)

    @pytest.mark.parametrize("stage, offset", [(1, 0.0), (2, 0.25), (4, 0.75)])
    @pytest.mark.parametrize("channel", ["d_omega", "d_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_disturbance(self, stage, offset, channel, bad):
        """The disturbance turns non-finite from t + offset * dt on, so the
        first stage whose time reaches it rejects it (stage 3 shares the
        time of stage 2)."""
        parts = _parts(np.random.default_rng(5))
        t, dt = 0.3, 0.02
        t_bad = t + offset * dt
        bad_signal = lambda s: bad if s >= t_bad else 0.1
        dist = DisturbanceModel(**{"d_omega": lambda s: 0.1, "d_v": lambda s: 0.1,
                                   channel: bad_signal})
        assert self._both(parts, (0.5, -0.2), self.Y, t, dt, dist) == \
            (DomainError, self.NON_FINITE)

    @pytest.mark.parametrize("fields, u, overrides, t, dt, error", [
        # x overflows in the stage-2 input, and only in the stage-4 input
        ({}, (0.5, -0.2), {0: 1.79e308, 2: 0.0, 4: 1e307}, 0.3, 0.5, DomainError),
        ({}, (0.5, -0.2), {0: 1.79e308, 2: 0.0, 4: 2e306}, 0.3, 0.5, DomainError),
        # the speed overflows in the stage-3 input: the tau_v = 1e160 abort
        ({"tau_v": 1e160}, (3.0, 0.0), {0: 0.0, 1: 0.0, 2: 1.5, 3: 0.0, 4: 0.0},
         0.0, 0.005, DomainError),
        # an observer state is not a dynamics input: only the result overflows
        ({}, (0.5, -0.2), {5: 1e308}, 0.3, 0.5, NonFiniteStateError),
    ], ids=["stage_2", "stage_4", "stage_3_tau_v_1e160", "result"])
    def test_overflow(self, fields, u, overrides, t, dt, error):
        sc = Scenario(**fields)
        parts = (sc.actuator(), sc.hgo(), sc.terrain(), sc.noise_model(),
                 sc.disturbance(), sc.horizon)
        y = list(self.Y)
        for i, value in overrides.items():
            y[i] = value
        got = self._both(parts, u, y, t, dt)
        assert got[0] is error
        if error is NonFiniteStateError:
            assert got[1] == f"non-finite state after step at t={t}"

    def test_rejects_bad_dt(self):
        parts = _parts(np.random.default_rng(5))
        for dt in (0.0, -0.01):
            assert self._both(parts, (0.5, -0.2), self.Y, 0.3, dt) == \
                (DomainError, "dt must be positive")

    @pytest.mark.parametrize("raising, overrides, want", [
        # the stage-2 signals raise before the stage-2 input is checked
        (1, {0: 1.79e308, 2: 0.0, 4: 1e307}, "upright"),
        # the stage-2 signals raise before the stage-4 input overflows
        (1, {0: 1.79e308, 2: 0.0, 4: 2e306}, "upright"),
        # the stage-2 input overflows before the stage-4 signals raise
        (2, {0: 1.79e308, 2: 0.0, 4: 1e307}, "non-finite dynamics input"),
        # stages 1 to 3 pass, then the stage-4 signals raise
        (2, {0: 1.79e308, 2: 0.0, 4: 2e306}, "upright"),
    ], ids=["s2_before_stage_2", "s2_before_stage_4", "stage_2_before_s4", "s4"])
    def test_signals_read_at_their_stage(self, raising, overrides, want):
        """Stage signals that raise when read (as a track entry past a
        signal error does) raise where the reference reads them: after the
        checks of the earlier stages, before the check of their own."""
        class Raising:
            def __iter__(self):
                raise DomainError("terrain roll 2.0 rad leaves the upright regime")

        sc = Scenario()
        parts = (sc.actuator(), sc.hgo(), sc.terrain(), sc.noise_model(),
                 sc.disturbance(), sc.horizon)
        t, dt = 0.3, 0.5
        signals = exogenous_signals(*parts[2:5])
        stages = [signals(t), signals(t + 0.5 * dt), signals(t + dt)]
        stages[raising] = Raising()
        r = list(self.Y[:5])
        for i, value in overrides.items():
            r[i] = value
        got, ref = [_outcome(lambda: make(sc.actuator())(0.5, -0.2)(r, t, dt, *stages))
                    for make in (robot_step, reference_robot_step)]
        assert got == ref
        assert got[0] is DomainError and want in got[1]


class TestRobotStepFiniteness:
    """`robot_step` tests each stage's values with one `isfinite` of their
    sum, and one by one only when the sum is not finite; the reference,
    `reference_robot_step`, tests every value. The two must agree: the
    same result on finite states whose stage sums overflow, and the same
    error wherever a non-finite value appears."""

    T, DT = 0.3, 0.005
    R = (0.1, 0.2, 0.3, 0.4, 0.5)
    HUGE = (1e308, 1e308, 0.3, 0.4, 0.5)  # every stage sum overflows to inf
    SIG = (0.0, -9.81, 0.0, 0.0, 0.1, -0.1)
    NON_FINITE = (DomainError, "non-finite dynamics input")

    def _both(self, r, u=(0.5, -0.2), stages=None):
        act = ActuatorParams(5.0, 5.0)
        stages = stages or (self.SIG,) * 3
        return [_outcome(lambda: make(act)(*u)(r, self.T, self.DT, *stages))
                for make in (robot_step, reference_robot_step)]

    @pytest.mark.parametrize("r", [
        HUGE, (-1e308, -1e308, 0.3, 0.4, 0.5), (1.7e308, 1.7e308, -3.1, 0.4, 0.5),
        (1e308, 1e308, 1e308, 0.4, 0.5), (1e308, -1e308, 0.3, 0.4, 0.5)],
        ids=["x_p_1e308", "x_p_-1e308", "x_p_1.7e308", "x_p_th_1e308", "x_-p"])
    def test_overflowing_sum_of_finite_states(self, r):
        got, want = self._both(r)
        assert got == want
        assert all(math.isfinite(float.fromhex(h)) for h in got)

    @pytest.mark.parametrize("base", ["R", "HUGE"])
    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state(self, base, slot, bad):
        r = list(getattr(self, base))
        r[slot] = bad
        got, want = self._both(r)
        assert got == want == self.NON_FINITE

    @pytest.mark.parametrize("stage", range(3), ids=["s1", "s2", "s4"])
    @pytest.mark.parametrize("channel", [4, 5], ids=["d_omega", "d_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_disturbance(self, stage, channel, bad):
        stages = [self.SIG] * 3
        sig = list(self.SIG)
        sig[channel] = bad
        stages[stage] = tuple(sig)
        for r in (self.R, self.HUGE):
            got, want = self._both(r, stages=stages)
            assert got == want == self.NON_FINITE

    @pytest.mark.parametrize("where", range(2), ids=["u_v", "u_omega"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_held_input(self, where, bad):
        u = [0.5, -0.2]
        u[where] = bad
        for r in (self.R, self.HUGE):
            got, want = self._both(r, u=u)
            assert got == want == self.NON_FINITE

    def test_result_overflow(self):
        """Finite stages whose RK4 combination overflows (6 v at v = 3e307)
        raise the reference's NonFiniteStateError."""
        got, want = self._both((0.0, 0.0, 0.0, 0.0, 3e307))
        assert got == want
        assert got[0] is NonFiniteStateError


class TestExogenousSignals:
    @staticmethod
    def _reference(terrain, noise, dist, t):
        return (*gravity_at(t, terrain, noise), *dist.sample(t))

    @pytest.mark.parametrize("terrain", [
        smooth_ramp_roll(math.radians(27.0), 0.1, 1.5),
        # odd in t: the gravity truth at -0.0 and 0.0 differs in sign
        TerrainProfile(roll=lambda t: 0.3 * math.sin(t),
                       roll_rate=lambda t: 0.3 * math.cos(t)),
    ], ids=["ramp", "odd"])
    def test_bit_equal_to_reference_with_memo(self, terrain):
        """Repeated, interleaved and signed-zero times: the signals keep no
        memo, so each call is bit-equal to the plain definitions."""
        noise = NoiseModel(0.05, 50.0, 2.0, seed=4)
        dist = sinusoid_disturbance(0.3, 0.12, 0.15, 0.08)
        signals = exogenous_signals(terrain, noise, dist)
        times = np.random.default_rng(6).uniform(0.0, 2.0, 40).tolist()
        sequence = [0.0, 0.0, -0.0, -0.0, 0.0]
        for t1, t2 in zip(times[::2], times[1::2]):
            sequence += [t1, t1, t2, t1, t2, t2]
        for t in sequence:
            assert _bits(signals(t)) == _bits(self._reference(terrain, noise, dist, t)), t

    def test_upright_regime_guard(self):
        dist = sinusoid_disturbance(0.3, 0.12, 0.15, 0.08)
        noise = NoiseModel(0.01, 50.0, 1.0, seed=1)
        signals = exogenous_signals(constant_roll(math.radians(95.0)), noise, dist)
        with pytest.raises(DomainError, match="upright regime"):
            signals(0.5)


class TestNoiseModel:
    def test_builtin_floats_equal_numpy_recursion(self):
        v_inf, rate, horizon, seed, tau = 0.05, 50.0, 2.0, 11, 0.004
        noise = NoiseModel(v_inf, rate, horizon, seed, tau)
        # the same recursion on numpy rows, as a reference; the targets are
        # drawn row by row (y, then z) from one random.Random stream
        n = int(math.ceil(horizon * rate)) + 2
        period = 1.0 / rate
        u = random.Random(seed).random
        draws = np.array([[u(), u()] for _ in range(n)])
        targets = -v_inf + (2.0 * v_inf) * draws
        decay = math.exp(-period / tau)
        states = np.zeros((n + 1, 2))
        for k in range(n):
            states[k + 1] = targets[k] + (states[k] - targets[k]) * decay
        for t in np.linspace(0.0, horizon, 777).tolist():
            k = min(max(int(t / period), 0), n - 1)
            w = math.exp(-(t - k * period) / tau)
            want = targets[k] + (states[k] - targets[k]) * w
            got = noise.sample(t)
            assert [type(x) for x in got] == [float, float]
            assert _bits(got) == _bits(want)

    def test_period_index_bit_equal_to_clamp_oracle(self):
        """`sample` against the period index written as
        min(max(int(t / period), 0), n - 1): negative times, both zeros,
        each period boundary and its neighbouring floats, and times past
        the last stored period, bit for bit, errors included."""
        noise = NoiseModel(0.05, 50.0, 1.0, seed=5, tau=0.004)
        period, n = noise.period, noise._n

        def oracle(t):
            k = min(max(int(t / period), 0), n - 1)
            w = math.exp(-(t - k * period) / noise.tau)
            ty, tz = noise._targets[k]
            sy, sz = noise._states[k]
            return (ty + (sy - ty) * w, tz + (sz - tz) * w)

        def outcome(call, t):
            try:
                return _bits(call(t))
            except (ValueError, OverflowError) as exc:
                return (type(exc), str(exc))

        times = [-10.0, -1.0, -0.02, -1e-300, -5e-324, -0.0, 0.0, 5e-324,
                 2.0, 50.0, 1e6, 1e300, math.inf, -math.inf, math.nan]
        for k in range(n + 3):
            edge = k * period
            times += [math.nextafter(edge, -math.inf), edge,
                      math.nextafter(edge, math.inf)]
        for t in times:
            assert outcome(noise.sample, t) == outcome(oracle, t), t

    def test_known_answer_seed_11(self):
        """Pins the noise realization: Python keeps random.Random's stream
        for a seed fixed across versions, so these bits must not move."""
        noise = NoiseModel(0.05, 50.0, 2.0, 11, 0.004)
        want = {0.01: ("-0x1.1e77c3d547e26p-8", "0x1.6791d29e131a3p-8"),
                0.37: ("0x1.735d93381f353p-5", "0x1.65fec028627b7p-5"),
                1.99: ("-0x1.6f4da13a9a857p-8", "-0x1.87f73b8b76cf9p-6")}
        for t, hexes in want.items():
            assert tuple(x.hex() for x in noise.sample(t)) == hexes, t

    def test_sup_norm_exact_by_construction(self):
        noise = NoiseModel(v_inf=0.05, rate=50.0, horizon=2.0, seed=7)
        for t in np.linspace(0.0, 2.0, 1000):
            ny, nz = noise.sample(float(t))
            assert abs(ny) <= 0.05 + 1e-15
            assert abs(nz) <= 0.05 + 1e-15

    def test_zero_amplitude(self):
        noise = NoiseModel(v_inf=0.0, rate=50.0, horizon=1.0, seed=1)
        assert noise.sample(0.4) == (0.0, 0.0)

    def test_deterministic_given_seed(self):
        a = NoiseModel(0.02, 50.0, 1.0, seed=3)
        b = NoiseModel(0.02, 50.0, 1.0, seed=3)
        assert [a.sample(t) for t in (0.0, 0.1, 0.7)] == \
               [b.sample(t) for t in (0.0, 0.1, 0.7)]

    def test_continuous_across_periods(self):
        noise = NoiseModel(0.05, 50.0, 1.0, seed=9, tau=0.004)
        for k in (1, 5, 17):
            before = noise.sample(k * 0.02 - 1e-9)[0]
            after = noise.sample(k * 0.02 + 1e-9)[0]
            assert before == pytest.approx(after, abs=1e-6)


def test_wrap_angle_range():
    for theta in np.linspace(-20.0, 20.0, 401):
        w = wrap_angle(float(theta))
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-12)
