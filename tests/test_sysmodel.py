import math
import random

import numpy as np
import pytest

from rollguard import differentiator, sysmodel
from rollguard.barrier import h_pair
from rollguard.differentiator import HgoParams, hgo_rates
from rollguard.errors import DomainError, NonFiniteStateError
from rollguard.scenario import Scenario
from rollguard.sysmodel import (ActuatorParams, ControlInput, DisturbanceModel, NoiseModel,
                                RobotState, TerrainProfile, _Raises, eval_dynamics,
                                exogenous_signals, gravity_at, observer_period,
                                robot_period, step_rk4, substep_map, wrap_angle)

from _stepref import (reference_closed_loop_step, reference_observer_step, reference_rhs,
                      reference_robot_period)


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
        assert gravity_at(0.0, TerrainProfile("constant", 0.0)) == (0.0, -9.81, 0.0, 0.0)

    def test_slope_trig(self):
        g_y0, g_z0, _, _ = gravity_at(0.0, TerrainProfile("constant", math.radians(27.0)))
        assert g_y0 == pytest.approx(9.81 * math.sin(math.radians(27.0)))
        assert g_z0 == pytest.approx(-9.81 * math.cos(math.radians(27.0)))
        assert g_y0 == pytest.approx(4.4536, abs=1e-4)
        assert g_z0 == pytest.approx(-8.7408, abs=1e-4)

    def test_additive_noise(self):
        g_y0, g_z0, n_y, n_z = gravity_at(0.0, TerrainProfile("constant", 0.0),
                                          ConstantNoise(0.1, 0.1))
        assert (g_y0, g_z0, n_y, n_z) == (0.0, -9.81, 0.1, 0.1)
        assert g_y0 + n_y == pytest.approx(0.1)
        assert g_z0 + n_z == pytest.approx(-9.71)

    def test_magnitude_preserved(self):
        profile = TerrainProfile("ramp", math.radians(27.0), 0.0, 2.0)
        for t in np.linspace(0.0, 3.0, 200):
            g_y0, g_z0, _, _ = gravity_at(t, profile)
            assert g_y0 ** 2 + g_z0 ** 2 == pytest.approx(9.81 ** 2, abs=1e-12)

    def test_upright_regime_guard(self):
        with pytest.raises(DomainError):
            gravity_at(0.0, TerrainProfile("constant", math.radians(95.0)))

    def test_ramp_rate_matches_finite_difference(self):
        profile = TerrainProfile("ramp", math.radians(27.0), 0.5, 2.0)
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


RATIO = Scenario().geometry().width_ratio


def composed_period(act, hgo, signals, substeps):
    """The shipped halves as one augmented control period of `substeps`
    substeps, with the signature `hold(u_v, u_omega) -> period(y, t, dt)
    -> (*y, low)`: `observer_period` advances y[5:] from t to t + substeps
    * dt and appends the entries, then `robot_period` advances y[:5] over
    them, as `harness.exogenous_track` and `harness.run` compose them; low
    is the intersample minimum of the true constraint."""
    def hold(u_v, u_omega):
        def period(y, t, dt):
            observe = observer_period(hgo, signals, substeps, dt)
            move = robot_period(act, RATIO, dt)
            entries = []
            sig = signals(t)
            try:
                obs, _ = observe(tuple(y[5:]), t, t + substeps * dt, sig, entries)
            except (DomainError, NonFiniteStateError):
                pass  # the last entry raises it where the robot reads it
            r, low, fault = move(tuple(y[:5]), u_v, u_omega, sig[4:], entries, math.inf)
            if fault is not None:
                raise fault
            return (*r, *obs, low)
        return period
    return hold


def reference_period(act, hgo, signals, substeps):
    """`composed_period` from the references, per substep i from t_i = t +
    i * dt: the robot by one `reference_closed_loop_step` with both
    observers started at zero (the robot does not read them), the
    observers by `reference_observer_step`, the substep map, on the
    signals at t_i, t_i + dt/2 and the substep's end t + (i + 1) * dt, and
    the minimum by `min` of `h_pair` at that end. The robot's stage 4, at
    t_i + dt, reads the signals at the end, which can differ from t_i + dt
    in the last bit: one time per boundary."""
    observe = reference_observer_step(hgo)

    def hold(u_v, u_omega):
        end = {}  # the stage-4 time of the current substep -> its end
        step = reference_closed_loop_step(
            act, hgo, lambda s: signals(end.get(s, s)))(u_v, u_omega)

        def period(y, t, dt):
            low = math.inf
            for i in range(substeps):
                t_i, t_end = t + i * dt, t + (i + 1) * dt
                end.clear()
                end[t_i + dt] = t_end
                r = step((*y[:5], 0.0, 0.0, 0.0, 0.0), t_i, dt)[:5]
                y = (*r, *observe(y[5:], t_i, dt, signals(t_i), signals(t_i + 0.5 * dt),
                                  signals(t_end)))
                g_y, g_z = signals(t_end)[:2]
                low = min(low, *h_pair(y[4], y[3], g_y, g_z, RATIO))
            return (*y, low)
        return period
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
    Each stage of the shipped robot and observer periods evaluates this
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
        shipped period, whose first stage evaluates it at (t, y), raise the
        same error."""
        parts = _parts(np.random.default_rng(5))
        act, hgo, terrain, noise, dist, _ = parts
        u = [0.5, -0.2]
        y = [0.1, 0.2, 0.3, 0.4, 0.5, -1.0, 0.0, -9.0, 0.0]
        if where < 5:
            y[where] = bad
        else:
            u[where - 5] = bad
        shipped = composed_period(act, hgo, exogenous_signals(terrain, noise, dist), 4)
        outcomes = {_outcome(lambda: self._reference(parts, u, 0.3, y)),
                    _outcome(lambda: self._hold(parts)(*u)(0.3, y)),
                    _outcome(lambda: shipped(*u)(y, 0.3, 0.005))}
        assert outcomes == {(DomainError, "non-finite dynamics input")}


class TestClosedLoopStep:
    """The two halves a run integrates, `observer_period` and
    `robot_period` composed over one control period, against their
    reference definitions, per substep step_rk4 over eval_dynamics, then
    wrap_angle, for the robot and the substep map written out for the
    observers, bit for bit: the same results, the same intersample
    minimum and the same errors."""

    Y = (0.1, 0.2, 0.3, 0.4, 0.5, -1.0, 0.0, -9.0, 0.0)
    NON_FINITE = "non-finite dynamics input"

    @staticmethod
    def _holds(parts, signals=None, substeps=1):
        """(shipped, reference) holds: the composed shipped halves on the
        run's sampler, the reference on its plain definitions; both on
        `signals` when it is given."""
        act, hgo, terrain, noise, dist, _ = parts
        plain = lambda t: (*gravity_at(t, terrain, noise), *dist.sample(t))
        return [composed_period(act, hgo, signals or exogenous_signals(terrain, noise, dist),
                                substeps),
                reference_period(act, hgo, signals or plain, substeps)]

    def _both(self, parts, u, y, t, dt, signals=None, substeps=1):
        got, want = [_outcome(lambda: hold(*u)(y, t, dt))
                     for hold in self._holds(parts, signals, substeps)]
        assert got == want
        return got

    def test_bit_equal_to_reference(self):
        """Random scenarios, inputs, states (headings that wrap) and start
        times; each sample is one control period at control rates 2 and
        50 Hz with 1, 2, 4 or 7 substeps."""
        rng = np.random.default_rng(4096)
        checked = 0
        for _ in range(20):
            parts = _parts(rng)
            holds = {n: self._holds(parts, substeps=n) for n in (1, 2, 4, 7)}
            for _ in range(60):
                u = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
                substeps = int(rng.choice([1, 2, 4, 7]))
                dt = (1.0 / float(rng.choice([2.0, 50.0]))) / substeps
                t = float(rng.uniform(0.0, parts[5]))
                y = rng.normal(0.0, 5.0, 9).tolist()
                y[2] = float(rng.uniform(-20.0, 20.0))
                got_hold, want_hold = holds[substeps]
                got = got_hold(*u)(y, t, dt)
                assert type(got) is tuple and len(got) == 10
                assert -math.pi < got[2] <= math.pi
                assert _bits(got) == _bits(want_hold(*u)(y, t, dt))
                checked += substeps
        assert checked >= 1000

    def test_memo_bit_equal_on_repeated_times(self):
        """Times that repeat, interleave and come back, through two held
        inputs of one run, which share one signals function: the periods
        keep no state between calls."""
        rng = np.random.default_rng(77)
        for _ in range(5):
            parts = _parts(rng)
            got_hold, want_hold = self._holds(parts, substeps=4)
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
        """The shipped robot period rejects the input once, before its first
        substep, the reference at its first stage, with the same error."""
        parts = _parts(np.random.default_rng(5))
        u = [0.5, -0.2]
        u[where] = bad
        assert self._both(parts, u, self.Y, 0.3, 0.005, substeps=4) == \
            (DomainError, self.NON_FINITE)

    @pytest.mark.parametrize("where", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_robot_state(self, where, bad):
        parts = _parts(np.random.default_rng(5))
        y = list(self.Y)
        y[where] = bad
        assert self._both(parts, (0.5, -0.2), y, 0.3, 0.005, substeps=4) == \
            (DomainError, self.NON_FINITE)

    @pytest.mark.parametrize("stage, offset", [(1, 0.0), (2, 0.25), (4, 0.75)])
    @pytest.mark.parametrize("channel", ["d_omega", "d_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_disturbance(self, stage, offset, channel, bad):
        """In a period of four substeps of dt, the disturbance turns
        non-finite from t + (j + offset) * dt on, for every substep j, so
        the first stage whose time reaches it rejects it (stage 3 shares
        the time of stage 2). The value enters through the stage signals,
        on the run's sampler with both disturbances set to 0.1 before
        t_bad."""
        parts = _parts(np.random.default_rng(5))
        act, hgo, terrain, noise, dist, _ = parts
        t, dt = 0.3, 0.005
        slot = {"d_omega": 4, "d_v": 5}[channel]
        sampler = exogenous_signals(terrain, noise, dist)
        for j in range(4):
            t_bad = (t + j * dt) + offset * dt

            def signals(s):
                values = [*sampler(s)[:4], 0.1, 0.1]
                if s >= t_bad:
                    values[slot] = bad
                return tuple(values)
            assert self._both(parts, (0.5, -0.2), self.Y, t, dt, signals, substeps=4) == \
                (DomainError, self.NON_FINITE), j

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
        """An entry whose stage signals raised (a `_Raises` from that
        stage's slots on, as `observer_period` leaves it) raises where the
        reference reads those signals: after the checks of the earlier
        stages, before the check of its own."""
        sc = Scenario()
        t, dt = 0.3, 0.5
        signals = exogenous_signals(sc.terrain(), sc.noise_model(), sc.disturbance())
        entry = [t, *signals(t + 0.5 * dt)[4:], *signals(t + dt)[4:], *signals(t + dt)[:2]]
        first = 2 * raising - 1
        entry[first:] = [_Raises(DomainError("terrain roll 2.0 rad leaves the upright "
                                             "regime"))] * (7 - first)
        r = list(self.Y[:5])
        for i, value in overrides.items():
            r[i] = value
        got, ref = [_fault(make(sc.actuator(), RATIO, dt)(tuple(r), 0.5, -0.2,
                                                          signals(t)[4:], [tuple(entry)],
                                                          math.inf))
                    for make in (robot_period, reference_robot_period)]
        assert got == ref
        assert got[0] is DomainError and want in got[1]


class TestSubstepMap:
    """`substep_map`, the one definition of an observer substep: the walk
    applies it and the calibration sums it."""

    DT = Scenario().grid()[2]

    @staticmethod
    def _gamma(n):
        # Higham's gamma_n: n roundings of relative size u = 2^-53 at most
        u = 2.0 ** -53
        return n * u / (1.0 - n * u)

    def test_matches_rk4_within_the_rounding_bound(self):
        """The shipped walk, one `observer_period` substep, against the
        reference, `step_rk4` over `hgo_rates`, on random designs from the
        tests' ranges at the default substep, random states and measurement
        triples at t = 0, dt/2 and dt, near the value (run-like
        innovations) and far from it.

        The bound. Both sides round the same exact affine map. Each +, -, *
        and the one division dt/6 is exact times (1 + delta), |delta| <= u,
        so a result reached through at most n roundings on any path is off
        the exact one by at most gamma_n = n u / (1 - n u) times the same
        program on absolute values (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., section 3.1, Lemma 3.1). RK4 over
        hgo_rates takes at most 21 roundings on a path: 3 per stage
        evaluation, 2 per stage state, then 2 to sum the stages, 1 for
        dt/6, 1 for its product and 1 for the last addition. So |rk4 -
        exact| <= gamma_21 R|.|, with R|.| `step_rk4` over the absolute
        right-hand side (r + k1 ell (p + e), k2 ell^2 (p + e)) on |v|, |r|
        and |p|. Each coefficient c_j is such a result on a unit rate or
        measurement, off its exact value by at most gamma_21 times its own
        absolute program c|.|_j. Applying the map takes at most 6
        roundings (an innovation, a product, three sums and the value's
        last addition), so |walk - exact| <= gamma_6 (|v| + sum |c_j| |z_j|)
        + gamma_21 sum c|.|_j |z_j| over z = (r, p0 - v, pm - v, p1 - v).
        The sum of both bounds, times 1 + 1e-12 for the rounding of the
        bound itself, must hold on every output. It comes to a few 1e-14
        on the value and 1e-13 to 1e-11 on the rate, and the differences
        reach at most about 7 % of it."""
        rng = np.random.default_rng(808)
        dt = self.DT
        g21, g6 = self._gamma(21), self._gamma(6)
        worst = 0.0
        for _ in range(20):
            hgo = HgoParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(5.0, 90.0)))
            k1l, k2l2 = hgo.k1 * hgo.ell, hgo.k2 * hgo.ell * hgo.ell

            def rk4(value, rate, meas, rates):
                pick = lambda t: meas[0] if t == 0.0 else meas[1] if t < dt else meas[2]
                return step_rk4((value, rate), 0.0, dt,
                                lambda t, y: rates(y[0], y[1], pick(t)))
            plain = lambda e, r, p: hgo_rates(e, r, hgo, p)
            absolute = lambda e, r, p: (r + k1l * (p + e), k2l2 * (p + e))
            f12, f22, x0, xm, x1, y0, ym, y1 = substep_map(hgo, dt)
            columns = ((f12, f22), (x0, y0), (xm, ym), (x1, y1))
            columns_abs = [rk4(0.0, 1.0, (0.0, 0.0, 0.0), absolute)] + [
                rk4(0.0, 0.0, unit, absolute)
                for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
            for _ in range(25):
                chans = []
                for _ in range(2):
                    value = float(rng.uniform(-10.0, 10.0))
                    spread = 0.05 if rng.random() < 0.5 else 10.0
                    chans.append((value, float(rng.normal(0.0, 5.0)),
                                  tuple((value + rng.uniform(-spread, spread, 3)).tolist())))
                reads = {0.0: 0, 0.5 * dt: 1, dt: 2}
                signals = lambda t: (chans[0][2][reads[t]], chans[1][2][reads[t]],
                                     0.0, 0.0, 0.0, 0.0)
                o = (chans[0][0], chans[0][1], chans[1][0], chans[1][1])
                got, _ = observer_period(hgo, signals, 1, dt)(o, 0.0, dt, signals(0.0), [])
                for c, (value, rate, meas) in enumerate(chans):
                    want = rk4(value, rate, meas, plain)
                    full_abs = rk4(abs(value), abs(rate), tuple(map(abs, meas)), absolute)
                    z = (abs(rate), *(abs(p - value) for p in meas))
                    for row in (0, 1):
                        applied = sum(abs(col[row]) * zj for col, zj in zip(columns, z))
                        coeffs = sum(col[row] * zj for col, zj in zip(columns_abs, z))
                        bound = (g21 * full_abs[row] + g6 * ((row == 0) * abs(value) + applied)
                                 + g21 * coeffs) * (1.0 + 1e-12)
                        gap = abs(got[2 * c + row] - want[row])
                        assert gap <= bound, (hgo, value, rate, meas, row, gap, bound)
                        worst = max(worst, gap / bound)
        assert 0.0 < worst < 1.0

    def test_calibration_and_walk_read_one_map(self, monkeypatch):
        """`differentiator._grid_sums` and `observer_period` read their
        coefficients from `substep_map`, and the two reads are the very
        same cached object: the calibration sums, coefficient for
        coefficient, the map the walk applies."""
        real = sysmodel.substep_map
        seen = []

        def recording(hgo, dt):
            seen.append((hgo, dt, real(hgo, dt)))
            return seen[-1][2]
        monkeypatch.setattr(sysmodel, "substep_map", recording)
        monkeypatch.setattr(differentiator, "substep_map", recording)
        hgo, dt = HgoParams(2.5, 0.7, 40.0), self.DT
        differentiator._grid_sums.__wrapped__(hgo, dt, 10)
        sysmodel.observer_period(hgo, lambda t: (0.0,) * 6, 4, dt)
        assert len(seen) == 2 and seen[0][:2] == seen[1][:2] == (hgo, dt)
        assert seen[0][2] is seen[1][2] is real(hgo, dt)
        assert len(seen[0][2]) == 8 and all(type(c) is float for c in seen[0][2])


def _fault(result):
    """The bits of a robot period's state and minimum, or the type and text
    of its fault."""
    r, low, fault = result
    return _bits((*r, low)) if fault is None else (type(fault), str(fault))


class TestRobotStepFiniteness:
    """`robot_period` tests each stage's values with one `isfinite` of
    their sum, and one by one only when the sum is not finite; the
    reference, `reference_robot_period`, tests every value. The two must
    agree over a period of four entries: the same result on finite states
    whose stage sums overflow, and the same error wherever a non-finite
    value appears, in every stage of every substep."""

    T, DT = 0.3, 0.005
    R = (0.1, 0.2, 0.3, 0.4, 0.5)
    HUGE = (1e308, 1e308, 0.3, 0.4, 0.5)  # every stage sum overflows to inf
    SIG = (0.0, -9.81, 0.0, 0.0, 0.1, -0.1)
    NON_FINITE = (DomainError, "non-finite dynamics input")

    def _entries(self):
        """Four substeps' entries on SIG at every stage and end."""
        return [[self.T + j * self.DT, *self.SIG[4:] * 2, *self.SIG[:2]] for j in range(4)]

    def _both(self, r, u=(0.5, -0.2), entries=None, dist=SIG[4:]):
        act = ActuatorParams(5.0, 5.0)
        entries = [tuple(e) for e in (entries or self._entries())]
        return [_fault(make(act, RATIO, self.DT)(r, *u, tuple(dist), entries, math.inf))
                for make in (robot_period, reference_robot_period)]

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
        got, want = self._both(tuple(r))
        assert got == want == self.NON_FINITE

    @pytest.mark.parametrize("stage", range(3), ids=["s1", "s2", "s4"])
    @pytest.mark.parametrize("channel", [4, 5], ids=["d_omega", "d_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_disturbance(self, stage, channel, bad):
        """The value in the stage's slot of each of the four entries in
        turn, or for stage 1 in the period's start pair (a later
        substep's stage 1 is the stage 4 of the entry before it); the
        substeps before it finish, and both report the error."""
        for j in range(4 if stage else 1):
            entries, dist = self._entries(), list(self.SIG[4:])
            if stage:
                entries[j][2 * stage + channel - 5] = bad
            else:
                dist[channel - 4] = bad
            for r in (self.R, self.HUGE):
                got, want = self._both(r, entries=entries, dist=dist)
                assert got == want == self.NON_FINITE, j

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


def _any_outcome(call):
    """The bits of call()'s result, or the type and text of whatever it
    raised."""
    try:
        return _bits(call())
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


class TestExogenousSignals:
    """The one sampler against its reference definitions, `gravity_at`
    (with `NoiseModel.sample`) and `DisturbanceModel.sample`, bit for bit:
    the same values, and the same error at the same call."""

    @staticmethod
    def _reference(terrain, noise, dist, t):
        return (*gravity_at(t, terrain, noise), *dist.sample(t))

    def _check(self, terrain, noise, dist, times):
        signals = exogenous_signals(terrain, noise, dist)
        for t in times:
            assert _any_outcome(lambda: signals(t)) == \
                _any_outcome(lambda: self._reference(terrain, noise, dist, t)), t

    @pytest.mark.parametrize("terrain, dist, odd", [
        (TerrainProfile("ramp", math.radians(27.0), 0.1, 1.5),
         DisturbanceModel("sinusoid", 0.3, 0.12, 0.15, 0.08, -2.47, 0.8), False),
        # phases -0.0: the disturbance is odd in t, so its values at -0.0
        # and 0.0 differ in sign
        (TerrainProfile("ramp", math.radians(-27.0), 0.0, 2.0),
         DisturbanceModel("sinusoid", 0.3, 0.12, 0.15, 0.08, -0.0, -0.0), True),
    ], ids=["ramp", "odd"])
    def test_bit_equal_to_reference_with_memo(self, terrain, dist, odd):
        """Repeated, interleaved and signed-zero times: the signals keep no
        memo, so each call is bit-equal to the plain definitions."""
        noise = NoiseModel(0.05, 50.0, 2.0, seed=4)
        times = np.random.default_rng(6).uniform(0.0, 2.0, 40).tolist()
        sequence = [0.0, 0.0, -0.0, -0.0, 0.0]
        for t1, t2 in zip(times[::2], times[1::2]):
            sequence += [t1, t1, t2, t1, t2, t2]
        self._check(terrain, noise, dist, sequence)
        signals = exogenous_signals(terrain, noise, dist)
        assert (_bits(signals(0.0)) != _bits(signals(-0.0))) == odd

    def test_upright_regime_guard(self):
        dist = DisturbanceModel("sinusoid", 0.3, 0.12, 0.15, 0.08)
        noise = NoiseModel(0.01, 50.0, 1.0, seed=1)
        signals = exogenous_signals(TerrainProfile("constant", math.radians(95.0)), noise, dist)
        with pytest.raises(DomainError, match="upright regime"):
            signals(0.5)

    TERRAINS = {
        "ramp": TerrainProfile("ramp", math.radians(27.0), 0.3, 1.5),
        "ramp_from_0": TerrainProfile("ramp", math.radians(27.0), 0.0, 2.0, 9.7),
        "ramp_negative": TerrainProfile("ramp", math.radians(-12.5), 0.55, 0.25),
        # passes 90 degrees inside the ramp and stays beyond it after
        "ramp_raising": TerrainProfile("ramp", math.radians(120.0), 0.2, 1.0),
        "constant": TerrainProfile("constant", math.radians(27.0)),
        "constant_flat": TerrainProfile("constant", 0.0, gravity=3.7),
        "constant_raising": TerrainProfile("constant", math.radians(95.0)),
    }
    DISTURBANCES = {
        "none": DisturbanceModel(),
        "sinusoid": DisturbanceModel("sinusoid", 0.3, 0.12, 0.15, 0.08, -2.47, 0.8),
        "sinusoid_fast": DisturbanceModel("sinusoid", 5.0, 2.0, 1.5, 3.3, 3.14, -1.0),
    }

    @staticmethod
    def _times(terrain, noise):
        """The ramp's ends (u = 0 and u = 1) and their neighbouring floats,
        points inside the ramp, every stored period start k * period and
        its neighbours, times past the last stored period, negative times,
        both zeros and the non-finite times."""
        start, end = terrain.start, terrain.start + terrain.duration
        times = [start, end, math.nextafter(start, -math.inf),
                 math.nextafter(start, math.inf), math.nextafter(end, -math.inf),
                 math.nextafter(end, math.inf)]
        times += [start + terrain.duration * u for u in (1e-9, 0.25, 0.5, 0.61, 0.999)]
        for k in range(noise._n + 3):
            edge = k * noise.period
            times += [math.nextafter(edge, -math.inf), edge,
                      math.nextafter(edge, math.inf), edge + 0.3 * noise.period]
        times += [noise._n * noise.period + 1.0, 1e6, 1e300, -1.0, -1e-300, -0.0, 0.0,
                  math.nan, math.inf, -math.inf]
        times += np.random.default_rng(11).uniform(0.0, 2.5, 60).tolist()
        return times

    @pytest.mark.parametrize("dist", DISTURBANCES, ids=list(DISTURBANCES))
    @pytest.mark.parametrize("terrain", TERRAINS, ids=list(TERRAINS))
    @pytest.mark.parametrize("v_inf", [0.05, 0.0], ids=["noise", "v_inf_0"])
    def test_bit_equal_battery(self, terrain, dist, v_inf):
        """Every terrain and disturbance kind a Scenario builds, with and
        without noise, on the times of `_times`: bit-equal values where the
        reference returns, and its error where it raises: the upright
        regime's DomainError (first, before the noise is read), the noise's
        ValueError or OverflowError at a non-finite time, the sine's
        ValueError at an infinite one."""
        terrain = self.TERRAINS[terrain]
        noise = NoiseModel(v_inf, 50.0, 2.0, seed=4, tau=0.004)
        self._check(terrain, noise, self.DISTURBANCES[dist], self._times(terrain, noise))

    def test_raising_roll_fails_at_the_same_call(self):
        """Along a run's grid, a ramp that leaves the upright regime raises
        at the first time whose roll passes 90 degrees, with the roll in
        the message, as gravity_at does; the times before it return."""
        terrain = self.TERRAINS["ramp_raising"]
        noise = NoiseModel(0.01, 50.0, 2.0, seed=1)
        dist = self.DISTURBANCES["sinusoid"]
        signals = exogenous_signals(terrain, noise, dist)
        times = [k * 0.005 for k in range(400)]
        outcomes = [_any_outcome(lambda: signals(t)) for t in times]
        first = next(i for i, o in enumerate(outcomes) if o[0] is DomainError)
        assert 0.2 < times[first] < 1.2
        assert all(type(o) is list for o in outcomes[:first])
        assert outcomes[first] == (DomainError, f"terrain roll "
                                   f"{terrain.roll(times[first])} rad leaves the "
                                   f"upright regime")
        assert outcomes[-1] == (DomainError, f"terrain roll {terrain.angle} rad "
                                f"leaves the upright regime")
        self._check(terrain, noise, dist, times)


class TestRecords:
    def test_terrain_profile_checks_its_parameters(self):
        with pytest.raises(DomainError, match="profile"):
            TerrainProfile("spiral", 0.1)
        with pytest.raises(DomainError, match="duration"):
            TerrainProfile("ramp", 0.1, 0.0, 0.0)
        # the constant profile ignores the ramp's fields
        assert TerrainProfile("constant", 0.3, duration=0.0).roll_rate(5.0) == 0.0
        assert TerrainProfile("constant", 0.3, duration=0.0).roll(-2.0) == 0.3

    def test_disturbance_model_checks_its_kind(self):
        with pytest.raises(DomainError, match="disturbance"):
            DisturbanceModel("gust")
        assert DisturbanceModel().sample(1.5) == (0.0, 0.0)

    def test_robot_records_are_named_tuples(self):
        state = RobotState(1.0, 2.0, 0.5, 0.1, 0.2)
        assert tuple(state) == (1.0, 2.0, 0.5, 0.1, 0.2)
        assert (state.x, state.y, state.theta, state.omega, state.v) == tuple(state)
        assert RobotState._fields == ("x", "y", "theta", "omega", "v")
        assert ControlInput._fields == ("u_v", "u_omega")


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
