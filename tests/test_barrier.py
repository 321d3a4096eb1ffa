import itertools
import math
import random

import numpy as np
import pytest

from rollguard.barrier import (AlphaLinear, CheckReport, DisturbanceBudget,
                               GeometryParams, build_bd_row,
                               build_constraint_row, check_budget_schedule,
                               check_envelope_budget, check_envelope_decay,
                               constraint_row, eval_barrier, eval_h, h_pair,
                               lipschitz_gain, row_pair, verify_cbf_candidate,
                               zmp_lateral)
from rollguard.differentiator import (DiffChannel, DifferentiatorBank,
                                      EnvelopeCoeffs, HgoParams)
from rollguard.errors import (DomainError, SingularityError,
                              StaleMeasurementError)
from rollguard.sysmodel import ActuatorParams, RobotState

from _oracle import zmp_lateral_full
from _rowcheck import row_derivative_gap

G27_Y = 9.81 * math.sin(math.radians(27.0))
G27_Z = -9.81 * math.cos(math.radians(27.0))
# mass (kg) and principal inertias (kg m^2) for the general tip-point oracle
BODY = {"mass": 40.0, "inertia_x": 0.8, "inertia_y": 1.1, "inertia_z": 1.4}


def eval_h_oracle(which, v, omega, g_y, g_z, geom):
    """eval_h's expression before it delegated to h_pair."""
    sign = {"h1": 1.0, "h2": -1.0}[which]
    return sign * v * omega - geom.width_ratio * g_z - sign * g_y


def eval_barrier_oracle(which, state, est, geom, actuator, est_rate, env_value, env_rate):
    """eval_barrier's signed expression before it delegated to row_terms:
    (h, h_rob, drift, input_row)."""
    sign = {"h1": 1.0, "h2": -1.0}[which]
    ratio = geom.width_ratio
    lip = lipschitz_gain(geom)
    h = sign * state.v * state.omega - ratio * est[1] - sign * est[0]
    dh_domega = sign * state.v
    dh_dv = sign * state.omega
    drift = (dh_domega * (-actuator.tau_omega * state.omega)
             + dh_dv * (-actuator.tau_v * state.v)
             - sign * est_rate[0] - ratio * est_rate[1]
             - lip * env_rate)
    return (h, h - lip * env_value, drift,
            (dh_dv * actuator.tau_v, dh_domega * actuator.tau_omega))


def make_bank(value_y=0.0, value_z=-9.81, e0=0.0, coeffs=None, v_inf=0.0):
    return DifferentiatorBank(
        channels=(DiffChannel(value_est=value_y), DiffChannel(value_est=value_z)),
        hgo=HgoParams(2, 1, 50), coeffs=coeffs or EnvelopeCoeffs(0.0, 1.0, 0.0),
        e0_bound=e0, v_inf=v_inf)


class TestZmp:
    def test_symmetric_rest(self, geom):
        assert zmp_lateral(0.0, 0.0, 0.0, -9.81, geom) == 0.0

    def test_substitution(self, geom):
        assert zmp_lateral(1.0, 1.0, 0.0, -9.81, geom) == \
            pytest.approx(0.4 / -9.81)

    def test_singularity(self, geom):
        with pytest.raises(SingularityError):
            zmp_lateral(1.0, 1.0, 0.0, 1e-9, geom)

    def test_general_path_agrees_when_extra_terms_vanish(self, geom):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
            g_y = rng.uniform(-5, 5)
            g_z = -rng.uniform(4, 12)
            simple = zmp_lateral(v, omega, g_y, g_z, geom)
            general = zmp_lateral_full(-v * omega, 0.0, 0.0, 0.0, omega,
                                       g_y, g_z, geom.cg_height, **BODY)
            assert general == pytest.approx(simple, abs=1e-12)

    def test_general_path_gyroscopic_term(self, geom):
        base = zmp_lateral_full(-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -9.81,
                                geom.cg_height, **BODY)
        tilted = zmp_lateral_full(-1.0, 0.0, 0.5, 0.0, 1.0, 0.0, -9.81,
                                  geom.cg_height, **BODY)
        expected = base - BODY["inertia_x"] * 0.5 / (BODY["mass"] * -9.81)
        assert tilted == pytest.approx(expected)

    def test_track_edge_matches_constraint_zero(self, geom):
        # |y_zmp| = half_width exactly when one constraint crosses zero
        rng = np.random.default_rng(6)
        for _ in range(500):
            v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
            g_y = rng.uniform(-5, 5)
            g_z = -rng.uniform(4, 12)
            h1 = eval_h("h1", v, omega, g_y, g_z, geom)
            h2 = eval_h("h2", v, omega, g_y, g_z, geom)
            yz = zmp_lateral(v, omega, g_y, g_z, geom)
            inside = h1 >= 0 and h2 >= 0
            assert inside == (abs(yz) <= geom.half_width + 1e-12)


class TestEvalH:
    def test_upright_rest(self, geom):
        assert eval_h("h1", 0, 0, 0.0, -9.81, geom) == pytest.approx(7.3575)
        assert eval_h("h2", 0, 0, 0.0, -9.81, geom) == pytest.approx(7.3575)

    def test_slope_rest(self, geom):
        h1 = eval_h("h1", 0, 0, G27_Y, G27_Z, geom)
        h2 = eval_h("h2", 0, 0, G27_Y, G27_Z, geom)
        assert h1 == pytest.approx(0.75 * -G27_Z - G27_Y)
        assert h2 == pytest.approx(0.75 * -G27_Z + G27_Y)
        assert h1 == pytest.approx(2.1019, abs=1e-4)
        assert h2 == pytest.approx(11.0092, abs=1e-4)

    def test_pair_sum_identity(self, geom):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
            g_y, g_z = rng.uniform(-6, 6), rng.uniform(-12, 12)
            total = (eval_h("h1", v, omega, g_y, g_z, geom)
                     + eval_h("h2", v, omega, g_y, g_z, geom))
            assert total == pytest.approx(-2.0 * 0.75 * g_z, abs=1e-12)

    def test_unknown_name(self, geom):
        with pytest.raises(DomainError):
            eval_h("h3", 0, 0, 0, -9.81, geom)

    def test_pair_bit_equal_to_oracle(self, geom):
        """h_pair and eval_h give the bits of the signed expression, signed
        zeros, infinities and NaN included."""
        special = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.25)
        cases = [(v, omega, g_y, g_z, geom)
                 for v, omega, g_y, g_z in itertools.product(special, repeat=4)]
        rng = random.Random(17)
        for _ in range(10_000):
            scale = 10.0 ** rng.randint(-3, 3)
            cases.append((*(rng.uniform(-scale, scale) for _ in range(4)),
                          GeometryParams(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))))
        for v, omega, g_y, g_z, gm in cases:
            want = [eval_h_oracle(which, v, omega, g_y, g_z, gm).hex()
                    for which in ("h1", "h2")]
            pair = h_pair(v, omega, g_y, g_z, gm.width_ratio)
            assert [h.hex() for h in pair] == want, (v, omega, g_y, g_z)
            assert [eval_h(which, v, omega, g_y, g_z, gm).hex()
                    for which in ("h1", "h2")] == want, (v, omega, g_y, g_z)


class TestEvalBarrier:
    def test_lipschitz_gain_exact(self, geom):
        assert lipschitz_gain(geom) == 1.25

    def test_zero_envelope_reduces_to_h(self, geom, actuator):
        st = RobotState(0, 0, 0, 0.5, 1.0)
        be = eval_barrier("h1", st, (G27_Y, G27_Z), geom, actuator)
        assert be.h_rob == be.h
        assert be.h == pytest.approx(eval_h("h1", 1.0, 0.5, G27_Y, G27_Z, geom))

    def test_perturbation_bounded_by_lipschitz(self, geom, actuator):
        rng = np.random.default_rng(8)
        st = RobotState(0, 0, 0, -0.7, 2.0)
        base = eval_barrier("h2", st, (1.0, -9.0), geom, actuator).h
        lip = lipschitz_gain(geom)
        for _ in range(300):
            d = rng.normal(size=2)
            r = rng.uniform(0, 2)
            d *= r / np.linalg.norm(d)
            moved = eval_barrier("h2", st, (1.0 + d[0], -9.0 + d[1]),
                                 geom, actuator).h
            assert abs(moved - base) <= lip * r + 1e-9

    def test_input_row_substitution(self, geom, actuator):
        st = RobotState(0, 0, 0, 0.5, 1.0)
        be = eval_barrier("h1", st, (0.0, -9.81), geom, actuator)
        assert be.input_row == pytest.approx((5.0 * 0.5, 5.0 * 1.0))
        be2 = eval_barrier("h2", st, (0.0, -9.81), geom, actuator)
        assert be2.input_row == pytest.approx((-2.5, -5.0))

    def test_input_row_matches_finite_difference(self, geom, actuator):
        # u_v drives v_dot with gain tau_v and u_omega drives omega_dot
        # with gain tau_omega, so a = (dh/dv * tau_v, dh/domega * tau_omega)
        # with the partials of h taken by central differences
        st = RobotState(0, 0, 0, -1.1, 2.3)
        est = (2.0, -9.0)
        eps = 1e-6
        for which in ("h1", "h2"):
            be = eval_barrier(which, st, est, geom, actuator,
                              est_rate=(0.3, -0.2), env_value=0.1, env_rate=-0.05)
            h = lambda v, omega: eval_h(which, v, omega, *est, geom)
            dh_dv = (h(st.v + eps, st.omega) - h(st.v - eps, st.omega)) / (2 * eps)
            dh_domega = (h(st.v, st.omega + eps) - h(st.v, st.omega - eps)) / (2 * eps)
            assert be.input_row[0] == pytest.approx(dh_dv * actuator.tau_v, rel=1e-8)
            assert be.input_row[1] == pytest.approx(dh_domega * actuator.tau_omega,
                                                    rel=1e-8)

    def test_envelope_shrinks_value(self, geom, actuator):
        st = RobotState(0, 0, 0, 0.0, 0.0)
        be = eval_barrier("h1", st, (0.0, -9.81), geom, actuator, env_value=0.8)
        assert be.h_rob == pytest.approx(be.h - 1.25 * 0.8)

    def test_param_gradient_signs(self, geom):
        # both constraints are affine in the gravity pair: dh/dg_y = -sign,
        # dh/dg_z = -width_ratio, at any state and gravity
        rng = np.random.default_rng(12)
        for which, sign in (("h1", 1.0), ("h2", -1.0)):
            for _ in range(20):
                v, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
                g_y, g_z = rng.uniform(-5, 5), -rng.uniform(4, 12)
                h0 = eval_h(which, v, omega, g_y, g_z, geom)
                d_gy = eval_h(which, v, omega, g_y + 1.0, g_z, geom) - h0
                d_gz = eval_h(which, v, omega, g_y, g_z + 1.0, geom) - h0
                assert (d_gy, d_gz) == pytest.approx((-sign, -0.75), abs=1e-12)

    def test_bit_equal_to_oracle(self, geom):
        """Both constraints from one `row_terms` pass give the bits of the
        signed expression, signed zeros included: small integers and zeros
        make the sums cancel exactly, where a shared negation would turn
        h2's +0.0 into -0.0."""
        special = (0.0, -0.0, 1.0, -1.0, 2.0)
        cases = [(RobotState(0, 0, 0, omega, v), (e0, e1), (r0, r1), env_rate,
                  ActuatorParams(1.0, 1.0))
                 for v, omega, e0, e1, r0, r1, env_rate in itertools.product(special,
                                                                          repeat=7)]
        rng = random.Random(18)
        for _ in range(5_000):
            scale = 10.0 ** rng.randint(-3, 3)
            x = [rng.uniform(-scale, scale) for _ in range(7)]
            cases.append((RobotState(0, 0, 0, x[0], x[1]), (x[2], x[3]), (x[4], x[5]),
                          x[6], ActuatorParams(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))))
        for st, est, est_rate, env_rate, act in cases:
            for which in ("h1", "h2"):
                got = eval_barrier(which, st, est, geom, act, est_rate, 0.5, env_rate)
                want = eval_barrier_oracle(which, st, est, geom, act, est_rate, 0.5,
                                           env_rate)
                assert [x.hex() for x in (got.h, got.h_rob, got.drift, *got.input_row)] \
                    == [x.hex() for x in (*want[:3], *want[3])], (which, st, est, est_rate)

    def test_negative_envelope_rejected(self, geom, actuator):
        with pytest.raises(DomainError):
            eval_barrier("h1", RobotState(0, 0, 0, 0, 0), (0.0, -9.81),
                         geom, actuator, env_value=-0.1)


class TestRows:
    def test_row_coefficients(self, geom, actuator, alpha):
        st = RobotState(0, 0, 0, 0.5, 1.0)
        bank = make_bank(0.0, -9.81)
        row = build_constraint_row("h1", "envelope", st, bank, (0.0, -9.81),
                                   0.0, 0.0, geom, actuator, alpha)
        assert row.a == pytest.approx((2.5, 5.0))

    def test_modes_coincide_without_uncertainty(self, geom, actuator, alpha):
        # static gravity, zero noise, zero envelope, zero budget: the row
        # formulas agree exactly; through the bank the smooth maximum of the
        # two channel envelopes keeps its log(2)/100 offset and nothing more
        st = RobotState(0, 0, 0, -0.4, 1.7)
        est, est_rate = (G27_Y, G27_Z), (0.0, 0.0)
        be = eval_barrier("h1", st, est, geom, actuator, est_rate, 0.0, 0.0)
        beta_env = -alpha(be.h_rob) - be.drift
        beta_bud = -alpha(be.h) + alpha.rate * 0.0 - be.drift
        assert beta_env == beta_bud

        bank = make_bank(G27_Y, G27_Z)
        meas = (G27_Y, G27_Z)
        env = build_constraint_row("h1", "envelope", st, bank, meas, 1.0,
                                   0.0, geom, actuator, alpha)
        bud = build_constraint_row("h1", "budget", st, bank, meas, 1.0,
                                   0.0, geom, actuator, alpha,
                                   DisturbanceBudget(0.0, 1.0, 0.0))
        lse_gap = alpha.rate * 1.25 * math.log(2) / 100.0
        assert env.a == pytest.approx(bud.a)
        assert env.beta == pytest.approx(bud.beta + lse_gap, abs=1e-12)

    def test_one_row_matches_envelope_and_budget_formulas(self, geom, actuator):
        """The one row against the two formulas it replaces, bit for bit:
        -alpha(h_rob) - drift at zero budget and -alpha(h) + alpha.rate * B
        - drift at zero envelope. The zero budget adds + 0.0, which turns an
        exact-zero -0.0 into +0.0; that case compares with ==."""
        rng = np.random.default_rng(14)
        zero_case = (RobotState(0, 0, 0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        signed_zeros = 0
        for i in range(1001):
            if i == 0:
                st, est, est_rate = zero_case
            else:
                st = RobotState(*rng.uniform(-3.0, 3.0, 5).tolist())
                est = tuple(rng.uniform(-10.0, 10.0, 2).tolist())
                est_rate = tuple(rng.uniform(-10.0, 10.0, 2).tolist())
            env_value = float(rng.uniform(0.0, 5.0))
            env_rate = float(rng.uniform(-50.0, 0.0))
            budget_value = float(rng.uniform(0.0, 3.0))
            # below 1 as well: the backward-difference row takes any rate
            alpha = AlphaLinear(float(rng.uniform(0.1, 8.0)))
            for which in ("h1", "h2"):
                be = eval_barrier(which, st, est, geom, actuator, est_rate,
                                  env_value, env_rate)
                be0 = eval_barrier(which, st, est, geom, actuator, est_rate)
                for want, inputs in (
                        (-alpha(be.h_rob) - be.drift, (env_value, env_rate, 0.0)),
                        (-alpha(be0.h) + alpha.rate * budget_value - be0.drift,
                         (0.0, 0.0, budget_value)),
                        (-alpha(be0.h) - be0.drift, (0.0, 0.0, 0.0))):
                    got = constraint_row(which, st, est, est_rate, *inputs, geom,
                                         actuator, alpha)
                    assert got.a == be.input_row
                    if want == 0.0 and got.beta.hex() != want.hex():
                        assert (want, got.beta) == (-0.0, 0.0)
                        signed_zeros += 1
                    else:
                        assert got.beta.hex() == want.hex(), (i, which, inputs)
        # h2 at rest on zero estimates: h_rob and drift are both +0.0
        assert signed_zeros == 1

    def test_row_pair_bit_equal_to_constraint_rows(self, geom, actuator):
        """`row_pair` gives h1's and h2's `constraint_row`, bit for bit,
        signed zeros included: at rest, on zero inputs, and at random."""
        consts = (actuator.tau_v, actuator.tau_omega, geom.width_ratio,
                  lipschitz_gain(geom))
        rng = np.random.default_rng(15)
        cases = [(RobotState(0, 0, 0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0, 0.0)),
                 (RobotState(0, 0, 0, -0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, -0.0, 0.0))]
        for _ in range(1000):
            cases.append((RobotState(*rng.uniform(-3.0, 3.0, 5).tolist()),
                          tuple(rng.uniform(-10.0, 10.0, 2).tolist()),
                          tuple(rng.uniform(-10.0, 10.0, 2).tolist()),
                          (float(rng.uniform(0.0, 5.0)), float(rng.uniform(-50.0, 0.0)),
                           float(rng.uniform(0.0, 3.0)))))
        for st, est, est_rate, inputs in cases:
            alpha = AlphaLinear(float(rng.uniform(0.1, 8.0)))
            pair = row_pair(st.v, st.omega, est, est_rate, *inputs, consts, alpha.rate)
            rows = [constraint_row(which, st, est, est_rate, *inputs, geom, actuator, alpha)
                    for which in ("h1", "h2")]
            assert [x.hex() for row in pair for x in row] == \
                [x.hex() for row in rows for x in (*row.a, row.beta)], (st, est, est_rate)

    def test_v_inf_must_be_the_banks(self, geom, actuator, alpha):
        st = RobotState(0, 0, 0, 0.5, 1.0)
        bank = make_bank(0.0, -9.81, v_inf=0.01)
        for mode in ("envelope", "budget"):
            with pytest.raises(DomainError, match="differs from the bank"):
                build_constraint_row("h1", mode, st, bank, (0.0, -9.81), 0.0, 0.05,
                                     geom, actuator, alpha, DisturbanceBudget())
        row = build_constraint_row("h1", "envelope", st, bank, (0.0, -9.81), 0.0,
                                   0.01, geom, actuator, alpha)
        assert row.a == pytest.approx((2.5, 5.0))

    def test_missing_measurements_rejected(self, geom, actuator, alpha):
        with pytest.raises(StaleMeasurementError):
            build_constraint_row("h1", "envelope", RobotState(0, 0, 0, 0, 0),
                                 make_bank(), None, 0.0, 0.0, geom, actuator,
                                 alpha)

    def test_budget_mode_needs_budget_and_unit_rate(self, geom, actuator):
        st = RobotState(0, 0, 0, 0, 0)
        with pytest.raises(DomainError):
            build_constraint_row("h1", "budget", st, make_bank(), (0.0, -9.81),
                                 0.0, 0.0, geom, actuator, AlphaLinear(4.0))
        with pytest.raises(DomainError):
            build_constraint_row("h1", "budget", st, make_bank(), (0.0, -9.81),
                                 0.0, 0.0, geom, actuator, AlphaLinear(0.5),
                                 DisturbanceBudget(0.0, 1.0, 0.1))
        with pytest.raises(DomainError, match="unknown row mode"):
            build_constraint_row("h1", "margin", st, make_bank(), (0.0, -9.81),
                                 0.0, 0.0, geom, actuator, AlphaLinear(4.0))

    def test_alpha_monotonicity_on_safe_states(self, geom, actuator):
        # larger rate never shrinks the feasible half-plane while the
        # robustified value is nonnegative
        rng = np.random.default_rng(9)
        bank = make_bank(G27_Y, G27_Z)
        tried = 0
        for _ in range(500):
            st = RobotState(0, 0, 0, rng.uniform(-2, 2), rng.uniform(-3, 3))
            if eval_h("h1", st.v, st.omega, G27_Y, G27_Z, geom) < 0:
                continue
            tried += 1
            betas = []
            for rate in (1.0, 2.0, 4.0, 8.0):
                row = build_constraint_row("h1", "envelope", st, bank,
                                           (G27_Y, G27_Z), 0.0, 0.0, geom,
                                           actuator, AlphaLinear(rate))
                betas.append(row.beta)
            assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))
        assert tried > 100

    def test_bd_row_uses_measurements_and_rates(self, geom, actuator, alpha):
        st = RobotState(0, 0, 0, 0.5, 1.0)
        meas = (0.3, -9.5)
        row0 = build_bd_row("h1", st, meas, (0.0, 0.0), geom, actuator, alpha)
        row1 = build_bd_row("h1", st, meas, (1.0, 0.0), geom, actuator, alpha)
        # a positive lateral-gravity rate estimate tightens h1's bound
        assert row1.beta == pytest.approx(row0.beta + 1.0)
        assert row0.a == pytest.approx((2.5, 5.0))

    def test_row_derivative_matches_flow(self):
        from rollguard import harness
        from rollguard.scenario import Scenario
        scenario = Scenario()
        records = harness.run(scenario).records
        rng = np.random.default_rng(10)
        picks = rng.choice(len(records) - 30, size=10, replace=False) + 20
        for idx in picks:
            for which in ("h1", "h2"):
                fd, analytic = row_derivative_gap(scenario, records[idx], which)
                assert abs(fd - analytic) <= 1e-4 * (1.0 + abs(analytic))


class TestScheduleChecks:
    def test_zero_budget_passes(self, alpha):
        report = check_budget_schedule(DisturbanceBudget(0, 1, 0), alpha, 10.0)
        assert report.passed and report.first_violation_t is None

    def test_constant_budget_rate_two(self):
        report = check_budget_schedule(DisturbanceBudget(0.0, 1.0, 1.0),
                                       AlphaLinear(2.0), 10.0)
        assert report.passed
        assert report.min_margin == pytest.approx(1.0)

    def test_decaying_budget_rate_one_fails_at_zero(self):
        report = check_budget_schedule(DisturbanceBudget(1.0, 0.5, 0.0),
                                       AlphaLinear(1.0), 10.0)
        assert not report.passed
        assert report.first_violation_t == 0.0

    def test_constant_budget_passes_for_any_floor_with_unit_rate(self):
        # closed form: floor * (1 - rate) <= 0 whenever rate >= 1
        for floor in (0.0, 0.3, 5.0, 80.0):
            for rate in (1.0, 2.0, 10.0):
                report = check_budget_schedule(DisturbanceBudget(0.0, 1.0, floor),
                                               AlphaLinear(rate), 20.0)
                assert report.passed
                assert report.min_margin == pytest.approx((rate - 1.0) * floor)

    def test_envelope_budget_pass(self):
        # decaying envelope with |rate| <= alpha * value, zero budget
        env = lambda t: (0.5 * math.exp(-1.5 * t) + 0.2, -0.75 * math.exp(-1.5 * t))
        report = check_envelope_budget(1.25, env,
                                       DisturbanceBudget(0, 1, 0),
                                       AlphaLinear(2.0), 10.0)
        assert report.passed

    def test_envelope_budget_boundary_zero_margin(self):
        m0 = 0.4
        alpha = AlphaLinear(2.0)
        budget = DisturbanceBudget(0.0, 1.0, 2.0 * 1.25 * m0)
        report = check_envelope_budget(1.25, lambda t: (m0, 0.0),
                                       budget, alpha, 5.0)
        assert report.passed
        assert report.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_envelope_budget_violation_located(self):
        budget = DisturbanceBudget(0.0, 1.0, 10.0)
        report = check_envelope_budget(1.25, lambda t: (0.1, 0.0), budget,
                                       AlphaLinear(2.0), 5.0)
        assert not report.passed
        assert report.first_violation_t == 0.0

    def test_envelope_decay_premise(self):
        coeffs = EnvelopeCoeffs(1.0, 5.0, 0.0)
        bank = make_bank(e0=1.0, coeffs=coeffs)
        ok = check_envelope_decay(bank, AlphaLinear(2.0), 5.0)
        assert ok.passed
        noisy = make_bank(e0=1.0, coeffs=EnvelopeCoeffs(1.0, 5.0, 0.5), v_inf=0.1)
        bad = check_envelope_decay(noisy, AlphaLinear(2.0), 5.0)
        assert not bad.passed
        small_rate = check_envelope_decay(bank, AlphaLinear(0.9), 5.0)
        assert not small_rate.passed

    def test_report_serializes(self, alpha):
        report = check_budget_schedule(DisturbanceBudget(0, 1, 0), alpha, 1.0)
        d = report.to_dict()
        assert d["passed"] is True and d["points"] == 501


class TestCandidateAudit:
    def test_defaults_have_no_violations(self, geom, actuator, alpha):
        v_grid = np.linspace(-3, 3, 31)
        omega_grid = np.linspace(-2, 2, 21)
        roll_grid = np.linspace(-math.radians(27), math.radians(27), 9)
        for which in ("h1", "h2"):
            report = verify_cbf_candidate(which, v_grid, omega_grid, roll_grid,
                                          geom, actuator, alpha)
            assert report.passed
            assert report.gated >= 9  # v = omega = 0 line, all rolls
            assert report.points == 31 * 21 * 9

    def test_gate_only_at_origin(self, geom, actuator, alpha):
        report = verify_cbf_candidate("h1", [0.0, 1.0], [0.0], [0.0],
                                      geom, actuator, alpha)
        assert report.gated == 1
        report = verify_cbf_candidate("h1", [0.0, 1.0], [0.0, 0.5],
                                      [0.0, 0.1, 0.2], geom, actuator, alpha)
        assert (report.points, report.gated) == (12, 3)

    def test_violation_reported_for_tall_robot(self, actuator, alpha):
        # a geometry whose rest pose is already outside the safe set on a
        # steep roll must be flagged at the gated origin
        tall = GeometryParams(half_width=0.1, cg_height=1.0)
        report = verify_cbf_candidate("h1", [0.0], [0.0],
                                      [math.radians(27.0)], tall, actuator,
                                      alpha)
        assert not report.passed
        assert report.violations[0]["h"] < 0


def test_budget_values():
    b = DisturbanceBudget(initial=2.0, decay=0.5, floor=0.3)
    assert b.value(0.0) == pytest.approx(2.3)
    assert b.rate(0.0) == pytest.approx(-1.0)
    assert b.value(50.0) == pytest.approx(0.3, abs=1e-9)
    with pytest.raises(DomainError):
        DisturbanceBudget(initial=-1.0)
