import math
import random
import struct
import warnings

import numpy as np
import pytest

from rollguard import _kernels, harness, qp
from rollguard.barrier import ConstraintRow
from rollguard.errors import DomainError
from rollguard.scenario import Scenario

from _oracle import grid_oracle, reference_multipliers, reference_solve_active_set


def problem(u_nom=(0.0, 0.0), rows=(), lower=(-2.0, -2.0), upper=(2.0, 2.0)):
    return qp.QpProblem(u_nom, tuple(rows), lower, upper)


def random_feasible_problem(rng, max_rows=2):
    """Rows pass through a margin ball around an interior point, so the
    feasible set always contains grid-visible volume."""
    lo = (rng.uniform(-3, -0.5), rng.uniform(-3, -0.5))
    hi = (rng.uniform(0.5, 3), rng.uniform(0.5, 3))
    u0 = (rng.uniform(lo[0] + 0.2, hi[0] - 0.2),
          rng.uniform(lo[1] + 0.2, hi[1] - 0.2))
    rows = []
    for _ in range(rng.integers(0, max_rows + 1)):
        theta = rng.uniform(0, 2 * np.pi)
        scale = rng.uniform(0.5, 5.0)
        a = (scale * math.cos(theta), scale * math.sin(theta))
        margin = rng.uniform(0.05, 0.8)
        beta = a[0] * u0[0] + a[1] * u0[1] - scale * margin
        rows.append(ConstraintRow((a[0], a[1]), beta, f"r{len(rows)}"))
    u_nom = (rng.uniform(-4, 4), rng.uniform(-4, 4))
    return problem(u_nom, rows, lo, hi)


def check_kkt(sol, prob):
    assert sol.kkt_residual is not None and sol.kkt_residual <= 1e-8
    assert all(lam >= -1e-9 for lam in sol.multipliers)
    for row in prob.rows:
        assert row.a[0] * sol.u[0] + row.a[1] * sol.u[1] >= row.beta - 1e-9
    assert prob.lower[0] - 1e-9 <= sol.u[0] <= prob.upper[0] + 1e-9
    assert prob.lower[1] - 1e-9 <= sol.u[1] <= prob.upper[1] + 1e-9


class TestSolve:
    def test_feasible_nominal_untouched(self):
        sol = qp.solve(problem(u_nom=(0.5, -1.0)))
        assert sol.u == (0.5, -1.0)
        assert sol.status == "optimal" and sol.active == ()
        assert sol.objective == 0.0

    def test_halfplane_projection(self):
        sol = qp.solve(problem(rows=[ConstraintRow((0.0, 1.0), 1.0, "r")]))
        assert sol.u == pytest.approx((0.0, 1.0))
        assert sol.active == ("r",)
        check_kkt(sol, problem(rows=[ConstraintRow((0.0, 1.0), 1.0, "r")]))

    def test_projection_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = tuple(rng.normal(size=2))
            norm2 = a[0] ** 2 + a[1] ** 2
            if norm2 < 1e-6:
                continue
            u_nom = tuple(rng.uniform(-1, 1, size=2))
            beta = a[0] * u_nom[0] + a[1] * u_nom[1] + rng.uniform(0.1, 0.5)
            prob = problem(u_nom, [ConstraintRow(a, beta, "r")],
                           (-50, -50), (50, 50))
            sol = qp.solve(prob)
            gap = beta - (a[0] * u_nom[0] + a[1] * u_nom[1])
            expected = (u_nom[0] + gap / norm2 * a[0],
                        u_nom[1] + gap / norm2 * a[1])
            assert sol.u == pytest.approx(expected, abs=1e-10)

    def test_box_clamp(self):
        sol = qp.solve(problem(u_nom=(5.0, -7.0)))
        assert sol.u == pytest.approx((2.0, -2.0))
        assert set(sol.active) == {"u_v_max", "u_omega_min"}

    def test_idempotent_on_safe_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            prob = random_feasible_problem(rng)
            sol = qp.solve(prob)
            again = qp.solve(problem(sol.u, prob.rows, prob.lower, prob.upper))
            if sol.status == "optimal":
                margin = min((r.a[0] * sol.u[0] + r.a[1] * sol.u[1] - r.beta
                              for r in prob.rows), default=1.0)
                if margin >= 1e-9:
                    assert again.u == sol.u

    def test_oracle_equivalence_thousand(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            prob = random_feasible_problem(rng)
            sol = qp.solve(prob)
            assert sol.status == "optimal"
            oracle = grid_oracle(prob)
            assert oracle is not None
            assert abs(sol.objective - oracle[0]) <= 1e-6 * (1.0 + sol.objective)
            check_kkt(sol, prob)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(2)
        labels = {"u_v_min": (1.0, 0.0), "u_v_max": (-1.0, 0.0),
                  "u_omega_min": (0.0, 1.0), "u_omega_max": (0.0, -1.0)}
        for _ in range(300):
            prob = random_feasible_problem(rng)
            sol = qp.solve(prob)
            row_map = {r.label: (r.a, r.beta) for r in prob.rows}
            for label, lam in zip(sol.active, sol.multipliers):
                if label in row_map:
                    a, beta = row_map[label]
                    slack = a[0] * sol.u[0] + a[1] * sol.u[1] - beta
                else:
                    g = labels[label]
                    bound = {"u_v_min": prob.lower[0], "u_v_max": -prob.upper[0],
                             "u_omega_min": prob.lower[1],
                             "u_omega_max": -prob.upper[1]}[label]
                    slack = g[0] * sol.u[0] + g[1] * sol.u[1] - bound
                assert lam >= -1e-9
                assert abs(lam * slack) <= 1e-8

    def test_nonexpansive_in_nominal(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(300):
            prob = random_feasible_problem(rng)
            sol = qp.solve(prob)
            eps = 1e-6
            d = rng.normal(size=2)
            d *= eps / np.linalg.norm(d)
            moved = qp.solve(problem((prob.u_nom[0] + d[0], prob.u_nom[1] + d[1]),
                                     prob.rows, prob.lower, prob.upper))
            if moved.active == sol.active:
                hits += 1
                dist = math.hypot(moved.u[0] - sol.u[0], moved.u[1] - sol.u[1])
                assert dist <= eps + 1e-12
        assert hits > 200


class TestRelaxation:
    def test_unreachable_row_pushes_to_face(self):
        prob = problem(rows=[ConstraintRow((0.0, 1.0), 5.0, "r")])
        sol = qp.solve(prob)
        assert sol.status == "infeasible_relaxed"
        assert sol.u == pytest.approx((0.0, 2.0))
        assert sol.slack_used == pytest.approx(3.0)
        assert sol.active == ("r",)

    def test_opposed_rows_equalized(self):
        rows = [ConstraintRow((1.0, 0.0), 2.0, "right"),
                ConstraintRow((-1.0, 0.0), 2.0, "left")]
        sol = qp.solve(problem(rows=rows, lower=(-1.0, -1.0), upper=(1.0, 1.0)))
        assert sol.status == "infeasible_relaxed"
        assert sol.u[0] == pytest.approx(0.0)

        # grid oracle for the max-min slack
        xs = np.linspace(-1, 1, 2001)
        slack = np.minimum(xs - 2.0, -xs - 2.0)
        assert -sol.slack_used == pytest.approx(float(slack.max()), abs=1e-9)

    def test_feasible_problem_passthrough(self):
        prob = problem(u_nom=(0.3, 0.3),
                       rows=[ConstraintRow((1.0, 0.0), -1.0, "r")])
        sol = qp.solve(prob)
        assert sol.status == "optimal"
        assert sol.u == prob.u_nom
        assert sol.active == ()
        assert sol.slack_used == 0.0

    def test_relaxation_prefers_small_deviation_on_ties(self):
        rows = [ConstraintRow((0.0, 1.0), 5.0, "r")]
        sol = qp.solve(problem(u_nom=(0.7, 0.0), rows=rows))
        assert sol.u == pytest.approx((0.7, 2.0))


class TestDegenerateRows:
    def test_vacuous_dropped_with_warning(self):
        rows = [ConstraintRow((0.0, 0.0), -1.0, "zero")]
        with pytest.warns(UserWarning):
            sol = qp.solve(problem(rows=rows))
        assert sol.status == "optimal" and sol.u == (0.0, 0.0)

    def test_unsatisfiable_forces_relaxation(self):
        rows = [ConstraintRow((0.0, 0.0), 0.5, "zero")]
        sol = qp.solve(problem(rows=rows))
        assert sol.status == "infeasible_relaxed"
        assert sol.slack_used >= 0.5
        assert sol.u == (0.0, 0.0)


class TestProblemValidation:
    def test_empty_box_rejected(self):
        with pytest.raises(DomainError):
            problem(lower=(1.0, 0.0), upper=(-1.0, 0.0))

    def test_too_many_rows_rejected(self):
        rows = [ConstraintRow((1.0, 0.0), 0.0, str(i)) for i in range(3)]
        with pytest.raises(DomainError):
            problem(rows=rows)

    def test_degenerate_box_allowed(self):
        sol = qp.solve(problem(u_nom=(1.0, 1.0), lower=(0.0, -1.0),
                               upper=(0.0, 1.0)))
        assert sol.u == pytest.approx((0.0, 1.0))

    @pytest.mark.parametrize("rows", [
        [ConstraintRow((1.0, 0.0), 1e200, "r")],
        [ConstraintRow((1.0, 0.0), 1e308, "a"), ConstraintRow((-1.0, 0.0), 1e308, "b")],
    ], ids=["active", "relaxed"])
    def test_overflowing_distance_raises_domain_error(self, rows):
        """A box of +-1e308 admits distances whose square overflows, on
        the active path (u_v = 1e200) and in the relaxation (the two rows
        cannot both hold); the solve raises DomainError, not OverflowError."""
        with pytest.raises(DomainError, match="overflows") as info:
            qp.solve(problem(rows=rows, lower=(-1e308, -1e308), upper=(1e308, 1e308)))
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", ["u_nom_v", "u_nom_omega", "a_v", "a_omega", "beta"])
    def test_non_finite_input_rejected(self, slot, bad):
        """A non-finite u_nom, row coefficient or beta is a DomainError
        when the problem is built, in the first or the second row; a NaN
        row would otherwise read as satisfied."""
        for which in range(2):
            u_nom = [0.0, 0.0]
            rows = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
            if slot.startswith("u_nom"):
                u_nom[slot == "u_nom_omega"] = bad
            else:
                rows[which][("a_v", "a_omega", "beta").index(slot)] = bad
            with pytest.raises(DomainError, match="non-finite"):
                problem(tuple(u_nom), [ConstraintRow((a0, a1), beta, f"h{j}")
                                       for j, (a0, a1, beta) in enumerate(rows)])

    def test_finite_values_whose_sum_overflows_pass(self):
        rows = [ConstraintRow((1e308, 1e308), -1e308, "h1")]
        sol = qp.solve(problem((1e308, 1e308), rows, (-1e308, -1e308), (1e308, 1e308)))
        assert sol.status == "optimal" and sol.u == (1e308, 1e308)


def _solve_outcome(solve_active_set, unx, uny, cons):
    """The solver's result with its floats by bit pattern, or the type of
    the exception it raised."""
    try:
        ux, uy, found, active, obj = solve_active_set(unx, uny, cons)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return struct.pack("<ddd", ux, uy, obj), found, active


def _multiplier_outcome(multipliers, u, u_nom, active, cons):
    try:
        lam, res = multipliers(u, u_nom, active, cons)
    except Exception as exc:  # noqa: BLE001
        return type(exc)
    return struct.pack(f"<{len(lam) + 1}d", *lam, res)


# coefficients: small integers give parallel rows, equal distances and so
# objective ties; one value in ten is an edge: of the double range, or a
# right-hand side 3e-9 off an integer, inside or outside the feasibility
# tolerance 1e-9 around it
_SMALL = tuple(float(k) for k in range(-3, 4)) + (-0.0,)
_EDGE = (5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e150, -1e150,
         1.3e154, -1.4e154, 1e200, -1e250, 1e308, -1.7976931348623157e308,
         math.inf, -math.inf, math.nan, 3e-9, -3e-9, 1.0 - 5e-10)
_VALUES = np.array(_SMALL * 20 + _EDGE)
_SPANS = np.array((0.0, 1.0, 2.0, 1e154))


def _battery(seed, count):
    """`count` problems (unx, uny, cons): 0-2 rows, followed in one problem
    in twenty by the four faces of a box, as qp.solve lists them. The draws
    are vectorized; the problems hold Python floats."""
    rng = np.random.default_rng(seed)
    values = _VALUES[rng.integers(len(_VALUES), size=(count, 8))]
    # and one value in five a plain double, as a run's rows hold them; for
    # some of those (x - unx) ** 2 and (x - unx) * (x - unx) round apart
    plain = rng.random((count, 8)) < 0.2
    values[plain] = rng.uniform(-4.0, 4.0, size=int(plain.sum()))
    values = values.tolist()
    n_rows = rng.integers(3, size=count).tolist()
    boxed = (rng.random(count) < 0.05).tolist()
    lows = (np.array(_SMALL)[rng.integers(len(_SMALL), size=(count, 2))] - 1.0)
    highs = (lows + _SPANS[rng.integers(len(_SPANS), size=(count, 2))]).tolist()
    lows = lows.tolist()
    for (unx, uny, a0, a1, a2, b0, b1, b2), n, box, lo, hi in zip(
            values, n_rows, boxed, lows, highs):
        cons = [(a0, a1, a2), (b0, b1, b2)][:n]
        if box:
            cons += [(1.0, 0.0, lo[0]), (-1.0, 0.0, -hi[0]),
                     (0.0, 1.0, lo[1]), (0.0, -1.0, -hi[1])]
        yield unx, uny, cons


class TestReferenceEquivalence:
    """The solver tests feasibility only for candidates that can win, and
    `_multipliers` sums its residual inline; both must return what the
    verbatim references in tests/_oracle.py return, bit for bit, with the
    same exception where one is raised."""

    @staticmethod
    def check(unx, uny, cons):
        got = _solve_outcome(_kernels.solve_active_set, unx, uny, cons)
        want = _solve_outcome(reference_solve_active_set, unx, uny, cons)
        assert got == want, (unx, uny, cons)
        # an empty active set takes the branch of _multipliers that kept
        # its code
        if type(want) is tuple and want[2]:
            u = struct.unpack("<dd", want[0][:16])
            assert (_multiplier_outcome(qp._multipliers, u, (unx, uny), want[2], cons)
                    == _multiplier_outcome(reference_multipliers, u, (unx, uny),
                                           want[2], cons)), (unx, uny, cons)

    def test_seeded_battery(self):
        for problem in _battery(27, 200_000):
            self.check(*problem)

    def test_multipliers_of_any_active_set(self):
        rng = random.Random(28)
        values = _VALUES.tolist()
        for unx, uny, cons in _battery(28, 20_000):
            if not cons:
                continue
            active = tuple(sorted(rng.sample(range(len(cons)),
                                             min(len(cons), rng.randrange(1, 3)))))
            u = (rng.choice(values), rng.choice(_SMALL))
            assert (_multiplier_outcome(qp._multipliers, u, (unx, uny), active, cons)
                    == _multiplier_outcome(reference_multipliers, u, (unx, uny),
                                           active, cons)), (u, unx, uny, active, cons)

    def test_every_qp_of_a_replay_set_and_a_sweep_run(self, monkeypatch):
        """The QPs of the filters the benchmark replays, at its three noise
        levels, and of an `envelope` run at v_inf 0.05 as its sweep runs it."""
        seen = []
        solve_active_set = _kernels.solve_active_set

        def record(unx, uny, cons):
            seen.append((unx, uny, list(cons)))
            return solve_active_set(unx, uny, cons)

        monkeypatch.setattr(_kernels, "solve_active_set", record)
        filters = ["backward_diff", "const_margin", "envelope", "envelope_budget"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", qp.DegenerateRowWarning)
            for v_inf in (0.01, 0.05, 0.1):
                harness.compare(Scenario(v_inf=v_inf, seed=11), filters)
            harness.run(Scenario(filter="envelope", v_inf=0.05, seed=5))
        monkeypatch.undo()
        assert len(seen) == 525 * 13
        for args in seen:
            self.check(*args)
