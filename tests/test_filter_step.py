"""The lean safety-filter step against the public path it replaces.

`harness.filter_step` builds both rows with `barrier.row_pair` and hands
them to `qp.solve_rows`; it must give, bit for bit, the u, status and
active labels of `qp.solve(QpProblem(u_nom, (constraint_row("h1", ...),
constraint_row("h2", ...)), *box))`, with the same warnings and the same
errors. The step inputs are rebuilt from the run's records the way the
benchmark's filter replay rebuilds them.
"""

import dataclasses
import math
import struct
import warnings

import pytest

from rollguard import harness, qp
from rollguard.barrier import BarrierEval, ConstraintRow, constraint_row, row_terms
from rollguard.differentiator import BackwardDiffWindow, backward_diff, hgo_rates
from rollguard.errors import DomainError
from rollguard.scenario import BUDGET_ROW_FILTERS, FILTERS, Scenario
from rollguard.sysmodel import RobotState


def _step_inputs(sc, records, bank):
    """(record, row_est, row_rate, env_value, env_rate, budget) per record,
    the row inputs that `harness.run` hands the filter."""
    budget = sc.budget()
    period = 1.0 / sc.control_rate
    windows = (BackwardDiffWindow(period), BackwardDiffWindow(period))
    for rec in records:
        if sc.filter == "backward_diff":
            for win, p in zip(windows, rec.g_meas):
                win.push(p)
            row_est, row_rate = rec.g_meas, tuple(map(backward_diff, windows))
        else:
            row_est = (rec.est[0], rec.est[2])
            row_rate = (hgo_rates(rec.est[0], rec.est[1], bank.hgo, rec.g_meas[0])[0],
                        hgo_rates(rec.est[2], rec.est[3], bank.hgo, rec.g_meas[1])[0])
        env_value, env_rate = bank.envelope(rec.t) if sc.filter == "envelope" else (0.0, 0.0)
        yield (rec, row_est, row_rate, env_value, env_rate,
               budget.value(rec.t) if sc.filter in BUDGET_ROW_FILTERS else 0.0)


def _reference(sc, state, u_nom, row_est, row_rate, env_value, env_rate, budget_value):
    """The public path: two `constraint_row` rows, one `QpProblem`, `qp.solve`."""
    geom, act, alpha = sc.geometry(), sc.actuator(), sc.alpha_fn()
    rows = () if sc.filter == "none" else tuple(
        constraint_row(which, state, row_est, row_rate, env_value, env_rate,
                       budget_value, geom, act, alpha) for which in ("h1", "h2"))
    sol = qp.solve(qp.QpProblem(u_nom, rows, *sc.input_box()))
    return sol.u, sol.status, "+".join(sol.active)


def _lean(law, state, u_nom, *row_inputs):
    return harness.filter_step(law, state.v, state.omega, u_nom, *row_inputs)


def _outcome(fn, *args):
    """fn's result with u by bit pattern, or the type and text of its
    error, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            u, status, active = fn(*args)
            out = (struct.pack("dd", *u), status, active)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in seen]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("v_inf", [0.01, 0.05, 0.2])
def test_filter_step_bit_equal_to_rows_and_qp_solve(v_inf, seed):
    """Every step of the five filters, including the at-rest steps whose
    degenerate rows are dropped with a warning and, for `envelope` at
    v_inf 0.2, the steps the QP relaxes."""
    base = Scenario(v_inf=v_inf, seed=seed)
    result = harness.compare(base, list(FILTERS))
    bank = base.make_bank()
    statuses = set()
    degenerate = 0
    for name in FILTERS:
        sc = dataclasses.replace(base, filter=name)
        records = result.results[name].records
        assert len(records) == 525
        law = harness.filter_law(sc)
        for rec, *row_inputs in _step_inputs(sc, records, bank):
            want, want_warnings = _outcome(_reference, sc, rec.state, rec.u_nom, *row_inputs)
            got, got_warnings = _outcome(_lean, law, rec.state, rec.u_nom, *row_inputs)
            assert got == want, (name, rec.t)
            assert got_warnings == want_warnings, (name, rec.t)
            # and the run recorded what the step gives
            assert got == (struct.pack("dd", *rec.u_star), rec.qp_status, rec.qp_active)
            degenerate += sum(issubclass(c, qp.DegenerateRowWarning)
                              for c, _ in got_warnings)
            statuses.add((name, rec.qp_status))
    # both rows of the four filtered runs at rest at t = 0
    assert degenerate >= 8
    if v_inf == 0.2:
        assert ("envelope", "infeasible_relaxed") in statuses


def _flagship_inputs():
    sc = Scenario()
    rec = harness.run(sc).records[200]
    bank = sc.make_bank()
    return sc, next(inputs for inputs in _step_inputs(sc, [rec], bank))


@pytest.mark.parametrize("slot", ["u_nom", "est", "est_rate", "env_rate", "budget"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_row_raises_the_same_error(slot, bad):
    sc, (rec, row_est, row_rate, env_value, env_rate, budget_value) = _flagship_inputs()
    u_nom = rec.u_nom
    if slot == "u_nom":
        u_nom = (u_nom[0], bad)
    elif slot == "est":
        row_est = (bad, row_est[1])
    elif slot == "est_rate":
        row_rate = (row_rate[0], bad)
    elif slot == "env_rate":
        env_rate = bad
    else:
        budget_value = bad
    row_inputs = (row_est, row_rate, env_value, env_rate, budget_value)
    want = _outcome(_reference, sc, rec.state, u_nom, *row_inputs)
    got = _outcome(_lean, harness.filter_law(sc), rec.state, u_nom, *row_inputs)
    assert got == want
    assert got[0] == (DomainError, "non-finite nominal input or constraint row")


def test_row_of_h2_alone_non_finite_raises_the_same_error():
    """Estimate rates of +-1e308 cancel in h1's drift and overflow in h2's
    alone: the sum test must see h2's beta too."""
    sc, (rec, row_est, _, env_value, env_rate, budget_value) = _flagship_inputs()
    row_inputs = (row_est, (1e308, -1e308 / sc.geometry().width_ratio), env_value,
                  env_rate, budget_value)
    law = harness.filter_law(sc)
    a0, a1, h1, h2, drift1, drift2 = row_terms(rec.state.v, rec.state.omega, row_est,
                                               row_inputs[1], env_rate, law.consts)
    assert math.isfinite(drift1) and not math.isfinite(drift2)
    want = _outcome(_reference, sc, rec.state, rec.u_nom, *row_inputs)
    assert want[0] == (DomainError, "non-finite nominal input or constraint row")
    assert _outcome(_lean, law, rec.state, rec.u_nom, *row_inputs) == want


def test_non_finite_row_aborts_a_run_with_the_same_reason():
    """A non-finite estimate rate at step 300 of a flagship run: the run
    ends there with the error the public path raises on that step."""
    sc = Scenario()
    clean = harness.run(sc).records
    track = harness.exogenous_track(sc)
    k = 300
    track.steps[k] = track.steps[k]._replace(est_rate=(math.inf, 0.0))
    rec = clean[k]
    env_value, env_rate = track.steps[k].env
    with pytest.raises(DomainError) as ref:
        _reference(sc, rec.state, rec.u_nom, (rec.est[0], rec.est[2]), (math.inf, 0.0),
                   env_value, env_rate, 0.0)
    summary = harness.run(sc, track=track).summary
    assert summary.aborted and summary.n_steps == k
    assert summary.abort_reason == str(ref.value)


@pytest.mark.parametrize("v, omega, est_rate, budget_value", [
    # the projection onto h1's row lands at about 1e199 per input
    (1.0, 1.0, (2e200, -1e200), 0.0),
    # h1 needs u_v >= 1e308 and h2 u_v <= -1e308: the relaxation squares
    # the box corners
    (0.0, 1e-3, (0.0, 0.0), 1.25e305),
], ids=["active", "relaxed"])
def test_overflowing_problem_raises_domain_error(v, omega, est_rate, budget_value):
    """On a box of +-1e308 the squared distance overflows; both paths turn
    the OverflowError into the same DomainError."""
    sc = Scenario(filter="const_margin")
    box = ((-1e308, -1e308), (1e308, 1e308))
    state = RobotState(0.0, 0.0, 0.0, omega, v)
    est_rate = (est_rate[0], est_rate[1] / sc.geometry().width_ratio)
    row_inputs = ((0.0, -9.81), est_rate, 0.0, 0.0, budget_value)
    geom, act, alpha = sc.geometry(), sc.actuator(), sc.alpha_fn()
    rows = tuple(constraint_row(which, state, *row_inputs, geom, act, alpha)
                 for which in ("h1", "h2"))
    with pytest.raises(DomainError, match="overflows") as want:
        qp.solve(qp.QpProblem((0.0, 0.0), rows, *box))
    law = harness.filter_law(sc)._replace(faces=qp.box_faces(*box))
    with pytest.raises(DomainError, match="overflows") as got:
        harness.filter_step(law, v, omega, (0.0, 0.0), *row_inputs)
    assert str(got.value) == str(want.value)
    assert isinstance(got.value.__cause__, OverflowError)


def test_flagship_run_builds_no_filter_objects(monkeypatch):
    """A flagship `envelope` run builds no row, problem or solution
    objects: a return of the per-step objects fails here, not only as a
    benchmark drift. The counters see the public path."""
    counts = {}
    for cls in (qp.QpProblem, qp.QpSolution, ConstraintRow, BarrierEval):
        counts[cls.__name__] = 0

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    res = harness.run(Scenario())
    assert not res.summary.aborted
    # steps that keep u_nom and steps with an active row or face
    optimal = [r.qp_active for r in res.records if r.qp_status == "optimal"]
    assert "" in optimal and len(set(optimal)) > 1
    assert counts == dict.fromkeys(counts, 0)
    sc = Scenario()
    st = res.records[100].state
    qp.solve(qp.QpProblem((0.0, 0.0), (constraint_row(
        "h1", st, (0.0, -9.81), (0.0, 0.0), 0.0, 0.0, 0.0, sc.geometry(),
        sc.actuator(), sc.alpha_fn()),), *sc.input_box()))
    assert counts == dict.fromkeys(counts, 1)
