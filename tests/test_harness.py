import csv
import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rollguard import cli, harness
from rollguard import scenario as scenario_module
from rollguard.barrier import build_constraint_row, constraint_row
from rollguard.differentiator import hgo_rates
from rollguard.errors import DomainError
from rollguard.scenario import Scenario, load_config, parse_variant
from rollguard.sysmodel import RobotState, TerrainProfile

from _rowcheck import budget_row_margin_rebuilt
from _stepref import reference_observer_period, reference_robot_period

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ROLLOVER_CFG = str(CONFIGS / "rollover_slope.cfg")
STATIC_CFG = str(CONFIGS / "static_slope.cfg")

FILTERS = ("none", "backward_diff", "const_margin", "envelope",
           "envelope_budget")

AUDIT_SCENARIO = Scenario(
    terrain_profile="constant", roll_deg=20.0, v_inf=0.05,
    pdot_bound=0.5, pddot_bound=0.0, hgo_ell=3.0, alpha=3.0,
    dist_omega_amp=0.08, dist_omega_freq=0.2, dist_omega_phase=0.0,
    dist_v_amp=0.05, dist_v_freq=0.15, dist_v_phase=0.0,
    budget_floor=0.4, filter="envelope")

STATIC_SCENARIO = Scenario(
    terrain_profile="constant", v_inf=0.0, disturbance_kind="none",
    pdot_bound=0.0, pddot_bound=0.0, alpha=2.0, budget_floor=0.012,
    filter="envelope_budget")


class TestNominalControl:
    def test_goal_reached_mode(self):
        u = harness.nominal_control(RobotState(1.0, 2.0, 0.3, 0, 0),
                                    (1.0, 2.0), (1.0, 1.0))
        assert (u.u_v, u.u_omega) == (0.0, 0.0)

    def test_straight_ahead(self):
        u = harness.nominal_control(RobotState(0, 0, 0, 0, 0), (1.0, 0.0),
                                    (1.0, 1.0))
        assert (u.u_v, u.u_omega) == pytest.approx((1.0, 0.0))

    def test_heading_term_cancels_lateral(self):
        u = harness.nominal_control(RobotState(0, 0, math.pi / 2, 0, 0),
                                    (0.0, 1.0), (1.0, 1.0))
        assert u.u_v == pytest.approx(1.0)
        assert u.u_omega == pytest.approx(0.0)

    def test_clamped_to_box(self):
        u = harness.nominal_control(RobotState(0, 0, 0, 0, 0), (100.0, -100.0),
                                    (1.0, 5.0), box=((-3, -2), (3, 2)))
        assert u.u_v == 3.0
        assert u.u_omega == -2.0


class TestRun:
    def test_deterministic_bit_identical(self, tmp_path):
        a = harness.run(Scenario(seed=7))
        b = harness.run(Scenario(seed=7))
        harness.write_trace(a.records, tmp_path / "a.csv")
        harness.write_trace(b.records, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.summary.to_dict() == b.summary.to_dict()

    def test_seed_changes_trace(self, tmp_path):
        a = harness.run(Scenario(seed=7))
        b = harness.run(Scenario(seed=8))
        assert a.records[50].g_meas != b.records[50].g_meas

    def test_trace_schema(self, tmp_path):
        res = harness.run(Scenario(horizon=0.5))
        path = tmp_path / "trace.csv"
        harness.write_trace(res.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# rollguard-trace-1"
        assert lines[1].split(",") == list(harness.TRACE_COLUMNS)
        assert len(lines) == 2 + len(res.records)
        assert len(res.records) == 25  # one per control step

    def test_noise_respects_bound_inline(self):
        res = harness.run(Scenario(horizon=2.0, v_inf=0.03))
        for rec in res.records:
            assert abs(rec.g_meas[0] - rec.g_true[0]) <= 0.03 + 1e-12
            assert abs(rec.g_meas[1] - rec.g_true[1]) <= 0.03 + 1e-12

    def test_monotone_time(self):
        res = harness.run(Scenario(horizon=1.0))
        ts = [rec.t for rec in res.records]
        assert ts == sorted(ts)
        assert ts[0] == 0.0

    def test_abort_on_nonfinite(self):
        wild = Scenario(tau_v=1e160, tau_omega=5.0, filter="none",
                        horizon=1.0)
        res = harness.run(wild)
        assert res.summary.aborted
        assert not res.summary.safe
        assert len(res.records) >= 1  # partial trace kept
        # the integration of step 0 aborts, so the last good state is the
        # initial one: the final truth point pairs it with t = 0, not with
        # the next step's time, and adds no new minimum
        assert res.summary.n_steps == 1
        assert res.summary.min_h1_true == res.records[0].h_true[0]
        assert res.summary.min_h2_true == res.records[0].h_true[1]

    def test_final_truth_at_last_state_time(self):
        """Horizons 1.03 and 1.04 both round to 52 control steps, so both
        runs end in the same state at t = 1.04, during the terrain ramp;
        the final truth point is taken at that time, not at the horizon."""
        short = harness.run(Scenario(filter="none", horizon=1.03)).summary
        exact = harness.run(Scenario(filter="none", horizon=1.04)).summary
        assert short.n_steps == exact.n_steps == 52
        assert short.to_dict() == exact.to_dict()

    def test_terrain_leaving_upright_regime_aborts(self, monkeypatch):
        # no Scenario field reaches a roll beyond 90 degrees, so the
        # terrain is swapped: the ramp passes 90 degrees at about 0.64 s
        monkeypatch.setattr(Scenario, "terrain", lambda self: TerrainProfile(
            "ramp", math.radians(120.0), 0.0, 1.0, self.gravity))
        res = harness.run(Scenario(horizon=2.0))
        s = res.summary
        assert s.aborted and not s.safe
        assert "upright regime" in s.abort_reason
        assert 20 <= s.n_steps < 100 and len(res.records) == s.n_steps
        assert math.isfinite(s.min_h_true)
        json.dumps(s.to_dict())

    def test_singular_tip_point_aborts(self, monkeypatch):
        # |g_z| = 9.81e-8: upright, but inside the tip-point singular band
        monkeypatch.setattr(Scenario, "terrain", lambda self: TerrainProfile(
            "constant", math.acos(1e-8), gravity=self.gravity))
        res = harness.run(Scenario(horizon=0.5))
        s = res.summary
        assert s.aborted and not s.safe
        assert "tip point" in s.abort_reason
        assert s.n_steps == 0
        assert math.isfinite(s.min_h_true)

    def test_signals_evaluated_once_per_time_point(self, monkeypatch):
        """One flagship run evaluates its sampler, which reads the terrain
        roll and the noise once per call, at most 3 * substeps + 1 times
        per control step: once per distinct time point of the step (RK4
        midpoint and end per substep, the step start), not once per use."""
        calls = 0
        make_sampler = harness.exogenous_signals

        def counted_sampler(terrain, noise, dist):
            signals = make_sampler(terrain, noise, dist)

            def counted(t):
                nonlocal calls
                calls += 1
                return signals(t)
            return counted

        flagship = Scenario()
        monkeypatch.setattr(harness, "exogenous_signals", counted_sampler)
        res = harness.run(flagship)
        steps = res.summary.n_steps
        assert steps == 525 and not res.summary.aborted
        assert 0 < calls <= (3 * flagship.substeps + 1) * steps, calls

    def test_verdict_counts_intersample_dip(self):
        """At a 2 Hz control rate a 2 Hz yaw disturbance is sampled at the
        same phase every step: h stays positive at the steps and dips
        below zero between them. The verdict reads the intersample truth.
        100 substeps keep the substep at the default 5 ms, which the
        default observer design needs."""
        sc = Scenario(filter="none", control_rate=2.0, substeps=100, dist_omega_freq=2.0,
                      dist_omega_amp=5.0, dist_omega_phase=3.14, roll_deg=15.0,
                      horizon=4.0)
        s = harness.run(sc).summary
        assert not s.aborted
        assert s.min_h_true > 0.5
        assert s.min_h_true_intersample < -0.5
        assert not s.safe and not s.to_dict()["safe"]

    def test_checks_attached_per_filter(self):
        none_run = harness.run(Scenario(filter="none", horizon=0.5))
        assert none_run.summary.checks == {}
        env = harness.run(Scenario(filter="envelope", horizon=0.5))
        assert set(env.summary.checks) == {"budget_schedule", "envelope_budget"}
        bud = harness.run(dataclasses.replace(STATIC_SCENARIO, horizon=0.5))
        assert set(bud.summary.checks) == {"budget_schedule", "envelope_budget",
                                           "envelope_decay"}

    def test_projected_disturbance_audit(self):
        """When the budget covers the realized projection and the schedule
        checks pass, the envelope filter keeps the true constraint above
        the sampled-data tolerance."""
        res = harness.run(AUDIT_SCENARIO)
        s = res.summary
        assert s.budget_sound
        assert all(c["passed"] for c in s.checks.values())
        assert s.envelope_violations == 0
        assert s.min_h_true >= -1e-3

    def test_goal_progress_envelope_vs_const_margin(self):
        env = harness.run(Scenario(filter="envelope")).summary
        cm = harness.run(Scenario(filter="const_margin", budget_floor=1.5)).summary
        assert env.safe and cm.safe
        assert env.final_distance <= cm.final_distance

    def test_envelope_audit_fires_when_calibration_premise_breaks(self):
        """A 0.3 s ramp has a far larger curvature than the declared
        pddot_bound of 0, so the calibrated envelope is not sound and the
        per-channel audit counts violations; with the default calibration
        it counts none."""
        broken = harness.run(Scenario(filter="envelope", ramp_duration=0.3,
                                      pddot_bound=0.0, horizon=3.0)).summary
        assert broken.envelope_violations > 0
        sound = harness.run(Scenario(filter="envelope", horizon=3.0)).summary
        assert sound.envelope_violations == 0

    def test_robustified_value_lower_bounds_truth(self):
        # whenever the error envelopes hold, h_rob evaluated at the
        # estimates must not exceed the true constraint value
        res = harness.run(Scenario(filter="envelope"))
        assert res.summary.envelope_violations == 0
        for rec in res.records:
            assert rec.h_rob[0] <= rec.h_true[0] + 1e-9
            assert rec.h_rob[1] <= rec.h_true[1] + 1e-9


def _trace_folds(path, goal, goal_radius) -> dict:
    """The summary's trace folds, recomputed from a written trace.csv."""
    with path.open(newline="") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    proj = [float(r["proj_disturbance"]) for r in rows]
    return {
        "relaxations": sum(r["qp_status"] == "infeasible_relaxed" for r in rows),
        "proj_max": max(proj, default=0.0),
        "budget_sound": all(p <= float(r["budget"]) + 1e-9 for p, r in zip(proj, rows)),
        "time_to_goal": next((float(r["t"]) for r in rows
                              if math.hypot(goal[0] - float(r["x"]),
                                            goal[1] - float(r["y"])) <= goal_radius),
                             None),
    }


@pytest.mark.parametrize("sc, premise", [
    *((Scenario(filter=name), None) for name in FILTERS),
    (Scenario(filter="envelope", v_inf=0.1), lambda s: s["relaxations"] > 0),
    (Scenario(filter="const_margin", budget_floor=0.03),
     lambda s: s["budget_sound"] is False),
    (Scenario(filter="none", goal_x=0.3, goal_y=0.0, start_theta=0.0, horizon=3.0),
     lambda s: s["time_to_goal"] is not None),
], ids=[*FILTERS, "envelope_v_inf_0.1", "const_margin_floor_0.03", "none_goal"])
def test_summary_folds_the_written_trace(tmp_path, sc, premise):
    """relaxations, proj_max, budget_sound and time_to_goal are folds over
    the trace: the same folds over the written CSV give the same values.
    The last three cases relax, exceed the budget and reach the goal."""
    res = harness.run(sc)
    harness.write_trace(res.records, tmp_path / "trace.csv")
    folds = _trace_folds(tmp_path / "trace.csv", (sc.goal_x, sc.goal_y), sc.goal_radius)
    s = res.summary.to_dict()
    assert folds == {key: s[key] for key in folds}
    assert premise is None or premise(s)


def test_row_wrapper_bit_equal_to_run_rows():
    """build_constraint_row, which reads the bank's channels and calls
    hgo_rates and the envelope itself, gives the same bits as the rows
    harness.run assembles from values taken once per step."""
    rng = np.random.default_rng(31)
    for i in range(300):
        if i % 50 == 0:
            # a fresh observer calibration is the slow part; reuse it
            sc = Scenario(hgo_k1=rng.uniform(0.5, 4.0), hgo_ell=rng.uniform(5.0, 90.0),
                          v_inf=rng.uniform(0.001, 0.1), alpha=rng.uniform(1.0, 8.0),
                          budget_initial=rng.uniform(0.0, 2.0), filter="envelope_budget")
            geom, act, alpha, budget = sc.geometry(), sc.actuator(), sc.alpha_fn(), sc.budget()
            bank = sc.make_bank()
        state = RobotState(*rng.uniform(-3.0, 3.0, 5).tolist())
        est = tuple(rng.uniform(-10.0, 10.0, 4).tolist())
        meas = tuple(rng.uniform(-10.0, 10.0, 2).tolist())
        t = float(rng.uniform(0.0, 10.0))
        bank.channels[0].value_est, bank.channels[0].rate_est = est[0], est[1]
        bank.channels[1].value_est, bank.channels[1].rate_est = est[2], est[3]
        # as in harness.run
        est_rate = (hgo_rates(est[0], est[1], bank.hgo, meas[0])[0],
                    hgo_rates(est[2], est[3], bank.hgo, meas[1])[0])
        env_value, env_rate = bank.envelope(t)
        # the inputs each mode keeps, as harness.run passes them
        inputs = {"envelope": (env_value, env_rate, 0.0),
                  "budget": (0.0, 0.0, budget.value(t))}
        for mode, (row_env, row_env_rate, row_budget) in inputs.items():
            for which in ("h1", "h2"):
                want = build_constraint_row(which, mode, state, bank, meas, t, sc.v_inf,
                                            geom, act, alpha, budget)
                got = constraint_row(which, state, (est[0], est[2]), est_rate,
                                     row_env, row_env_rate, row_budget,
                                     geom, act, alpha)
                assert got.label == want.label == which
                assert [x.hex() for x in (*got.a, got.beta)] == \
                    [x.hex() for x in (*want.a, want.beta)], (mode, which)


def _mid_period_abort(monkeypatch):
    """A roll that leaves the upright regime inside a control period."""
    monkeypatch.setattr(Scenario, "terrain", lambda self: TerrainProfile(
        "ramp", math.radians(95.0), 0.0, 1.3, self.gravity))


def _output_bytes(res, tmp_path, name):
    harness.write_trace(res.records, tmp_path / f"trace_{name}.csv")
    harness.write_summary(res.summary, tmp_path / f"summary_{name}.json")
    return [(tmp_path / f"{kind}_{name}.{ext}").read_bytes()
            for kind, ext in (("trace", "csv"), ("summary", "json"))]


def _grid_times(sc):
    """(k, i, stage-2, stage-4 and end time) of every substep."""
    period = 1.0 / sc.control_rate
    sub_dt = period / sc.substeps
    for k in range(int(round(sc.horizon * sc.control_rate))):
        t = k * period
        for i in range(sc.substeps):
            t_i = t + i * sub_dt
            yield k, i, t_i + 0.5 * sub_dt, t_i + sub_dt, t + (i + 1) * sub_dt


def _fails_at(monkeypatch, t_bad, blow_up_after=None):
    """The run's sampler, out of the upright regime at t_bad alone, with
    measurements of 1e306 after `blow_up_after` when it is given."""
    make_sampler = harness.exogenous_signals

    def sampler(terrain, noise, dist):
        signals = make_sampler(terrain, noise, dist)

        def failing(t):
            if t == t_bad:
                raise DomainError("terrain roll 2.0 rad leaves the upright regime")
            g_y0, g_z0, n_y, n_z, d_omega, d_v = signals(t)
            if blow_up_after is not None and t > blow_up_after:
                n_y = n_z = 1e306
            return (g_y0, g_z0, n_y, n_z, d_omega, d_v)
        return failing
    monkeypatch.setattr(harness, "exogenous_signals", sampler)


FAILURES = ["stage_2", "stage_4", "stage_4_not_end", "end_not_stage_4", "top_not_end",
            "observer_before_end"]


def _inject_failure(monkeypatch, sc, where):
    """Make the run's sampler fail where `where` says, on sc's grid at 50 Hz
    and 4 substeps: in a substep's stage-2 or stage-4 signals, in a
    stage-4 time one ulp off its end time, in an end time one ulp off its
    stage-4 time, in a step's own time one ulp off the last end time, or
    in an end time after the measurements blew the observers up from
    stage 2 of that substep on. Returns (k, i, first, reason): the step
    and substep of the failure (i None for a step's own signals), the
    first slot of the flat track entry that holds it (None likewise) and
    the text of its error."""
    grid = list(_grid_times(sc))
    # the first substep whose stage-4 time is one ulp off its end time
    k_off, i_off, _, t4_off, end_off = next(g for g in grid if g[3] != g[4])
    blow_up_after = None
    if where in ("stage_2", "stage_4"):
        k, i = 7, 2
        t_bad = grid[4 * k + i][{"stage_2": 2, "stage_4": 3}[where]]
        first = {"stage_2": 3, "stage_4": 5}[where]
    elif where == "stage_4_not_end":
        k, i, first, t_bad = k_off, i_off, 5, t4_off
    elif where == "end_not_stage_4":
        k, i, first, t_bad = k_off, i_off, 7, end_off
    elif where == "top_not_end":
        k = next(j for j in range(1, 50) if j * 0.02 != grid[4 * j - 1][4])
        i, first, t_bad = None, None, k * 0.02
    else:
        k, i, first, t_bad = k_off, i_off, 7, end_off
        blow_up_after = k * 0.02 + i * 0.005
    _fails_at(monkeypatch, t_bad, blow_up_after)
    if blow_up_after is None:
        return k, i, first, "upright regime"
    return k, i, first, f"non-finite state after step at t={blow_up_after}"


@pytest.mark.parametrize("case", [*FILTERS, "tau_v_abort", "mid_period_abort", *FAILURES])
def test_run_bit_equal_with_reference_step(tmp_path, monkeypatch, case):
    """harness.run with the shipped robot and observer periods writes the
    same trace and summary bytes as with both built one reference substep
    at a time (step_rk4 over eval_dynamics plus two hgo_rates calls, then
    wrap_angle): the five filters, an overflow abort, a roll that leaves
    the upright regime inside a control period, where the minimum of the
    substeps finished before the abort must stay in the summary, and a
    failure in each slot of a flat track entry, where the run aborts at
    the failing step with its reason."""
    failure = None
    if case == "tau_v_abort":
        sc = Scenario(filter="none", tau_v=1e160, horizon=1.0)
    elif case == "mid_period_abort":
        _mid_period_abort(monkeypatch)
        sc = Scenario(filter="none", horizon=2.0)
    elif case in FAILURES:
        sc = Scenario(filter="envelope", horizon=1.0)
        failure = _inject_failure(monkeypatch, sc, case)
    else:
        sc = Scenario(filter=case, horizon=2.0)
    shipped = harness.run(sc)
    monkeypatch.setattr(harness, "robot_period", reference_robot_period)
    monkeypatch.setattr(harness, "observer_period", reference_observer_period)
    reference = harness.run(sc)
    assert _output_bytes(shipped, tmp_path, "shipped") == \
        _output_bytes(reference, tmp_path, "reference")
    s = shipped.summary
    assert s.aborted == (case not in FILTERS)
    if case == "mid_period_abort":
        assert "upright regime" in s.abort_reason
        assert s.min_h_true_intersample < s.min_h_true
    if failure is not None:
        k, i, _, reason = failure
        assert reason in s.abort_reason
        assert s.n_steps == (k if i is None else k + 1)


class TestTrack:
    @staticmethod
    def _differing(sc: Scenario):
        """One scenario per field other than filter and budget_floor, each
        differing from sc in that field alone, plus -0.0 for a 0.0."""
        for f in dataclasses.fields(sc):
            if f.name in ("filter", "budget_floor"):
                continue
            value = getattr(sc, f.name)
            if f.type == "int":
                other = value + 1
            elif f.type == "float":
                other = math.nextafter(value, math.inf)
            else:
                other = {"ramp": "constant", "sinusoid": "none"}[value]
            yield f.name, dataclasses.replace(sc, **{f.name: other})
        yield "-0.0", dataclasses.replace(sc, start_x=-0.0)

    def test_run_rejects_a_track_of_another_scenario(self, monkeypatch):
        """A track built from a scenario that differs in any field but
        filter and budget_floor fails before the run integrates."""
        sc = Scenario(horizon=0.5)
        assert sc.start_x == 0.0
        track = harness.exogenous_track(sc)

        def no_integration(*args):
            raise AssertionError("the run integrated")

        monkeypatch.setattr(harness, "robot_period", no_integration)
        checked = []
        for name, other in self._differing(sc):
            with pytest.raises(DomainError, match="exogenous track"):
                harness.run(other, track=track)
            checked.append(name)
        assert len(checked) == len(dataclasses.fields(sc)) - 1
        monkeypatch.undo()
        variant = dataclasses.replace(sc, filter="const_margin", budget_floor=0.9)
        assert harness.run(variant, track=track).summary.n_steps == 25

    @pytest.mark.parametrize("where", FAILURES)
    def test_records_the_first_failure_where_a_run_reads_it(self, monkeypatch, where):
        """The walk stops at the first failure in the order of one fused
        RK4 step per substep and leaves it where a run reads it: in place
        of a step whose signals fail, else in the failing substep's flat
        entry (t_i, the disturbance pair at stages 1, 2 and 4, the end
        gravity pair), with the floats read before the failure and the
        failure in every slot from the first that the robot reads after
        it: stage 2's or stage 4's disturbances, or the end gravity,
        where a non-finite observer state comes first. A time shared by
        two slots (a stage-4 time equal to the end time, an end time equal
        to the next step's time) fails in the first."""
        sc = Scenario(filter="none", horizon=1.0)
        k, i, first, reason = _inject_failure(monkeypatch, sc, where)
        steps = harness.exogenous_track(sc).steps
        assert all(type(steps[j]) is harness.TrackStep for j in range(k))
        assert len(steps) == k + 1
        if first is None:
            bad = steps[k]
        else:
            assert len(steps[k].substeps) == i + 1
            last = steps[k].substeps[i]
            assert [type(x) for x in last] == \
                [float] * first + [harness._Raises] * (9 - first), last
            bad = last[first]
        with pytest.raises((DomainError, harness.NonFiniteStateError), match=reason):
            list(bad)
        s = harness.run(sc).summary
        assert s.aborted and reason in s.abort_reason
        assert s.n_steps == (k if first is None else k + 1)

    def test_signals_at_start_raise(self, monkeypatch):
        """The signals at t = 0 seed the estimates: their error leaves the
        track and the run, as no step has started."""
        _fails_at(monkeypatch, 0.0)
        with pytest.raises(DomainError, match="upright regime"):
            harness.exogenous_track(Scenario(horizon=0.5))
        with pytest.raises(DomainError, match="upright regime"):
            harness.run(Scenario(horizon=0.5))

    def test_run_uses_the_given_track(self, monkeypatch):
        """A run given a track builds none of its own."""
        sc = Scenario(horizon=0.5)
        track = harness.exogenous_track(sc)

        def no_track(scenario):
            raise AssertionError("the run built a track")

        monkeypatch.setattr(harness, "exogenous_track", no_track)
        assert harness.run(sc, track=track).summary.n_steps == 25


@pytest.mark.parametrize("k1, k2", [(2.0, 1.0), (1.0, 1.0), (3.0, 1.0)],
                         ids=["critical", "complex", "real"])
def test_envelope_holds_for_designs_near_the_rk4_bound(k1, k2):
    """Observer designs just inside the load-time RK4 bound, integrated at
    the run's own 5 ms substep, stay inside their envelope: 0 violations
    over three seeds at two noise levels. The largest admitted ell is
    found by bisection on the check itself (about 281, 274 and 196)."""
    lo, hi = 1.0, 1e4
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        try:
            Scenario(hgo_k1=k1, hgo_k2=k2, hgo_ell=mid, horizon=0.5)
            lo = mid
        except DomainError:
            hi = mid
    assert 150.0 < lo < 300.0
    violations = 0
    for seed in (1, 2, 3):
        for v_inf in (0.01, 0.05):
            sc = Scenario(hgo_k1=k1, hgo_k2=k2, hgo_ell=0.999 * lo, seed=seed, v_inf=v_inf)
            violations += sum(s.violations for s in harness.exogenous_track(sc).steps)
    assert violations == 0


class TestCompare:
    def test_empty_variant_list(self):
        result = harness.compare(Scenario(filter="none", horizon=0.5), [])
        assert list(result.results) == ["none"]

    def test_exactly_one_unsafe(self):
        result = harness.compare(Scenario(filter="none"), ["envelope"])
        flags = {name: res.summary.safe for name, res in result.results.items()}
        assert flags == {"none": False, "envelope": True}

    def test_shared_signals_across_variants(self):
        result = harness.compare(Scenario(filter="none", horizon=1.0),
                                 ["envelope"])
        a = result.results["none"].records
        b = result.results["envelope"].records
        for ra, rb in zip(a, b):
            assert ra.g_meas == rb.g_meas
            assert ra.g_true == rb.g_true

    def test_budget_mode_never_less_conservative(self):
        result = harness.compare(STATIC_SCENARIO, ["envelope"])
        assert all(res.summary.safe for res in result.results.values())
        assert result.extras["budget_vs_envelope_beta_min"] >= -1e-9

    @pytest.mark.parametrize("config", [ROLLOVER_CFG, STATIC_CFG],
                             ids=["rollover", "static"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_budget_row_margin_matches_row_rebuild(self, config, seed):
        """The closed form over the trace times against both rows of both
        modes rebuilt at every record."""
        sc = dataclasses.replace(load_config(config), filter="envelope_budget",
                                 seed=seed)
        records = harness.run(sc).records
        want = budget_row_margin_rebuilt(sc, records)
        got = harness.budget_row_margin(sc, records)
        assert math.isfinite(want)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert harness.budget_row_margin(sc, []) == math.inf

    @pytest.mark.parametrize("case", ["rollover-1", "rollover-7", "static-1",
                                      "static-7", "mid_period_abort"])
    def test_each_variant_equals_its_lone_run(self, tmp_path, monkeypatch, case):
        """Each variant of a comparison, which shares one exogenous track,
        writes the trace and summary bytes of its lone run: both shipped
        configs at seeds 1 and 7, and a roll that leaves the upright regime
        inside a control period, where every variant aborts at the same
        step with the same reason and keeps the substeps it finished."""
        if case == "mid_period_abort":
            _mid_period_abort(monkeypatch)
            sc = Scenario(filter="none", horizon=2.0)
        else:
            config, seed = case.split("-")
            cfg = ROLLOVER_CFG if config == "rollover" else STATIC_CFG
            sc = dataclasses.replace(load_config(cfg), seed=int(seed))
        specs = [*FILTERS, "const_margin:0.9"]
        result = harness.compare(sc, specs)
        assert len(result.results) == 6
        for spec in specs:
            label, vscenario = parse_variant(sc, spec)
            lone = harness.run(vscenario, label=label)
            assert _output_bytes(result.results[label], tmp_path, f"compare_{label}") == \
                _output_bytes(lone, tmp_path, f"lone_{label}"), label
        summaries = [res.summary for res in result.results.values()]
        if case == "mid_period_abort":
            assert len({(s.n_steps, s.abort_reason) for s in summaries}) == 1
            for s in summaries:
                assert s.aborted and "upright regime" in s.abort_reason
                assert s.min_h_true_intersample < s.min_h_true
        else:
            assert not any(s.aborted for s in summaries)

    def test_every_run_gets_the_whole_track(self, monkeypatch):
        """`compare` walks the track to the horizon before its first run,
        so no variant's run pays for the shared walk."""
        sc = Scenario(filter="none", horizon=1.0)
        lone_run = harness.run
        lengths = []

        def run(scenario, label=None, track=None):
            lengths.append(len(track.steps))
            return lone_run(scenario, label, track)

        monkeypatch.setattr(harness, "run", run)
        harness.compare(sc, ["envelope", "const_margin:0.9"])
        assert lengths == [51, 51, 51]

    def test_outputs_written(self, tmp_path):
        result = harness.compare(Scenario(filter="none", horizon=0.5),
                                 ["envelope", "const_margin:0.9"])
        harness.write_comparison(result, tmp_path)
        assert (tmp_path / "trace_none.csv").exists()
        assert (tmp_path / "trace_envelope.csv").exists()
        assert (tmp_path / "trace_const_margin_0.9.csv").exists()
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert payload["schema"] == "rollguard-comparison-1"
        assert set(payload["variants"]) == {"none", "envelope",
                                            "const_margin_0.9"}


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _write_filter_outputs(outdir) -> dict:
    """Short run of every filter, written as trace and summary files."""
    outdir.mkdir()
    summaries = {}
    for name in FILTERS:
        res = harness.run(Scenario(filter=name, horizon=0.5))
        harness.write_trace(res.records, outdir / f"trace_{name}.csv")
        harness.write_summary(res.summary, outdir / f"summary_{name}.json")
        summaries[name] = res.summary
    return summaries


class TestOutputTypes:
    """Traces and summaries hold only builtin numbers."""

    def test_outputs_are_plain_numbers(self, tmp_path):
        summaries = _write_filter_outputs(tmp_path / "out")
        for name, summary in summaries.items():
            expected = summary.to_dict()
            text = (tmp_path / "out" / f"summary_{name}.json").read_text()
            assert json.loads(text) == expected
            for leaf in _leaves(expected):
                assert type(leaf) in (bool, int, float, str, type(None)), name

            with (tmp_path / "out" / f"trace_{name}.csv").open() as fh:
                assert fh.readline() == f"# {harness.TRACE_SCHEMA}\n"
                rows = list(csv.DictReader(fh))
            assert len(rows) == 25
            for row in rows:
                for column, cell in row.items():
                    if column not in ("qp_status", "qp_active"):
                        float(cell)

    def test_trace_rejects_foreign_scalars(self, tmp_path):
        """A numpy scalar in row 6 fails before the file is created."""
        records = harness.run(Scenario(filter="none", horizon=0.2)).records
        records[5] = records[5]._replace(y_zmp=np.float64(records[5].y_zmp))
        path = tmp_path / "trace.csv"
        with pytest.raises(TypeError, match="float64"):
            harness.write_trace(records, path)
        assert not path.exists()

    @pytest.mark.parametrize("text", ["h1,h2", 'h1"', "h1\r", "h1\n"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_trace_rejects_text_that_needs_quoting(self, tmp_path, text):
        """A text cell that CSV would quote fails before the file is
        created."""
        records = harness.run(Scenario(filter="none", horizon=0.2)).records
        records[5] = records[5]._replace(qp_active=text)
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError):
            harness.write_trace(records, path)
        assert not path.exists()


def write_trace_oracle(records, path) -> None:
    """write_trace before the joined single-pass writer: csv.writer over
    cells that are checked one by one."""
    def fmt(value):
        if type(value) in (float, int, str):
            return str(value)
        raise TypeError(f"trace cell of type {type(value).__name__}")

    with Path(path).open("w", newline="") as fh:
        fh.write(f"# {harness.TRACE_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(harness.TRACE_COLUMNS)
        for rec in records:
            writer.writerow([fmt(v) for v in rec.row()])


@pytest.mark.parametrize("sc", [
    *(Scenario(filter=name) for name in FILTERS),
    Scenario(filter="none", tau_v=1e160),
    Scenario(filter="envelope", v_inf=0.1),
], ids=[*FILTERS, "tau_v_abort", "envelope_relaxed"])
def test_write_trace_bytes_match_csv_writer_oracle(tmp_path, sc):
    """The joined writer gives the bytes of csv.writer: every filter, an
    aborted run, and a run whose relaxed QP steps write text cells such as
    `infeasible_relaxed` and `h1+u_v_max`."""
    res = harness.run(sc)
    harness.write_trace(res.records, tmp_path / "trace.csv")
    write_trace_oracle(res.records, tmp_path / "oracle.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    if sc.v_inf == 0.1:
        texts = {(r.qp_status, r.qp_active) for r in res.records}
        assert {("infeasible_relaxed", "h1+h2"), ("optimal", "h1+u_v_max")} <= texts


class TestConfig:
    def test_roundtrip_defaults(self):
        assert load_config(ROLLOVER_CFG) == Scenario()

    @pytest.mark.parametrize("text, key", [
        ("[run]\nhorizon = 1.0\nwarp_speed = 9\n", "warp_speed"),
        ("[geometry]\nmass = 40\n", "mass"),
    ], ids=["warp_speed", "geometry_mass"])
    def test_unknown_key_rejected(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        with pytest.raises(DomainError, match=key):
            load_config(bad)
        assert cli.main(["verify", "--config", str(bad)]) == 1
        assert key in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[weather]\nrain = yes\n")
        with pytest.raises(DomainError, match="weather"):
            load_config(bad)

    def test_bad_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nhorizon = soon\n")
        with pytest.raises(DomainError, match="horizon"):
            load_config(bad)

    def test_missing_file(self):
        with pytest.raises(DomainError):
            load_config("no_such_file.cfg")

    def test_byte_order_mark_accepted(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf[run]\nseed = 3\n")
        assert load_config(cfg).seed == 3

    def test_variant_parsing(self):
        label, sc = parse_variant(Scenario(), "const_margin:0.9")
        assert label == "const_margin_0.9"
        assert sc.filter == "const_margin" and sc.budget_floor == 0.9
        with pytest.raises(DomainError):
            parse_variant(Scenario(), "warp_filter")

    def test_filter_validation(self):
        with pytest.raises(DomainError):
            Scenario(filter="magic")

    @pytest.mark.parametrize("fields", [
        {"v_inf": math.nan}, {"horizon": math.inf}, {"goal_x": math.nan},
        {"alpha": -math.inf}, {"horizon": 0.001}, {"horizon": 0.0199},
        {"roll_deg": 95.0}, {"roll_deg": 90.0}, {"roll_deg": -90.0},
        {"u_v_min": 5.0}, {"u_omega_max": -3.0}, {"gravity": 0.0},
        {"gravity": -9.81}, {"tau_v": 0.0}, {"tau_omega": -1.0},
        {"alpha": 0.0}, {"half_width": 0.0}, {"cg_height": -0.4},
        {"hgo_ell": 0.0}, {"hgo_k1": -2.0},
        {"noise_tau": 0.0}, {"v_inf": -0.01}, {"v_inf": 0.0},
        {"pdot_bound": -1.0}, {"pddot_bound": -1.0}, {"ramp_duration": 0.0},
        {"budget_floor": -1.0}, {"budget_decay": -1.0},
        {"budget_initial": -1.0, "filter": "const_margin"},
        {"alpha": 0.5, "filter": "const_margin"},
        {"alpha": 0.5, "filter": "envelope_budget"},
        {"terrain_profile": "constant", "roll_deg": 89.999999},
        {"roll_deg": -89.999999}, {"seed": -1}, {"v_inf": 1e308},
        {"substeps": 2.5}, {"seed": 1.5}, {"seed": np.int64(3)}, {"seed": True},
        {"substeps": True}, {"dist_omega_freq": 1e308}, {"dist_v_freq": 1e308},
        {"dist_omega_freq": -1e308}, {"dist_v_freq": 1e307},
        {"dist_v_freq": 1e306, "dist_v_phase": 1.7e308},
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_bad_scenario_rejected(self, fields):
        with pytest.raises(DomainError):
            Scenario(**fields)

    @pytest.mark.parametrize("kind", ["sinusoid", "none"])
    @pytest.mark.parametrize("fields", [
        {"control_rate": 1e308}, {"horizon": 1e300, "control_rate": 1e10},
        {"substeps": 10 ** 400}], ids=["rate_1e308", "horizon_1e300", "substeps_1e400"])
    def test_grid_without_finite_step_count_rejected(self, kind, fields):
        """horizon * control_rate overflows, or substeps lies past the float
        range: the grid has no step count or no substep length, so the
        scenario fails at construction, with or without the sinusoid whose
        check reads the grid."""
        with pytest.raises(DomainError, match="no finite time grid"):
            Scenario(disturbance_kind=kind, **fields)

    def test_sine_argument_checked_on_the_runs_times(self):
        """The sine arguments are checked up to the run's last time only,
        and not at all without a sinusoid disturbance."""
        assert Scenario(disturbance_kind="none", dist_omega_freq=1e308).horizon == 10.5
        with pytest.raises(DomainError, match="sine argument"):
            Scenario(dist_omega_freq=1e307)
        sc = Scenario(horizon=0.5, dist_omega_freq=1e307, dist_v_freq=-1e307)
        assert harness.run(sc).summary.n_steps == 25

    @pytest.mark.parametrize("fields", [
        {"horizon": 1e20}, {"horizon": 1e300}, {"control_rate": 1e20},
        {"horizon": 2500.02}, {"substeps": 200_000, "horizon": 1.0}],
        ids=["horizon_1e20", "horizon_1e300", "rate_1e20", "horizon_2500.02",
             "substeps_2e5"])
    def test_run_work_bounded_at_load(self, fields):
        """A grid of more than MAX_RUN_SUBSTEPS substeps fails at
        construction, before any track or noise is built."""
        with pytest.raises(DomainError, match="substeps per run"):
            Scenario(**fields)

    def test_run_work_bound_admits_its_limit(self):
        limit = scenario_module.MAX_RUN_SUBSTEPS
        sc = Scenario(horizon=limit / (4 * 50.0))
        assert sc.grid()[1] * sc.substeps == limit

    @pytest.mark.parametrize("fields", [
        {"half_width": 1e308}, {"cg_height": 4e-324},
        {"budget_floor": 1e308}, {"budget_initial": 1e308},
        {"budget_initial": 1e200, "budget_decay": 1e200}])
    def test_overflowing_row_inputs_rejected_at_load(self, fields):
        """A geometry ratio or a budget whose scaling in the rows
        overflows would write inf constraint values and check margins."""
        with pytest.raises(DomainError, match="overflow"):
            Scenario(**fields)

    def test_overflowing_envelope_rejected_with_the_bank(self):
        with pytest.raises(DomainError, match="error envelope"):
            Scenario(pdot_bound=1e308).make_bank()

    def test_noise_free_scenario_needs_zero_curvature_bound(self):
        assert Scenario(v_inf=0.0, pddot_bound=0.0).v_inf == 0.0

    def test_one_control_period_is_the_shortest_horizon(self):
        res = harness.run(Scenario(horizon=1.0 / Scenario().control_rate))
        assert res.summary.n_steps == 1


class TestCli:
    def test_runtime_imports_without_numpy(self):
        """The package runs on the standard library alone; numpy is a test
        dependency only."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import rollguard.cli, rollguard.harness; "
                "assert 'numpy' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_simulate_safe_exit_zero(self, tmp_path):
        code = cli.main(["simulate", "--config", ROLLOVER_CFG,
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "trace_envelope.csv").exists()

    def test_simulate_violation_exit_two(self, tmp_path):
        cfg = tmp_path / "unsafe.cfg"
        cfg.write_text("[filter]\nname = none\n")
        code = cli.main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--expect-violation"])
        assert code == 2

    def test_seed_override(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cli.main(["simulate", "--config", ROLLOVER_CFG,
                  "--out", str(out1), "--seed", "5"])
        cli.main(["simulate", "--config", ROLLOVER_CFG,
                  "--out", str(out2), "--seed", "5"])
        assert (out1 / "trace_envelope.csv").read_bytes() == \
            (out2 / "trace_envelope.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["seed"] == 5

    def test_compare_exit_two_with_unsafe_baseline(self, tmp_path):
        code = cli.main(["compare", "--config", ROLLOVER_CFG,
                         "--variants", "none", "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "comparison.json").exists()

    def test_verify_passes_on_static_config(self):
        assert cli.main(["verify", "--config", STATIC_CFG]) == 0

    @pytest.mark.parametrize("name", FILTERS)
    def test_verify_prints_the_run_checks(self, tmp_path, capsys, name):
        """The schedule checks verify prints are the ones a run of the
        configured filter attaches to its summary."""
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"[run]\nhorizon = 0.5\n[filter]\nname = {name}\n")
        cli.main(["verify", "--config", str(cfg)])
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        printed = {r["name"]: r for r in reports
                   if not r["name"].startswith("cbf_candidate_")}
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert printed == summary["checks"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_unwritable_out_exit_one(self, tmp_path, capsys, monkeypatch, command):
        """An --out that is, or lies under, an existing file is an error,
        reported before the first simulation."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before creating the output directory")
        monkeypatch.setattr(harness, "run", no_run)
        if command == "simulate":
            argv = ["simulate", "--config", ROLLOVER_CFG, "--out", str(blocker)]
        else:
            argv = ["compare", "--config", STATIC_CFG, "--seed", "1", "--variants",
                    "none", "--out", str(blocker / "x")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("variants", ["envelope,const_margin:wide", "envelope,bogus"])
    def test_compare_bad_variant_exit_one_before_running(self, tmp_path, capsys,
                                                          monkeypatch, variants):
        """Every variant spec is checked before the first run and before
        --out is created."""
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking every variant")
        monkeypatch.setattr(harness, "run", no_run)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", STATIC_CFG, "--variants", variants,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("ell", ["4e-324", "1e-170", "1e160", "1e200", "1e100"])
    def test_verify_rejects_observer_design_without_finite_error_dynamics(
            self, tmp_path, capsys, ell):
        """k1 ell or k2 ell^2 that rounds to zero or overflows (the first
        four), or a calibration whose transient gain overflows (1e100), is a
        config error: no NaN or inf envelope reaches a check or an audit."""
        cfg = tmp_path / "ell.cfg"
        cfg.write_text(f"[differentiator]\nell = {ell}\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err + captured.out
        assert captured.out == ""

    def test_verify_rejects_observer_too_stiff_to_calibrate(self, tmp_path, capsys):
        """k1 = 10, k2 = 0.04 puts the error roots (about -499.8 and -0.2)
        2 500 times apart: calibrating it would take 3e7 transition steps,
        so the config fails at once. RK4 at the run's substep resolves both
        roots, so the load-time check admits the design."""
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text("[differentiator]\nk1 = 10\nk2 = 0.04\n")
        start = time.perf_counter()
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "times apart" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("extra", ["", "[disturbance]\nkind = none\n"],
                             ids=["sinusoid", "no_disturbance"])
    def test_config_without_finite_grid_exit_one(self, tmp_path, capsys, command, extra):
        """A control rate whose step count overflows is a config error: no
        traceback and no checks run on the scenario."""
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("[run]\ncontrol_rate = 1e308\n" + extra)
        argv = [command, "--config", str(cfg)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite time grid" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "simulate", "compare"])
    @pytest.mark.parametrize("text", ["[run]\nhorizon = 1e20\n", "[run]\nhorizon = 1e300\n",
                                      "[run]\ncontrol_rate = 1e20\n"],
                             ids=["horizon_1e20", "horizon_1e300", "rate_1e20"])
    def test_unbounded_run_exit_one(self, tmp_path, capsys, command, text):
        """A grid past MAX_RUN_SUBSTEPS is a config error for every command;
        the load fails first, so no command starts the work."""
        cfg = tmp_path / "long.cfg"
        cfg.write_text(text)
        with pytest.raises(DomainError, match="substeps per run"):
            load_config(cfg)
        argv = [command, "--config", str(cfg)]
        if command != "verify":
            argv += ["--out", str(tmp_path / "out")]
        if command == "compare":
            argv += ["--variants", "none"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_observer_unresolved_by_the_substep_exit_one(self, tmp_path, capsys, command):
        """ell = 550: RK4 at 5 ms keeps 0.95 of the error mode per substep
        where the envelope assumes 0.084; the run would read 676 envelope
        violations and an unsafe verdict that is an integration failure."""
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text("[differentiator]\nell = 550\n")
        argv = [command, "--config", str(cfg)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not resolved by RK4" in captured.err
        assert captured.out == ""

    def test_zero_envelope_rate_is_positive_zero(self, tmp_path):
        """static_slope.cfg has e0_bound = 0: the bank's envelope rate is
        +0.0 at every step, not the -0.0 of the bare formula."""
        assert cli.main(["simulate", "--config", STATIC_CFG, "--out", str(tmp_path)]) == 0
        with (tmp_path / "trace_envelope_budget.csv").open() as fh:
            next(fh)
            rates = [row["env_rate"] for row in csv.DictReader(fh)]
        assert len(rates) == 525 and set(rates) == {"0.0"}

    def test_bad_config_exit_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nwarp = 1\n")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text", ["[noise]\nv_inf = nan\n",
                                      "[run]\nhorizon = inf\n",
                                      "[run]\nhorizon = 0.001\n",
                                      "[terrain]\nroll_deg = 95\n",
                                      "[terrain]\ngravity = 0\n",
                                      "[controller]\nu_v_min = 5\n",
                                      "[terrain]\nprofile = constant\n"
                                      "roll_deg = 89.999999\n",
                                      "[filter]\nname = const_margin\nalpha = 0.5\n",
                                      "[filter]\nname = envelope_budget\nalpha = 0.5\n",
                                      "[run]\nseed = -1\n",
                                      "[noise]\nv_inf = 1e308\n",
                                      "seed = 1\n[run]\n",
                                      "[run]\nseed = 1\nseed = 2\n",
                                      "[run]\nseed = 1\n[run]\nhorizon = 2\n",
                                      "[run]\nseed\n",
                                      "[filter]\nname = %(x)s\n",
                                      b"\xff\xfe[run]\nseed=3\n",
                                      "[DEFAULT]\nseed = 3\nwarp = 9\n",
                                      "[DEFAULT]\nseed = 3\n[run]\nhorizon = 2\n",
                                      "[disturbance]\nomega_freq = 1e308\n",
                                      "[disturbance]\nv_freq = 1e308\n",
                                      "[disturbance]\nv_freq = 1e306\nv_phase = 1.7e308\n"],
                             ids=["v_inf_nan", "horizon_inf", "horizon_short",
                                  "roll_95", "gravity_0", "empty_box",
                                  "roll_singular", "const_margin_alpha_half",
                                  "envelope_budget_alpha_half", "seed_negative",
                                  "v_inf_range_overflow", "key_before_section",
                                  "repeated_key", "repeated_section",
                                  "key_without_value", "interpolation",
                                  "not_utf8", "default_section_typo",
                                  "default_section_merged", "omega_freq_overflow",
                                  "v_freq_overflow", "v_phase_overflow"])
    def test_out_of_domain_config_exit_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()
