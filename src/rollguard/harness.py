"""Closed-loop simulation harness.

One run executes the measure -> differentiate -> assemble rows -> QP ->
zero-order hold -> integrate cycle at the configured control rate, records
a trace row per control step, and derives a deterministic summary with the
safety audits (true constraint minima, realized projected disturbance
against the budget, envelope soundness, QP relaxation events).

The trace records are the one source of every per-step fact: the summary's
relaxation count, projected-disturbance maximum, budget soundness and time
to goal, and the comparison's `budget_row_margin`, are folds over them.
The loop keeps only what a record does not hold: the envelope audit count,
the intersample minimum and the abort state.

Integration advances the augmented state (robot plus both observers) in
two halves, one control period per call. The observers read only the
measurements, which depend on time alone, so `exogenous_track` walks the
run's time grid once for everything a filter does not change: both
observers, advanced through each period by `sysmodel.observer_period` on
the run's one sampler, `sysmodel.exogenous_signals`, with each distinct
time evaluated once; per substep the flat tuple of the floats a run reads
(its start time, the disturbances at its three stage times and the
gravity truth at its end); and per control step the truth, the
measurements, the estimates, their `hgo_rates` rates, the error envelope
M(t) (`error_envelope`, for the audit of each channel's error) and
`bank.envelope` (the rows, `h_rob` and the envelope columns M +
ln(2)/100, the smooth maximum of the two equal channel envelopes), with
the envelope audit. `run` then steps the robot alone, one
`sysmodel.robot_period` call per control step on the step's entries,
which also returns the running minimum of the true constraint after
every substep. `compare` walks one track before its first variant and
hands it to every variant. The two halves' reference definition is, per
substep, `sysmodel.step_rk4` over the right-hand side
`sysmodel.eval_dynamics` plus two `differentiator.hgo_rates` calls,
followed by `sysmodel.wrap_angle` on the heading. Every (h1, h2) pair,
at the truth, at the estimates and after each substep, is
`barrier.h_pair`. The control loop builds no frozen dataclass outside
the safety filter: the robot state is a `sysmodel.RobotState` named
tuple, each `TraceRecord` is built positionally, and the per-scenario
lookups (filter kind, goal radius, the budget schedule, the QP solver
and the track's steps) are read once per run.

Every filtered variant builds its rows with the one formula
`barrier.constraint_row` and differs only in the inputs: `backward_diff`
gives it the measurements and their backward-difference rates, the
others the observer estimates and their rates; only `envelope` passes
the envelope, and only the filters in `scenario.BUDGET_ROW_FILTERS` the
budget. A `DomainError` anywhere in a control step ends the run with
an aborted summary. `write_trace` builds and checks every line in one pass
before it creates the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import qp
from .barrier import (check_budget_schedule, check_envelope_budget,
                      check_envelope_decay, constraint_row, h_pair, lipschitz_gain,
                      zmp_lateral)
from .differentiator import (BackwardDiffWindow, DifferentiatorBank, backward_diff,
                             error_envelope, hgo_rates)
from .errors import DomainError, NonFiniteStateError
from .scenario import BUDGET_ROW_FILTERS, VARIANT_FIELDS, Scenario, parse_variant
from .sysmodel import (ControlInput, RobotState, _Raises, exogenous_signals,
                       observer_period, robot_period)

TRACE_SCHEMA = "rollguard-trace-1"
SAFETY_TOL = 1e-3  # sampled-data slack on the continuous-time guarantee

TRACE_COLUMNS = (
    "t", "x", "y", "theta", "omega", "v",
    "est_gy", "est_rate_gy", "est_gz", "est_rate_gz",
    "gy_true", "gz_true", "gy_meas", "gz_meas",
    "u_nom_v", "u_nom_omega", "u_v", "u_omega",
    "h1_true", "h2_true", "h1_rob", "h2_rob", "y_zmp_true",
    "env_value", "env_rate", "budget", "proj_disturbance",
    "qp_status", "qp_active",
)


class TraceRecord(NamedTuple):
    t: float
    state: RobotState
    est: tuple[float, float, float, float]   # value/rate per channel (gy, gz)
    g_true: tuple[float, float]
    g_meas: tuple[float, float]
    u_nom: tuple[float, float]
    u_star: tuple[float, float]
    h_true: tuple[float, float]
    h_rob: tuple[float, float]
    y_zmp: float
    env_value: float
    env_rate: float
    budget: float
    proj_disturbance: float
    qp_status: str
    qp_active: str

    def row(self) -> list:
        s = self.state
        return [self.t, s.x, s.y, s.theta, s.omega, s.v, *self.est,
                *self.g_true, *self.g_meas, *self.u_nom, *self.u_star,
                *self.h_true, *self.h_rob, self.y_zmp, self.env_value,
                self.env_rate, self.budget, self.proj_disturbance,
                self.qp_status, self.qp_active]


@dataclass
class RunSummary:
    label: str
    filter: str
    seed: int
    n_steps: int
    min_h1_true: float
    min_h2_true: float
    min_h_true: float
    min_h_true_intersample: float
    final_distance: float
    time_to_goal: float | None
    relaxations: int
    envelope_violations: int
    budget_sound: bool
    proj_max: float
    checks: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""

    @property
    def safe(self) -> bool:
        """The run finished and the true constraint, at the control steps
        and after every integration substep, stayed above -SAFETY_TOL."""
        return (not self.aborted) and self.min_h_true_intersample >= -SAFETY_TOL

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["safe"] = self.safe
        out["schema"] = "rollguard-summary-1"
        return out


@dataclass
class RunResult:
    records: list[TraceRecord]
    summary: RunSummary


def nominal_control(state: RobotState, goal: tuple[float, float],
                    gains: tuple[float, float], box=None,
                    goal_radius: float = 0.05) -> ControlInput:
    """Goal-seeking baseline: speed proportional to distance, yaw rate from
    the lateral goal offset minus a heading term. Returns (0, 0) once the
    goal circle is reached. Not safety aware on purpose."""
    dx = goal[0] - state.x
    dy = goal[1] - state.y
    d_g = math.hypot(dx, dy)
    if d_g < goal_radius:
        return ControlInput(0.0, 0.0)
    k_v, k_omega = gains
    u_v = k_v * d_g
    u_omega = k_omega * dy / d_g - k_omega * math.sin(state.theta)
    if box is not None:
        # min(max(u, lo), hi) written as the comparisons max and min make,
        # so NaN and tied zeros come out the same
        (v_lo, w_lo), (v_hi, w_hi) = box
        if v_lo > u_v:
            u_v = v_lo
        if v_hi < u_v:
            u_v = v_hi
        if w_lo > u_omega:
            u_omega = w_lo
        if w_hi < u_omega:
            u_omega = w_hi
    return ControlInput(u_v, u_omega)


def _scenario_checks(scenario: Scenario, bank) -> dict:
    """Schedule/compatibility reports attached to filtered runs, keyed by
    check name; `rollguard verify` prints the same reports."""
    alpha = scenario.alpha_fn()
    budget = scenario.budget()
    lip = lipschitz_gain(scenario.geometry())
    checks = {}
    if scenario.filter in ("const_margin", "envelope", "envelope_budget"):
        checks["budget_schedule"] = check_budget_schedule(
            budget, alpha, scenario.horizon).to_dict()
    if scenario.filter in ("envelope", "envelope_budget"):
        checks["envelope_budget"] = check_envelope_budget(
            lip, bank.envelope, budget, alpha, scenario.horizon).to_dict()
    if scenario.filter == "envelope_budget":
        checks["envelope_decay"] = check_envelope_decay(
            bank, alpha, scenario.horizon).to_dict()
    return checks


def _goal_distance(goal: tuple[float, float], state: RobotState) -> float:
    return math.hypot(goal[0] - state.x, goal[1] - state.y)


class TrackStep(NamedTuple):
    """What every filter of one scenario shares at one control step."""

    t: float
    g_true: tuple[float, float]
    g_meas: tuple[float, float]
    dist: tuple[float, float]                # (d_omega, d_v)
    est: tuple[float, float, float, float]   # observer state, as TraceRecord.est
    est_rate: tuple[float, float]            # hgo_rates value rates per channel
    env: tuple[float, float]                 # bank.envelope(t)
    violations: int                          # channels outside error_envelope
    substeps: list  # the observer_period entry of each substep of the period


class ExogenousTrack(NamedTuple):
    """The filter-independent part of a run, from `exogenous_track`."""

    inputs: tuple  # `_track_inputs` of the scenario it was built from
    bank: DifferentiatorBank
    steps: list  # a TrackStep per control step and at the horizon


def _track_inputs(scenario: Scenario) -> tuple:
    """Every field but those a comparison's variants set, by repr, which
    keeps -0.0 apart from 0.0."""
    return tuple(repr(getattr(scenario, f.name)) for f in dataclasses.fields(scenario)
                 if f.name not in VARIANT_FIELDS)


def exogenous_track(scenario: Scenario) -> ExogenousTrack:
    """What depends on time alone, walked once along the run's time grid.

    Per control step k (t = k * period, and once more at the horizon) a
    `TrackStep`, whose `substeps` holds the flat entries that
    `sysmodel.observer_period` appends while it advances both observers
    through the period: per substep its start time, the disturbances at
    its three RK4 stage times and the gravity truth at its end, which the
    intersample audit reads. Each distinct time is evaluated once: a
    substep starts where the last one ended, the stage-4 time and the end
    time share a value when they are equal, and so do the last end time
    and the next step's time.

    The walk stops at the first signal DomainError or non-finite observer
    state and leaves a `sysmodel._Raises` where a run reads it: in place
    of the step when its signals fail, else in the failing substep's
    entry, from the slot `robot_period` reads right after the failure on
    (see `observer_period`). A run that gets there raises it at that
    point. Only the signals at t = 0 raise here: they seed the estimates.
    """
    bank = scenario.make_bank()
    hgo = bank.hgo
    terrain = scenario.terrain()
    roll_rate = terrain.roll_rate
    signals = exogenous_signals(terrain, scenario.noise_model(), scenario.disturbance())
    period, n_steps, sub_dt = scenario.grid()
    advance = observer_period(hgo, signals, scenario.substeps, sub_dt)
    sig = signals(0.0)
    # estimates start at the first measurement with zero rate; e0_bound in
    # the bank covers exactly this initialization
    obs = (sig[0] + sig[2], 0.0, sig[1] + sig[3], 0.0)
    t_end = 0.0  # the time of sig
    steps: list = []
    try:
        for k in range(n_steps + 1):
            t = k * period
            if t != t_end:
                sig = signals(t)
            g_y0, g_z0, n_y, n_z, d_om, d_v = sig
            meas = (g_y0 + n_y, g_z0 + n_z)
            env_bound = error_envelope(bank, t)[0]
            # true value and rate per channel; g cos(phi) = -g_z0 exactly
            rate = roll_rate(t)
            violations = ((math.hypot(obs[0] - g_y0, obs[1] - -g_z0 * rate)
                           > env_bound + 1e-9)
                          + (math.hypot(obs[2] - g_z0, obs[3] - g_y0 * rate)
                             > env_bound + 1e-9))
            subs: list = []
            steps.append(TrackStep(
                t, (g_y0, g_z0), meas, (d_om, d_v), obs,
                (hgo_rates(obs[0], obs[1], hgo, meas[0])[0],
                 hgo_rates(obs[2], obs[3], hgo, meas[1])[0]),
                bank.envelope(t), violations, subs))
            if k < n_steps:
                obs, t_end, sig = advance(obs, t, sig, subs)
    except (DomainError, NonFiniteStateError) as exc:
        if len(steps) == k:  # the step's own signals
            steps.append(_Raises(exc))
    return ExogenousTrack(_track_inputs(scenario), bank, steps)


def run(scenario: Scenario, label: str | None = None,
        track: ExogenousTrack | None = None) -> RunResult:
    """Simulate one scenario; deterministic given the seed. `track` is the
    scenario's `exogenous_track`, built here when not given; one built
    from a scenario that differs in more than `filter` and `budget_floor`
    raises DomainError."""
    if track is None:
        track = exogenous_track(scenario)
    elif track.inputs != _track_inputs(scenario):
        raise DomainError("the exogenous track was built from a scenario that "
                          "differs in more than filter and budget_floor")
    geom = scenario.geometry()
    act = scenario.actuator()
    alpha = scenario.alpha_fn()
    budget_at = scenario.budget().value
    box = scenario.input_box()
    goal = (scenario.goal_x, scenario.goal_y)
    gains = (scenario.k_v, scenario.k_omega)
    goal_radius = scenario.goal_radius
    kind = scenario.filter
    # the row inputs a filter does not keep enter the row as zero
    keeps_envelope = kind == "envelope"
    keeps_budget = kind in BUDGET_ROW_FILTERS
    lip = lipschitz_gain(geom)
    ratio = geom.width_ratio
    solve, problem = qp.solve, qp.QpProblem
    steps = track.steps

    period, n_steps, sub_dt = scenario.grid()
    checks = _scenario_checks(scenario, track.bank)

    advance = robot_period(act, ratio, sub_dt)
    state = RobotState(scenario.start_x, scenario.start_y, scenario.start_theta, 0.0, 0.0)

    win_y = BackwardDiffWindow(period)
    win_z = BackwardDiffWindow(period)

    records: list[TraceRecord] = []
    min_inter = math.inf
    env_violations = 0
    aborted = False
    abort_reason = ""
    done = 0  # control steps finished; state is the state at done * period

    for k in range(n_steps):
        try:
            (t, g_true, meas, (d_om, d_v), est, est_rate, (env_value, env_rate),
             violations, subs) = steps[k]
            g_y0, g_z0 = g_true
            v, omega = state.v, state.omega

            u_nom = tuple(nominal_control(state, goal, gains, box, goal_radius))

            budget_value = budget_at(t)

            if kind == "none":
                rows = ()
            else:
                if kind == "backward_diff":
                    win_y.push(meas[0])
                    win_z.push(meas[1])
                    row_est = meas
                    row_rate = (backward_diff(win_y), backward_diff(win_z))
                else:
                    row_est = (est[0], est[2])
                    row_rate = est_rate
                row_env, row_env_rate = ((env_value, env_rate) if keeps_envelope
                                         else (0.0, 0.0))
                row_budget = budget_value if keeps_budget else 0.0
                rows = (constraint_row("h1", state, row_est, row_rate, row_env,
                                       row_env_rate, row_budget, geom, act, alpha),
                        constraint_row("h2", state, row_est, row_rate, row_env,
                                       row_env_rate, row_budget, geom, act, alpha))

            sol = solve(problem(u_nom, rows, *box))
            u_star = sol.u

            # h at the estimates, robustified as in eval_barrier
            margin = lip * env_value
            h1_est, h2_est = h_pair(v, omega, est[0], est[2], ratio)

            env_violations += violations

            records.append(TraceRecord(
                t, state, est, g_true, meas, u_nom, u_star,
                h_pair(v, omega, g_y0, g_z0, ratio), (h1_est - margin, h2_est - margin),
                zmp_lateral(v, omega, g_y0, g_z0, geom), env_value, env_rate,
                budget_value, abs(v * d_om + omega * d_v), sol.status,
                "+".join(sol.active)))

            # a fault leaves the state at the step's start
            state, min_inter, fault = advance(state, *u_star, subs, min_inter)
            if fault is not None:
                raise fault
            done = k + 1
        except (NonFiniteStateError, DomainError) as exc:
            # a singular tip point or a roll outside the upright regime, a
            # mid-stage overflow (a domain error from the dynamics input
            # validation) or a non-finite state: the run is over
            aborted = True
            abort_reason = str(exc)
            break

    t_aug = done * period
    h1s = [r.h_true[0] for r in records]
    h2s = [r.h_true[1] for r in records]
    try:
        g_y, g_z = steps[done].g_true
    except DomainError:
        # the roll has left the upright regime (the run aborted on it) and
        # the truth at the final time is undefined
        pass
    else:
        h1f, h2f = h_pair(state.v, state.omega, g_y, g_z, ratio)
        h1s.append(h1f)
        h2s.append(h2f)
    min_h1 = min(h1s)
    min_h2 = min(h2s)
    final_distance = _goal_distance(goal, state)
    # the last good state has no record when the run ended or a step
    # aborted before appending one; the fallback pairs it with its own time
    time_to_goal = next((r.t for r in records
                         if _goal_distance(goal, r.state) <= goal_radius), None)
    if time_to_goal is None and final_distance <= goal_radius:
        time_to_goal = t_aug

    summary = RunSummary(
        label=label or scenario.filter,
        filter=scenario.filter,
        seed=scenario.seed,
        n_steps=len(records),
        min_h1_true=min_h1,
        min_h2_true=min_h2,
        min_h_true=min(min_h1, min_h2),
        min_h_true_intersample=min(min_inter, min_h1, min_h2),
        final_distance=final_distance,
        time_to_goal=time_to_goal,
        relaxations=sum(r.qp_status == "infeasible_relaxed" for r in records),
        envelope_violations=env_violations,
        budget_sound=not any(r.proj_disturbance > r.budget + 1e-9 for r in records),
        proj_max=max((r.proj_disturbance for r in records), default=0.0),
        checks=checks,
        aborted=aborted,
        abort_reason=abort_reason,
    )
    return RunResult(records=records, summary=summary)


def budget_row_margin(scenario: Scenario, records: list[TraceRecord]) -> float:
    """Minimum over the trace records of beta(budget row) - beta(envelope
    row). Nonnegative means the budget form is never less conservative.

    The two rows share the drift and input terms at the raw estimates, so
    the difference depends on t alone:
        alpha(B(t)) - alpha(lip * M(t)) - lip * M'(t),
    with B the budget, (M, M') `bank.envelope` and its rate, as the
    run recorded them (`budget`, `env_value`, `env_rate`). An empty trace
    gives inf."""
    alpha = scenario.alpha_fn()
    lip = lipschitz_gain(scenario.geometry())
    return min((alpha(r.budget) - alpha(lip * r.env_value) - lip * r.env_rate
                for r in records), default=math.inf)


@dataclass
class ComparisonResult:
    base_label: str
    results: dict[str, RunResult]
    extras: dict = field(default_factory=dict)

    def table(self) -> str:
        header = (f"{'variant':<22} {'min_h':>10} {'final_dist':>11} "
                  f"{'relax':>6} {'safe':>5}")
        lines = [header, "-" * len(header)]
        for name, res in self.results.items():
            s = res.summary
            lines.append(f"{name:<22} {s.min_h_true:>10.4f} "
                         f"{s.final_distance:>11.4f} {s.relaxations:>6d} "
                         f"{str(s.safe):>5}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "rollguard-comparison-1",
            "base": self.base_label,
            "variants": {name: res.summary.to_dict()
                         for name, res in self.results.items()},
            **self.extras,
        }


def compare(scenario: Scenario, variants: list[str]) -> ComparisonResult:
    """Run the base scenario plus variants that differ only in filter
    settings; the seed and therefore every exogenous signal is shared."""
    results = {}
    base_label = scenario.filter
    track = exogenous_track(scenario)
    base = run(scenario, label=base_label, track=track)
    results[base_label] = base
    labels = {base_label: scenario}
    for spec in variants:
        vlabel, vscenario = parse_variant(scenario, spec)
        if vlabel in results:
            continue
        results[vlabel] = run(vscenario, label=vlabel, track=track)
        labels[vlabel] = vscenario

    extras = {}
    envelope_runs = [l for l, s in labels.items() if s.filter == "envelope"]
    budget_runs = [l for l, s in labels.items() if s.filter == "envelope_budget"]
    if envelope_runs and budget_runs:
        margin = budget_row_margin(labels[budget_runs[0]],
                                   results[budget_runs[0]].records)
        extras["budget_vs_envelope_beta_min"] = margin
    return ComparisonResult(base_label=base_label, results=results, extras=extras)


# --- output -----------------------------------------------------------


_CELL_TYPES = frozenset((float, int, str))


def _trace_line(row) -> str:
    """The cells as csv.writer writes them: only builtin numbers (str() is
    the shortest round-trip repr) and text that needs no CSV quoting."""
    if not _CELL_TYPES.issuperset(map(type, row)):
        bad = next(type(v).__name__ for v in row if type(v) not in _CELL_TYPES)
        raise TypeError(f"trace cell of type {bad} is not a builtin float, int or str")
    line = ",".join(map(str, row))
    if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
        raise ValueError(f"trace text cell needs CSV quoting: {line!r}")
    return line


def write_trace(records: list[TraceRecord], path) -> None:
    """Versioned CSV trace; column order is part of the schema. A bad cell
    raises before the file is created."""
    lines = [_trace_line(TRACE_COLUMNS)]
    lines += [_trace_line(rec.row()) for rec in records]
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# {TRACE_SCHEMA}\n")
        fh.writelines(f"{line}\n" for line in lines)


def write_summary(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(summary.to_dict(), indent=2,
                                     sort_keys=True) + "\n")


def write_comparison(result: ComparisonResult, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, res in result.results.items():
        write_trace(res.records, outdir / f"trace_{name}.csv")
        write_summary(res.summary, outdir / f"summary_{name}.json")
    (outdir / "comparison.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
