"""Closed-loop simulation harness.

One run executes the measure -> differentiate -> assemble rows -> QP ->
zero-order hold -> integrate cycle at the configured control rate, records
a trace row per control step, and derives a deterministic summary with the
safety audits (true constraint minima, realized projected disturbance
against the budget, envelope soundness, QP relaxation events).

Integration advances the augmented state (robot plus both observers) with
`sysmodel.step_rk4` on one fused right-hand side, `sysmodel.closed_loop_rhs`,
built once per run; `sysmodel.eval_dynamics` and
`differentiator.hgo_rates` remain its reference definitions.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import qp
from .barrier import (build_bd_row, build_constraint_row, check_budget_schedule,
                      check_envelope_budget, check_envelope_decay, eval_barrier,
                      eval_h, lipschitz_gain, zmp_lateral)
from .differentiator import BackwardDiffWindow, backward_diff, error_envelope
from .errors import DomainError, NonFiniteStateError
from .scenario import Scenario, parse_variant
from .sysmodel import (ControlInput, RobotState, closed_loop_rhs, gravity_at,
                       step_rk4, wrap_angle)

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


@dataclass(frozen=True)
class TraceRecord:
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
        return (not self.aborted) and self.min_h_true >= -SAFETY_TOL

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
        (v_lo, w_lo), (v_hi, w_hi) = box
        u_v = min(max(u_v, v_lo), v_hi)
        u_omega = min(max(u_omega, w_lo), w_hi)
    return ControlInput(u_v, u_omega)


def _scenario_checks(scenario: Scenario, bank) -> dict:
    """Schedule/compatibility reports attached to filtered runs."""
    alpha = scenario.alpha_fn()
    budget = scenario.budget()
    lip = lipschitz_gain(scenario.geometry())
    checks = {}
    if scenario.filter in ("const_margin", "envelope", "envelope_budget"):
        checks["budget_schedule"] = check_budget_schedule(
            budget, alpha, scenario.horizon).to_dict()
    if scenario.filter in ("envelope", "envelope_budget"):
        checks["envelope_budget"] = check_envelope_budget(
            lip,
            lambda t: bank.envelope(t, scenario.v_inf)[0],
            lambda t: bank.envelope(t, scenario.v_inf)[1],
            budget, alpha, scenario.horizon).to_dict()
    if scenario.filter == "envelope_budget":
        checks["envelope_decay"] = check_envelope_decay(
            bank, alpha, scenario.horizon, scenario.v_inf).to_dict()
    return checks


def run(scenario: Scenario, label: str | None = None) -> RunResult:
    """Simulate one scenario; deterministic given the seed."""
    terrain = scenario.terrain()
    noise = scenario.noise_model()
    dist = scenario.disturbance()
    geom = scenario.geometry()
    act = scenario.actuator()
    alpha = scenario.alpha_fn()
    budget = scenario.budget()
    bank = scenario.make_bank()
    box = scenario.input_box()
    goal = (scenario.goal_x, scenario.goal_y)
    gains = (scenario.k_v, scenario.k_omega)
    g = scenario.gravity

    period = 1.0 / scenario.control_rate
    n_steps = int(round(scenario.horizon * scenario.control_rate))
    sub_dt = period / scenario.substeps
    checks = _scenario_checks(scenario, bank)

    gs0 = gravity_at(0.0, terrain, noise)
    # estimates start at the first measurement with zero rate; e0_bound in
    # the bank covers exactly this initialization
    aug = (scenario.start_x, scenario.start_y, scenario.start_theta,
           0.0, 0.0, gs0.p_y, 0.0, gs0.p_z, 0.0)

    hold = closed_loop_rhs(act, bank.hgo, terrain, noise, dist)

    win_y = BackwardDiffWindow(period)
    win_z = BackwardDiffWindow(period)

    records: list[TraceRecord] = []
    min_inter = math.inf
    relaxations = 0
    env_violations = 0
    proj_max = 0.0
    budget_sound = True
    time_to_goal = None
    aborted = False
    abort_reason = ""

    def truth_h(v: float, omega: float, t: float) -> tuple[float, float]:
        phi = terrain.roll(t)
        gy, gz = g * math.sin(phi), -g * math.cos(phi)
        return (eval_h("h1", v, omega, gy, gz, geom),
                eval_h("h2", v, omega, gy, gz, geom))

    for k in range(n_steps):
        t = k * period
        state = RobotState(aug[0], aug[1], aug[2], aug[3], aug[4])
        gs = gravity_at(t, terrain, noise)
        meas = (gs.p_y, gs.p_z)

        bank.channels[0].value_est, bank.channels[0].rate_est = aug[5], aug[6]
        bank.channels[1].value_est, bank.channels[1].rate_est = aug[7], aug[8]

        u_nom = nominal_control(state, goal, gains, box, scenario.goal_radius)
        if time_to_goal is None and math.hypot(goal[0] - state.x,
                                               goal[1] - state.y) <= scenario.goal_radius:
            time_to_goal = t

        if scenario.filter == "none":
            rows = ()
        elif scenario.filter == "backward_diff":
            win_y.push(gs.p_y)
            win_z.push(gs.p_z)
            rates = (backward_diff(win_y), backward_diff(win_z))
            rows = (build_bd_row("h1", state, meas, rates, geom, act, alpha),
                    build_bd_row("h2", state, meas, rates, geom, act, alpha))
        else:
            mode = "envelope" if scenario.filter == "envelope" else "budget"
            rows = (build_constraint_row("h1", mode, state, bank, meas, t,
                                         scenario.v_inf, geom, act, alpha, budget),
                    build_constraint_row("h2", mode, state, bank, meas, t,
                                         scenario.v_inf, geom, act, alpha, budget))

        sol = qp.solve(qp.QpProblem((u_nom.u_v, u_nom.u_omega), rows, *box))
        if sol.status == "infeasible_relaxed":
            relaxations += 1

        env_value, env_rate = bank.envelope(t, scenario.v_inf)
        h1t, h2t = truth_h(state.v, state.omega, t)
        est = (aug[5], aug[6], aug[7], aug[8])
        rob = tuple(
            eval_barrier(which, state, (est[0], est[2]), geom, act,
                         env_value=env_value).h_rob
            for which in ("h1", "h2"))

        d_om, d_v = dist.sample(t)
        proj = abs(state.v * d_om + state.omega * d_v)
        proj_max = max(proj_max, proj)
        if proj > budget.value(t) + 1e-9:
            budget_sound = False

        phi = terrain.roll(t)
        rate = terrain.roll_rate(t)
        truth = ((g * math.sin(phi), g * math.cos(phi) * rate),
                 (-g * math.cos(phi), g * math.sin(phi) * rate))
        for ch, (p0, p0dot), (e_val, e_rate) in zip(
                bank.channels, truth, ((est[0], est[1]), (est[2], est[3]))):
            err = math.hypot(e_val - p0, e_rate - p0dot)
            if err > error_envelope(ch, t, scenario.v_inf) + 1e-9:
                env_violations += 1

        records.append(TraceRecord(
            t=t, state=state, est=est,
            g_true=(gs.g_y0, gs.g_z0), g_meas=meas,
            u_nom=(u_nom.u_v, u_nom.u_omega), u_star=sol.u,
            h_true=(h1t, h2t), h_rob=rob,
            y_zmp=zmp_lateral(state.v, state.omega, gs.g_y0, gs.g_z0, geom),
            env_value=env_value, env_rate=env_rate,
            budget=budget.value(t), proj_disturbance=proj,
            qp_status=sol.status, qp_active="+".join(sol.active)))

        rhs = hold(*sol.u)
        try:
            y = aug
            for i in range(scenario.substeps):
                y = step_rk4(y, t + i * sub_dt, sub_dt, rhs)
                y = (y[0], y[1], wrap_angle(y[2]), *y[3:])
                min_inter = min(min_inter, *truth_h(y[4], y[3], t + (i + 1) * sub_dt))
            aug = y
        except (NonFiniteStateError, DomainError) as exc:
            # mid-stage overflow surfaces as a domain error from the
            # dynamics input validation; either way the run is over
            aborted = True
            abort_reason = str(exc)
            break

    final_state = RobotState(aug[0], aug[1], aug[2], aug[3], aug[4])
    t_end = len(records) * period
    h1f, h2f = truth_h(final_state.v, final_state.omega, min(t_end, scenario.horizon))
    min_h1 = min([r.h_true[0] for r in records] + [h1f])
    min_h2 = min([r.h_true[1] for r in records] + [h2f])
    final_distance = math.hypot(goal[0] - final_state.x, goal[1] - final_state.y)
    if time_to_goal is None and final_distance <= scenario.goal_radius:
        time_to_goal = t_end

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
        relaxations=relaxations,
        envelope_violations=env_violations,
        budget_sound=budget_sound,
        proj_max=proj_max,
        checks=checks,
        aborted=aborted,
        abort_reason=abort_reason,
    )
    return RunResult(records=records, summary=summary)


def budget_row_margin(scenario: Scenario, records: list[TraceRecord]) -> float:
    """Minimum over a trace of beta(budget row) - beta(envelope row),
    rebuilt pointwise from the recorded states and estimates. Nonnegative
    means the budget form is never less conservative."""
    geom, act = scenario.geometry(), scenario.actuator()
    alpha = scenario.alpha_fn()
    budget = scenario.budget()
    bank = scenario.make_bank()
    worst = math.inf
    for rec in records:
        bank.channels[0].value_est, bank.channels[0].rate_est = rec.est[0], rec.est[1]
        bank.channels[1].value_est, bank.channels[1].rate_est = rec.est[2], rec.est[3]
        for which in ("h1", "h2"):
            env = build_constraint_row(which, "envelope", rec.state, bank,
                                       rec.g_meas, rec.t, scenario.v_inf,
                                       geom, act, alpha, budget)
            bud = build_constraint_row(which, "budget", rec.state, bank,
                                       rec.g_meas, rec.t, scenario.v_inf,
                                       geom, act, alpha, budget)
            worst = min(worst, bud.beta - env.beta)
    return worst


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
    base = run(scenario, label=base_label)
    results[base_label] = base
    labels = {base_label: scenario}
    for spec in variants:
        vlabel, vscenario = parse_variant(scenario, spec)
        if vlabel in results:
            continue
        results[vlabel] = run(vscenario, label=vlabel)
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


def _fmt(value) -> str:
    """Trace cell text; str() of a float is its shortest round-trip repr.
    Only builtin numbers and strings are written, so a foreign scalar type
    fails here instead of leaking its repr into a float column."""
    if type(value) in (float, int, str):
        return str(value)
    raise TypeError(f"trace cell of type {type(value).__name__} is not a "
                    f"builtin float, int or str")


def write_trace(records: list[TraceRecord], path) -> None:
    """Versioned CSV trace; column order is part of the schema."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# {TRACE_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(v) for v in rec.row()])


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
