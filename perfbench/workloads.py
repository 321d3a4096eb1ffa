"""The benchmark's three workloads.

Each workload is built from the workload seed (set-up: input generation
and warm-up) into a fixed set of `pass_size` inputs, hands out its i-th
input with `item(i)` (cycling through the set), runs one timed operation
on it with `op(item)`, and checks the outcome with `check`. All
calls into rollguard go through module attributes (`harness.run`,
`barrier.build_constraint_row`, ...) so that the tracer's rebinding sees
them.

A check failure is a `Failure`. `result=True` marks a wrong computed
result (it makes the run's `correct` false); `result=False` marks an output
that could not be written or parsed back. Both make the operation failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import random
import struct
from pathlib import Path

from rollguard import barrier, cli, differentiator, harness, qp, scenario

FILTERS = scenario.FILTERS
SAFE_FILTERS = ("const_margin", "envelope", "envelope_budget")
SWEEP_NOISE = (0.01, 0.05)
SWEEP_SEEDS = 1  # scenario seeds per filter and noise level
REPLAY_FILTERS = ("backward_diff", "const_margin", "envelope", "envelope_budget")
REPLAY_NOISE = (0.01, 0.05, 0.1)
CONFIGS = ("configs/rollover_slope.cfg", "configs/static_slope.cfg")
CLI_SEEDS = 2  # seeds per config
BD_UNSAFE_SHARE = 0.8
# trace columns that hold text, not numbers
TEXT_COLUMNS = ("qp_status", "qp_active")


@dataclasses.dataclass(frozen=True)
class Failure:
    check: str
    message: str
    result: bool = True


def _seed_stream(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _qp_outcomes(key: str, records) -> list[tuple[str, str, str]]:
    return [(key, rec.qp_status, rec.qp_active) for rec in records]


def _run_failures(res, expected_steps: int) -> list[Failure]:
    s = res.summary
    out = []
    if s.aborted:
        out.append(Failure("not_aborted", f"{s.label}: {s.abort_reason}"))
    if s.n_steps != expected_steps:
        out.append(Failure("steps", f"{s.label}: {s.n_steps} steps, "
                                    f"expected {expected_steps}"))
    return out


class Sweep:
    """Closed-loop runs of the critical-slope scenario, all five filters
    at two noise levels, each with SWEEP_SEEDS scenario seeds."""

    name = "sweep"
    pass_size = len(FILTERS) * len(SWEEP_NOISE) * SWEEP_SEEDS
    block = 1

    def __init__(self, seed: int):
        rng = _seed_stream(seed, self.name)
        self._seeds = [rng.randrange(1, 2**31) for _ in range(SWEEP_SEEDS)]
        self._bd_safe: list[tuple[int, bool]] = []
        # warm-up: fill the envelope calibration cache for each noise
        # level and run one operation that is not measured
        for v_inf in SWEEP_NOISE:
            scenario.Scenario(v_inf=v_inf).make_bank()
        harness.run(scenario.Scenario(seed=_seed_stream(seed, "warm-up").randrange(1, 2**31)))

    def item(self, i: int) -> scenario.Scenario:
        group, j = divmod(i % self.pass_size, len(FILTERS) * len(SWEEP_NOISE))
        return scenario.Scenario(filter=FILTERS[j // len(SWEEP_NOISE)],
                                 v_inf=SWEEP_NOISE[j % len(SWEEP_NOISE)],
                                 seed=self._seeds[group])

    def prepare(self, item) -> None:
        pass

    def op(self, sc: scenario.Scenario):
        return harness.run(sc)

    def key(self, sc: scenario.Scenario) -> str:
        return f"{sc.filter}@{sc.v_inf}"

    def check(self, i: int, sc: scenario.Scenario, res) -> list[Failure]:
        s = res.summary
        out = _run_failures(res, int(round(sc.horizon * sc.control_rate)))
        if s.envelope_violations:
            out.append(Failure("envelope_violations",
                               f"{self.key(sc)}: {s.envelope_violations}"))
        if sc.filter in SAFE_FILTERS and not s.safe:
            out.append(Failure("verdict", f"{self.key(sc)} seed {sc.seed} unsafe"))
        if sc.filter == "none" and s.safe:
            out.append(Failure("verdict", f"none seed {sc.seed} safe"))
        if sc.filter == "backward_diff":
            self._bd_safe.append((i, bool(s.safe)))
        return out

    def finish(self) -> list[tuple[int, Failure]]:
        """backward_diff must be unsafe on at least 80 % of its runs; when
        it is not, each of its safe runs counts as failed."""
        if not self._bd_safe:
            return []
        unsafe = sum(1 for _, safe in self._bd_safe if not safe)
        if unsafe >= BD_UNSAFE_SHARE * len(self._bd_safe):
            return []
        msg = f"backward_diff unsafe on {unsafe}/{len(self._bd_safe)} runs"
        return [(i, Failure("bd_fragility", msg)) for i, safe in self._bd_safe if safe]

    def qp_outcomes(self, sc, res):
        return _qp_outcomes(self.key(sc), res.records)


@dataclasses.dataclass
class _Recorded:
    """A closed-loop trace and the on-robot filter objects built for it."""

    key: str
    sc: scenario.Scenario
    records: list
    geom: object
    act: object
    alpha: object
    budget: object
    bank: object
    box: tuple
    period: float
    windows: list = dataclasses.field(default_factory=list)


class FilterReplay:
    """Replays recorded closed-loop steps through the on-robot filter path
    (observer state -> constraint rows -> QP); one operation is one step."""

    name = "filter_replay"

    def __init__(self, seed: int):
        rng = _seed_stream(seed, self.name)
        self.traces: list[_Recorded] = []
        for f in REPLAY_FILTERS:
            for v_inf in REPLAY_NOISE:
                sc = scenario.Scenario(filter=f, v_inf=v_inf,
                                       seed=rng.randrange(1, 2**31))
                res = harness.run(sc)
                bad = _run_failures(res, int(round(sc.horizon * sc.control_rate)))
                if bad:
                    raise RuntimeError(f"recording {f}@{v_inf} failed: {bad[0].message}")
                self.traces.append(_Recorded(
                    key=f"{f}@{v_inf}", sc=sc, records=res.records,
                    geom=sc.geometry(), act=sc.actuator(), alpha=sc.alpha_fn(),
                    budget=sc.budget(), bank=sc.make_bank(), box=sc.input_box(),
                    period=1.0 / sc.control_rate))
        self.steps = [(tr, k) for tr in self.traces for k in range(len(tr.records))]
        self.pass_size = len(self.steps)
        # a traced run pairs untraced and traced replays of whole traces
        self.block = len(self.traces[0].records)
        # warm-up: one replayed step that is not measured
        self.op(self.steps[0])

    def item(self, i: int):
        return self.steps[i % len(self.steps)]

    def prepare(self, item) -> None:
        pass

    def op(self, item):
        tr, k = item
        rec = tr.records[k]
        if tr.sc.filter == "backward_diff":
            if k == 0:
                tr.windows = [differentiator.BackwardDiffWindow(tr.period),
                              differentiator.BackwardDiffWindow(tr.period)]
            win_y, win_z = tr.windows
            win_y.push(rec.g_meas[0])
            win_z.push(rec.g_meas[1])
            rates = (differentiator.backward_diff(win_y),
                     differentiator.backward_diff(win_z))
            rows = tuple(barrier.build_bd_row(which, rec.state, rec.g_meas, rates,
                                              tr.geom, tr.act, tr.alpha)
                         for which in ("h1", "h2"))
        else:
            ch_y, ch_z = tr.bank.channels
            ch_y.value_est, ch_y.rate_est, ch_z.value_est, ch_z.rate_est = rec.est
            mode = "envelope" if tr.sc.filter == "envelope" else "budget"
            rows = tuple(barrier.build_constraint_row(
                which, mode, rec.state, tr.bank, rec.g_meas, rec.t, tr.sc.v_inf,
                tr.geom, tr.act, tr.alpha, tr.budget) for which in ("h1", "h2"))
        return qp.solve(qp.QpProblem(rec.u_nom, rows, *tr.box))

    def key(self, item) -> str:
        return item[0].key

    def check(self, i: int, item, sol) -> list[Failure]:
        tr, k = item
        want = tr.records[k].u_star
        if struct.pack("dd", *sol.u) != struct.pack("dd", *want):
            return [Failure("replay_bit_equal",
                            f"{tr.key} step {k}: u* {sol.u!r} != recorded {want!r}")]
        return []

    def finish(self) -> list[tuple[int, Failure]]:
        return []

    def qp_outcomes(self, item, sol):
        return [(self.key(item), sol.status, "+".join(sol.active))]


@dataclasses.dataclass
class CliOutcome:
    verify_code: int
    verify_out: str
    comparison: harness.ComparisonResult
    write_errors: list


class CliCompare:
    """The CLI user's path on the shipped configs: load, verify audits,
    compare all five variants, write every trace and summary."""

    name = "cli_compare"
    pass_size = len(CONFIGS) * CLI_SEEDS
    block = 1

    def __init__(self, seed: int, root: Path, outdir: Path):
        self._root = root
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        rng = _seed_stream(seed, self.name)
        self._seeds = [rng.randrange(1, 2**31) for _ in range(CLI_SEEDS)]
        self._steps = {}
        # warm-up: fill the calibration cache for each config, then run one
        # operation that is not measured
        for cfg in CONFIGS:
            sc = scenario.load_config(str(root / cfg))
            sc.make_bank()
            self._steps[cfg] = int(round(sc.horizon * sc.control_rate))
        self.op((CONFIGS[0], _seed_stream(seed, "warm-up").randrange(1, 2**31)))

    def item(self, i: int):
        group, j = divmod(i % self.pass_size, len(CONFIGS))
        return (CONFIGS[j], self._seeds[group])

    def prepare(self, item) -> None:
        for path in self.outdir.iterdir():
            path.unlink()

    def op(self, item) -> CliOutcome:
        cfg, seed = item
        path = str(self._root / cfg)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--config", path, "--seed", str(seed)])
        sc = dataclasses.replace(scenario.load_config(path), seed=seed)
        result = harness.compare(sc, list(FILTERS))
        # every write is attempted even after one fails, so a fix of a
        # failing writer cannot read as a slowdown
        errors = []
        for label, res in result.results.items():
            try:
                harness.write_trace(res.records, self.outdir / f"trace_{label}.csv")
            except Exception as exc:  # recorded as a failed operation
                errors.append(Failure("write_trace", f"{label}: {exc!r}", result=False))
            try:
                harness.write_summary(res.summary, self.outdir / f"summary_{label}.json")
            except Exception as exc:  # recorded as a failed operation
                errors.append(Failure("write_summary", f"{label}: {exc!r}", result=False))
        return CliOutcome(code, buf.getvalue(), result, errors)

    def key(self, item) -> str:
        return Path(item[0]).stem

    def check(self, i: int, item, out: CliOutcome) -> list[Failure]:
        fails = list(out.write_errors)
        fails += self._check_verify(out)
        for label, res in out.comparison.results.items():
            fails += _run_failures(res, self._steps[item[0]])
            fails += self._check_summary(label, res.summary)
            fails += self._check_trace(label, len(res.records))
        return fails

    @staticmethod
    def _check_verify(out: CliOutcome) -> list[Failure]:
        try:
            reports = [json.loads(line) for line in out.verify_out.splitlines()]
        except ValueError as exc:
            return [Failure("verify_output", repr(exc), result=False)]
        expected = 0 if reports and all(r.get("passed") is True for r in reports) else 2
        if out.verify_code != expected:
            return [Failure("verify_exit_code",
                            f"exit {out.verify_code}, reports imply {expected}")]
        return []

    def _check_summary(self, label, summary) -> list[Failure]:
        path = self.outdir / f"summary_{label}.json"
        if not path.exists():
            return [Failure("summary_roundtrip", f"{label}: not written", result=False)]
        try:
            loaded = json.loads(path.read_text())
        except ValueError as exc:
            return [Failure("summary_roundtrip", f"{label}: {exc!r}", result=False)]
        if loaded != summary.to_dict():
            return [Failure("summary_roundtrip", f"{label}: differs after reload",
                            result=False)]
        return []

    def _check_trace(self, label, n_records: int) -> list[Failure]:
        path = self.outdir / f"trace_{label}.csv"
        if not path.exists():
            return [Failure("trace_parse", f"{label}: not written", result=False)]
        with path.open(newline="") as fh:
            tag = fh.readline().rstrip("\n")
            rows = list(csv.reader(fh))
        if tag != f"# {harness.TRACE_SCHEMA}" or not rows or \
                tuple(rows[0]) != harness.TRACE_COLUMNS:
            return [Failure("trace_parse", f"{label}: bad schema tag or header",
                            result=False)]
        if len(rows) - 1 != n_records:
            return [Failure("trace_parse", f"{label}: {len(rows) - 1} rows, "
                                           f"expected {n_records}", result=False)]
        numeric = [j for j, name in enumerate(harness.TRACE_COLUMNS)
                   if name not in TEXT_COLUMNS]
        for row in rows[1:]:
            for j in numeric:
                try:
                    float(row[j])
                except ValueError:
                    return [Failure("trace_parse",
                                    f"{label}: {harness.TRACE_COLUMNS[j]} cell "
                                    f"{row[j][:40]!r} is not a float", result=False)]
        return []

    def finish(self) -> list[tuple[int, Failure]]:
        return []

    def qp_outcomes(self, item, out: CliOutcome):
        key = self.key(item)
        return [o for label, res in out.comparison.results.items()
                for o in _qp_outcomes(f"{key}:{label}", res.records)]


def make(name: str, seed: int, root: Path, outdir: Path):
    if name == "sweep":
        return Sweep(seed)
    if name == "filter_replay":
        return FilterReplay(seed)
    if name == "cli_compare":
        return CliCompare(seed, root, outdir / "cli_compare")
    raise ValueError(f"unknown workload {name!r}")
