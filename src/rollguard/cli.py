"""Command line interface.

    rollguard simulate --config scenario.cfg --out results/
    rollguard compare  --config scenario.cfg --variants none,envelope --out results/
    rollguard verify   --config scenario.cfg

Exit codes: 0 all safety assertions hold (and --help), 2 a violation was
detected (the intended outcome for the unfiltered baseline when
--expect-violation is passed), 1 error (a usage error, a bad config or
an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import harness
from .barrier import verify_cbf_candidate
from .errors import DomainError
from .scenario import load_config, parse_variant


def _add_common(p):
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, default=None, help="override [run] seed")


def _load(args):
    scenario = load_config(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result = harness.run(scenario)
    harness.write_trace(result.records, outdir / f"trace_{scenario.filter}.csv")
    harness.write_summary(result.summary, outdir / "summary.json")
    s = result.summary
    print(f"filter={s.filter} seed={s.seed} steps={s.n_steps} "
          f"min_h={s.min_h_true:.4f} final_dist={s.final_distance:.3f} "
          f"relaxations={s.relaxations} safe={s.safe}")
    if not s.safe:
        print("safety violation detected"
              + (" (expected)" if args.expect_violation else ""))
        return 2
    return 0


def _cmd_compare(args) -> int:
    """Every variant spec is parsed and --out created before the first run."""
    scenario = _load(args)
    variants = [v for v in args.variants.split(",") if v.strip()]
    for spec in variants:
        parse_variant(scenario, spec)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = harness.compare(scenario, variants)
    harness.write_comparison(result, args.out)
    print(result.table())
    if any(not res.summary.safe for res in result.results.values()):
        return 2
    return 0


def _cmd_verify(args) -> int:
    """The schedule checks a run of the configured filter attaches (none
    for `none` and `backward_diff`), then the candidate audits."""
    scenario = _load(args)
    alpha = scenario.alpha_fn()
    geom = scenario.geometry()
    reports = harness._scenario_checks(scenario, scenario.make_bank()).values()
    grid = [x / 10.0 for x in range(-30, 31)]
    omega_grid = [x / 10.0 for x in range(-20, 21)]
    roll_max = math.radians(scenario.roll_deg)
    roll_grid = [roll_max * i / 8.0 for i in range(-8, 9)]
    ok = True
    for report in reports:
        print(json.dumps(report))
        ok = ok and report["passed"]
    for which in ("h1", "h2"):
        audit = verify_cbf_candidate(which, grid, omega_grid, roll_grid, geom,
                                     scenario.actuator(), alpha,
                                     gravity=scenario.gravity)
        print(json.dumps({"name": f"cbf_candidate_{which}", **audit.to_dict()}))
        ok = ok and audit.passed
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rollguard",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    _add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--expect-violation", action="store_true",
                       help="mark an exit code 2 as the intended outcome")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run filter variants on one scenario")
    _add_common(p_cmp)
    p_cmp.add_argument("--variants", required=True,
                       help="comma list, e.g. none,envelope,const_margin:0.9")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="schedule and constraint audits only")
    _add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means a violation here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
