#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result-*.json files that run.py writes to
perfbench/out/ (copy that directory after each set of runs). For every
workload and metric it prints each side's median and quartiles and the
change of the median as a share of the base median. An end-to-end metric
that is worse by more than its bound in BENCHMARK.json is a regression
(exit code 1); one whose base spread (quartile distance over median) is
wider than its bound is unresolved. Results taken on different kernel
backends are refused (exit code 2): they measure different QP code.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory):
    results = [json.loads(p.read_text())
               for p in sorted(Path(directory).glob("result-*.json"))]
    if not results:
        raise SystemExit(f"no result-*.json files in {directory}")
    return results


def _group(results):
    groups: dict[tuple, dict[str, list]] = {}
    for res in results:
        metrics = groups.setdefault((res["workload"], res["trace"]), {})
        for name, entry in res["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, change = _load(argv[0]), _load(argv[1])
    backends = sorted({res["env"]["backend"] for res in base + change})
    if len(backends) > 1:
        print(f"refusing to compare results from kernel backends {backends}",
              file=sys.stderr)
        return 2
    for key in ("python", "numpy", "nproc"):
        seen = sorted({str(res["env"][key]) for res in base + change})
        if len(seen) > 1:
            print(f"warning: results differ in {key}: {seen}", file=sys.stderr)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_groups, change_groups = _group(base), _group(change)
    regressed = False
    for wl, trace in sorted(set(base_groups) & set(change_groups)):
        print(f"\n{wl} (trace {trace}): base n={len(next(iter(base_groups[wl, trace].values())))}, "
              f"change n={len(next(iter(change_groups[wl, trace].values())))}")
        for name, b_vals in base_groups[wl, trace].items():
            c_vals = change_groups[wl, trace].get(name)
            if not c_vals:
                continue
            b_med, c_med = statistics.median(b_vals), statistics.median(c_vals)
            b_q1, b_q3 = _quartiles(b_vals)
            c_q1, c_q3 = _quartiles(c_vals)
            m = spec.get(name, {"better": "lower"})
            verdict = ""
            if b_med == 0:
                change_share = 0.0 if c_med == 0 else float("inf")
            else:
                change_share = (c_med - b_med) / b_med
            if "bound" in m:
                worse = change_share if m["better"] == "lower" else -change_share
                spread = (b_q3 - b_q1) / b_med
                if worse > m["bound"]:
                    verdict, regressed = "REGRESSED", True
                elif spread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"  {name:<50} base {b_med:>12.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                  f"change {c_med:>12.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
                  f"{change_share:+.2%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
