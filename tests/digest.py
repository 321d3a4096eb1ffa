"""One SHA-256 over the output bytes of the determinism set.

    python tests/digest.py

The set is every filter at seeds 1 and 7 with v_inf 0.01, every filter at
seeds 0-19 with v_inf 0.05, every filter's tau_v = 1e160 overflow abort,
`rollguard compare` of all filters on both shipped configs at seeds 1 and
7, and `rollguard verify` on both configs. The digest covers each trace
and summary file, each comparison output file, and the stdout and exit
code of every CLI call. A change that keeps the outputs byte-identical
prints the same digest before and after. pytest does not collect this
file (its name does not start with `test_`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rollguard import cli, harness, qp  # noqa: E402
from rollguard.scenario import FILTERS, Scenario  # noqa: E402

CONFIGS = [ROOT / "configs" / name for name in ("rollover_slope.cfg", "static_slope.cfg")]


def _scenarios():
    for seed in (1, 7):
        for name in FILTERS:
            yield f"{name}@0.01/{seed}", Scenario(filter=name, v_inf=0.01, seed=seed)
    for seed in range(20):
        for name in FILTERS:
            yield f"{name}@0.05/{seed}", Scenario(filter=name, v_inf=0.05, seed=seed)
    for name in FILTERS:
        yield f"{name}/tau_v_abort", Scenario(filter=name, tau_v=1e160)


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def digest() -> str:
    h = hashlib.sha256()

    def add(key: str, data: bytes) -> None:
        h.update(f"{key}\0{len(data)}\0".encode())
        h.update(data)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for key, sc in _scenarios():
            res = harness.run(sc)
            harness.write_trace(res.records, tmp / "trace.csv")
            harness.write_summary(res.summary, tmp / "summary.json")
            add(f"{key}/trace", (tmp / "trace.csv").read_bytes())
            add(f"{key}/summary", (tmp / "summary.json").read_bytes())
        for cfg in CONFIGS:
            for seed in ("1", "7"):
                out = tmp / f"compare_{cfg.stem}_{seed}"
                add(f"compare/{cfg.name}/{seed}",
                    _cli(["compare", "--config", str(cfg), "--seed", seed,
                          "--variants", ",".join(FILTERS), "--out", str(out)]))
                for path in sorted(out.iterdir()):
                    add(f"compare/{cfg.name}/{seed}/{path.name}", path.read_bytes())
            add(f"verify/{cfg.name}", _cli(["verify", "--config", str(cfg)]))
    return h.hexdigest()


if __name__ == "__main__":
    warnings.simplefilter("ignore", qp.DegenerateRowWarning)
    print(digest())
