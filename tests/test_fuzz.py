"""Deterministic config fuzz of the CLI.

Each case takes the flagship config, `configs/rollover_slope.cfg`, with
the horizon cut to 0.5 s, and replaces one or two of its values with an
extreme from `POOL`, then runs `rollguard verify` or `rollguard simulate`
on it through `cli.main`. Whatever the values, the CLI must exit 0, 1 or
2 without an uncaught exception, report exit 1 as `error: ...`, write
only summaries that parse back under their schema, and finish each case
within `CASE_SECONDS`, enforced with an alarm so that unbounded work fails
the test instead of hanging it.

The examples are derandomized: the same `MAX_EXAMPLES` cases run every
time, with no example database.
"""

import configparser
import contextlib
import io
import json
import signal
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rollguard import cli

FLAGSHIP = Path(__file__).resolve().parent.parent / "configs" / "rollover_slope.cfg"
POOL = ("nan", "inf", "-inf", "4e-324", "-4e-324", "1e308", "-1e308",
        "89.9999999", "1e20", "text", "")
MAX_EXAMPLES = 150
CASE_SECONDS = 3.0
SHORT_HORIZON = "0.5"


def _flagship_values() -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    parser.read(FLAGSHIP, encoding="utf-8")
    values = {(section, key): value for section in parser.sections()
              for key, value in parser.items(section)}
    values[("run", "horizon")] = SHORT_HORIZON
    return values


VALUES = _flagship_values()
KEYS = sorted(VALUES)


class _CaseTooSlow(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CaseTooSlow(f"case took longer than {CASE_SECONDS} s")


def _reject_constant(name):
    raise ValueError(f"summary holds {name}, which JSON does not define")


def _config_text(mutations) -> str:
    values = dict(VALUES)
    values.update(mutations)
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


@settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(POOL),
                                 min_size=1, max_size=2),
       command=st.sampled_from(["verify", "simulate"]))
def test_mutated_flagship_config_exits_cleanly(mutations, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "case.cfg"
        cfg.write_text(_config_text(mutations))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg)]
        if command == "simulate":
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), (mutations, command, code)
        if code == 1:
            assert stderr.getvalue().startswith("error: "), stderr.getvalue()
        summary = out / "summary.json"
        if command == "simulate" and code != 1:
            loaded = json.loads(summary.read_text(), parse_constant=_reject_constant)
            assert loaded["schema"] == "rollguard-summary-1"
        else:
            assert not summary.exists()
