"""The names the benchmark tracer times and counts still exist.

`perfbench/tracing.py` rebinds each (owner, attr) of its TIMED and COUNTED
lists when it installs; a missing one fails only there, in a minute-long
benchmark run outside the test paths. Loading the module here checks its
import-time references and every listed attribute in well under a second.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, owner, attr", tracing.TIMED + tracing.COUNTED,
                         ids=[name for name, _, _ in tracing.TIMED + tracing.COUNTED])
def test_traced_name_resolves_to_callable(name, owner, attr):
    assert callable(getattr(owner, attr, None)), name

