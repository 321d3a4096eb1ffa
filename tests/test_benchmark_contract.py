"""The benchmark's contract with the package: the names its tracer times
and counts still exist, and its workloads' operations pass their own checks.

`perfbench/tracing.py` rebinds each (owner, attr) of its TIMED and COUNTED
lists when it installs, and `perfbench/workloads.py` checks every
operation's outcome; a break in either shows only in a minute-long
benchmark run outside the test paths. Loading both modules here checks
them on a few short inputs in a second or two.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rollguard import harness
from rollguard.scenario import Scenario, load_config

ROOT = Path(__file__).resolve().parent.parent


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while the
    # module body runs
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("perfbench_tracing", "tracing.py")
workloads = _load("perfbench_workloads", "workloads.py")


@pytest.mark.parametrize("name, owner, attr", tracing.TIMED + tracing.COUNTED,
                         ids=[name for name, _, _ in tracing.TIMED + tracing.COUNTED])
def test_traced_name_resolves_to_callable(name, owner, attr):
    assert callable(getattr(owner, attr, None)), name


def _op_failures(workload, item) -> list:
    return workload.check(0, item, workload.op(item))


@pytest.mark.parametrize("name", workloads.REPLAY_FILTERS)
def test_filter_replay_reproduces_recorded_inputs(name):
    """Every step of one short recording, replayed through rows and QP,
    gives the recorded filtered input bit for bit."""
    sc = Scenario(filter=name, horizon=1.0, v_inf=0.1, seed=5)
    replay = workloads.FilterReplay.__new__(workloads.FilterReplay)
    trace = workloads._Recorded(
        key=name, sc=sc, records=harness.run(sc).records, geom=sc.geometry(),
        act=sc.actuator(), alpha=sc.alpha_fn(), budget=sc.budget(),
        bank=sc.make_bank(), box=sc.input_box(), period=1.0 / sc.control_rate)
    for k in range(len(trace.records)):
        assert _op_failures(replay, (trace, k)) == []


def test_sweep_operation_passes_its_checks():
    sweep = workloads.Sweep.__new__(workloads.Sweep)
    sweep._seeds = [5]
    sweep._bd_safe = []
    envelope_low_noise = workloads.FILTERS.index("envelope") * len(workloads.SWEEP_NOISE)
    assert _op_failures(sweep, sweep.item(envelope_low_noise)) == []


@pytest.mark.parametrize("config", workloads.CONFIGS)
def test_cli_compare_operation_passes_its_checks(tmp_path, config):
    cli_compare = workloads.CliCompare.__new__(workloads.CliCompare)
    cli_compare._root = ROOT
    cli_compare.outdir = tmp_path
    sc = load_config(str(ROOT / config))
    cli_compare._steps = {config: int(round(sc.horizon * sc.control_rate))}
    item = (config, 5)
    cli_compare.prepare(item)
    assert _op_failures(cli_compare, item) == []


def test_comparison_records_share_one_text_memo():
    """`cli_compare` writes the traces of one `harness.compare`, whose
    record lists share one trace-text memo; `sweep` times lone
    `harness.run` calls, whose records carry none."""
    sc = Scenario(horizon=1.0)
    results = list(harness.compare(sc, list(workloads.FILTERS)).results.values())
    assert len(results) == len(workloads.FILTERS)
    assert {id(res.records.memo) for res in results} == {id(results[0].records.memo)}
    assert type(results[0].records.memo) is dict
    assert harness.run(sc).records.memo is None
