"""Outside-in tracer for `--trace 1` runs.

Spans are recorded by rebinding public functions of rollguard: the module
attribute itself (`qp.solve`, `_kernels.solve_active_set`), every other
rollguard module global bound to the same function (the names `harness`
and `barrier` imported at load time), and class methods. Nothing inside
`src/` changes.

A timed layer records a span (name, start, end, parent, operation id) in
flat arrays kept in memory; spans are written out when the run ends. A
wrapper costs about a microsecond, so functions called tens of thousands of
times per run with a cost of that order (the per-RHS functions) are
counted, not timed: timing them would mostly measure the wrapper.
Degenerate QP rows are counted exactly from `DegenerateRowWarning` by
rebinding the `warnings` name that `qp` looks up, so the warning filters
stay the interpreter's defaults.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import warnings
from array import array
from pathlib import Path

import numpy as np

from rollguard import barrier, cli, differentiator, harness, qp, scenario, sysmodel
from rollguard import _kernels

# (layer name, owner, attribute); the owner is a module or a class
TIMED = (
    ("harness.run", harness, "run"),
    ("harness._scenario_checks", harness, "_scenario_checks"),
    ("barrier.check_budget_schedule", barrier, "check_budget_schedule"),
    ("barrier.check_envelope_budget", barrier, "check_envelope_budget"),
    ("barrier.check_envelope_decay", barrier, "check_envelope_decay"),
    ("sysmodel.step_rk4", sysmodel, "step_rk4"),
    ("sysmodel.gravity_at", sysmodel, "gravity_at"),
    ("qp.solve", qp, "solve"),
    ("_kernels.solve_active_set", _kernels, "solve_active_set"),
    ("barrier.build_constraint_row", barrier, "build_constraint_row"),
    ("barrier.build_bd_row", barrier, "build_bd_row"),
    ("barrier.eval_barrier", barrier, "eval_barrier"),
    ("differentiator.DifferentiatorBank.envelope",
     differentiator.DifferentiatorBank, "envelope"),
    ("harness.budget_row_margin", harness, "budget_row_margin"),
    ("harness.write_trace", harness, "write_trace"),
    ("harness.write_summary", harness, "write_summary"),
    ("scenario.load_config", scenario, "load_config"),
    ("barrier.verify_cbf_candidate", barrier, "verify_cbf_candidate"),
    ("cli.main", cli, "main"),
)
COUNTED = (
    ("sysmodel.eval_dynamics", sysmodel, "eval_dynamics"),
    ("sysmodel.NoiseModel.sample", sysmodel.NoiseModel, "sample"),
    ("differentiator.hgo_rates", differentiator, "hgo_rates"),
    ("differentiator.backward_diff", differentiator, "backward_diff"),
    ("differentiator.error_envelope", differentiator, "error_envelope"),
    ("barrier.eval_h", barrier, "eval_h"),
)
# per-operation counts, other than calls, that the tracer gathers
EXTRA = ("qp.degenerate_dropped", "differentiator.calibrate_envelope.hits",
         "differentiator.calibrate_envelope.misses",
         "harness.write_trace.bytes", "harness.write_summary.failures")
ROOT = "op"


def _rebind_targets(owner, attr):
    """Every (namespace, name) through which rollguard code reaches the
    function `owner.attr`."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    targets = []
    for name, module in sorted(sys.modules.items()):
        if name == "rollguard" or name.startswith("rollguard."):
            for key, value in vars(module).items():
                if value is original:
                    targets.append((module, key))
    return original, targets


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [name for name, _, _ in TIMED]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self.calls = dict.fromkeys((name for name, _, _ in COUNTED), 0)
        self.extra = dict.fromkeys(EXTRA, 0)
        self._patches = []  # (namespace, key, original, wrapper)
        after = {"harness.write_trace": self._after_write_trace,
                 "harness.write_summary": self._after_write_summary}
        for name, owner, attr in TIMED:
            original, targets = _rebind_targets(owner, attr)
            wrapper = self.timed(name, original, after.get(name))
            self._patches += [(ns, key, original, wrapper) for ns, key in targets]
        for name, owner, attr in COUNTED:
            original, targets = _rebind_targets(owner, attr)
            wrapper = self._counted(name, original)
            self._patches += [(ns, key, original, wrapper) for ns, key in targets]
        self._patches.append((qp, "warnings", warnings,
                              types.SimpleNamespace(warn=self._warn)))

    # --- wrappers -----------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap `fn` so each call records a span named `name`."""
        k = self.names.index(name)
        clock = time.perf_counter
        stack, op = self._stack, self._op
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(k)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[i] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, True)
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, False)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_write_trace(self, args, kwargs, failed):
        path = Path(kwargs.get("path", args[1] if len(args) > 1 else ""))
        if path.is_file():
            self.extra["harness.write_trace.bytes"] += path.stat().st_size

    def _after_write_summary(self, args, kwargs, failed):
        self.extra["harness.write_summary.failures"] += failed

    def _warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is not None and issubclass(category, qp.DegenerateRowWarning):
            self.extra["qp.degenerate_dropped"] += 1
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    # --- install / operations -----------------------------------------

    def install(self):
        for ns, key, _, wrapper in self._patches:
            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original, _ in self._patches:
            setattr(ns, key, original)

    def begin_op(self, op_id: int):
        self._op[0] = op_id
        for key in self.calls:
            self.calls[key] = 0
        for key in self.extra:
            self.extra[key] = 0
        self._cache0 = differentiator.calibrate_envelope.cache_info()

    def end_op(self) -> dict:
        """Counts of the operation just finished."""
        info = differentiator.calibrate_envelope.cache_info()
        self.extra["differentiator.calibrate_envelope.hits"] = info.hits - self._cache0.hits
        self.extra["differentiator.calibrate_envelope.misses"] = \
            info.misses - self._cache0.misses
        return {**self.calls, **self.extra}

    # --- results ------------------------------------------------------

    def layer_times(self):
        """Per span name: (calls, self seconds, total seconds), and the
        summed self time of each operation."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layers = {name: [0, 0.0, 0.0] for name in self.names}
        op_self: dict[int, float] = {}
        for i in range(n):
            entry = layers[self.names[self.span_name[i]]]
            own = dur[i] - child[i]
            entry[0] += 1
            entry[1] += own
            entry[2] += dur[i]
            op = self.span_op[i]
            op_self[op] = op_self.get(op, 0.0) + own
        return layers, op_self

    def write_spans(self, path: Path, t0: float):
        """All spans as numpy arrays (np.load): op, parent, name (index into
        `names`), start_us and end_us since `t0`; a span's index is its id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     op=np.frombuffer(self.span_op, dtype=np.int64),
                     parent=np.frombuffer(self.span_parent, dtype=np.int64),
                     name=np.frombuffer(self.span_name, dtype=np.uint16),
                     start_us=(np.frombuffer(self.span_start) - t0) * 1e6,
                     end_us=(np.frombuffer(self.span_end) - t0) * 1e6)


# per-operation QP outcome counts, taken from the solutions themselves
QP_COUNTS = ("qp.nominal_kept", "qp.relaxed")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(name, "count") for name in QP_COUNTS]
    for name, _, _ in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms"),
                (f"{name}.total_ms", "ms")]
    out += [(f"{name}.calls", "count") for name, _, _ in COUNTED]
    out += [(name, "bytes" if name.endswith(".bytes") else "count") for name in EXTRA]
    out += [("trace.overhead_share", "ratio")]
    return out
