"""Span tracing of kblab's layers, installed from outside the package.

Each traced function is replaced by a wrapper in every ``kblab`` module
namespace that binds it (the package imports with ``from .x import f``, so
patching the defining module alone would miss most call sites). A wrapper
records a span (name, start, end, parent) in memory plus an optional work
count taken from its arguments or result. ``numpy.linalg.pinv`` is called once
per step by the gain layer, so it is only counted, not spanned.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _steps_of_grid(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return len(grid) - 1


def _fine_steps(args, kwargs, result):
    fine = args[2] if len(args) > 2 else kwargs["fine"]
    return len(fine) - 1


def _state_steps(args, kwargs, result):
    increments = args[1] if len(args) > 1 else kwargs["increments"]
    columns = increments.shape[2] if increments.ndim == 3 else 1
    return increments.shape[0] * columns


def _bytes_written(args, kwargs, result):
    return Path(result).stat().st_size


# (module, function, work name, work count) -- the module name in metric
# names drops kblab's leading underscore, since metric names start with a letter
TRACED = [
    ("_integrators", "coefficient_stages", None, None),
    ("_integrators", "transition_steps", None, None),
    ("_integrators", "accumulate_transitions", None, None),
    ("_integrators", "riccati_sweep", "steps", _steps_of_grid),
    ("_integrators", "gain_steps", "steps", _steps_of_grid),
    ("propagate", "closed_loop_propagator", None, None),
    ("propagate", "accumulated_information", None, None),
    ("propagate", "uco_gramian", None, None),
    ("riccati", "closed_form_dre", None, None),
    ("simulate", "simulate_truth", None, None),
    ("simulate", "simulate_observations", "fine_steps", _fine_steps),
    ("smallnoise", "epsilon_sweep", None, None),
    ("kalman", "filter_pieces", None, None),
    ("kalman", "_scan", "state_steps", _state_steps),
    ("kalman", "mismatched_mc", None, None),
    ("kalman", "mean_decomposition_diagnostics", None, None),
    ("nongaussian", "integrate_extended_system", None, None),
    ("nongaussian", "mixture_filter", None, None),
    ("nongaussian", "bank_oracle", None, None),
    ("nongaussian", "merging_report", None, None),
    ("csvio", "write_table", "bytes", _bytes_written),
    ("model", "parse_config", None, None),
    ("model", "validate_config", None, None),
    ("cli", "cmd_riccati", None, None),
    ("cli", "cmd_gramian", None, None),
    ("cli", "cmd_stability_cov", None, None),
    ("cli", "cmd_stability_mean", None, None),
    ("cli", "cmd_nongaussian", None, None),
    ("cli", "cmd_smallnoise", None, None),
]

WORK_UNITS = {"steps": "count", "fine_steps": "count", "state_steps": "count", "bytes": "bytes"}


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for module, func, work, _ in TRACED:
        base = layer_name(module, func)
        specs += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.self_s", "s")]
        if work:
            specs.append((f"{base}.{work}", WORK_UNITS[work]))
    specs += [("numpy.linalg.pinv.calls", "count"), ("trace.spans", "count"),
              ("trace.overhead_pct", "%")]
    return specs


class Tracer:
    """Installs and removes the wrappers; spans are kept per traced round."""

    def __init__(self):
        self.spans = []           # [round, name, start, end, parent, work]
        self.stack = []
        self.round = -1
        self.pinv_calls = {}
        self._patched = []

    def _wrap(self, name, fn, work_fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [self.round, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if work_fn is not None:
                span[5] = work_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_pinv(self, fn):
        def counted(*args, **kwargs):
            self.pinv_calls[self.round] = self.pinv_calls.get(self.round, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "kblab" and not modname.startswith("kblab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def install(self, round_index: int):
        self.round = round_index
        for module, func, _, work_fn in TRACED:
            orig = getattr(sys.modules[f"kblab.{module}"], func)
            self._replace(orig, self._wrap(layer_name(module, func), orig, work_fn))
        orig_pinv = np.linalg.pinv
        np.linalg.pinv = self._count_pinv(orig_pinv)
        self._patched.append((np.linalg, "pinv", orig_pinv))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def op_span(self, name):
        """A root span around one operation, so cli.cmd_* spans have a parent."""
        span = [self.round, f"op.{name}", time.perf_counter(), 0.0, -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self.stack.pop()
            span[3] = time.perf_counter()

    # -- reporting -----------------------------------------------------------

    def round_metrics(self, round_index: int) -> dict:
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == round_index]
        child_time = {}
        for _, s in spans:
            if s[4] >= 0:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out = {}
        for module, func, work, _ in TRACED:
            base = layer_name(module, func)
            mine = [(i, s) for i, s in spans if s[1] == base]
            out[f"{base}.calls"] = len(mine)
            out[f"{base}.s"] = sum(s[3] - s[2] for _, s in mine)
            out[f"{base}.self_s"] = sum(s[3] - s[2] - child_time.get(i, 0.0) for i, s in mine)
            if work:
                out[f"{base}.{work}"] = sum(s[5] for _, s in mine)
        out["numpy.linalg.pinv.calls"] = self.pinv_calls.get(round_index, 0)
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (rnd, name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "round": rnd, "name": name, "start": start,
                                     "end": end, "parent": parent, "work": work}) + "\n")


def combine_rounds(per_round: list) -> dict:
    """Median time over traced rounds; counts must repeat exactly."""
    out = {}
    for key in per_round[0]:
        values = [r[key] for r in per_round]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between identical rounds: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
