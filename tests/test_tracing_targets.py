"""Every layer that perfbench/tracing.py wraps exists in kblab.

The tracer looks each TRACED (module, function) up with getattr when a traced
benchmark round starts, so a renamed or deleted function would otherwise fail
only there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_resolves_in_kblab():
    tracing = _tracing()
    assert tracing.TRACED
    for module, func, _, _ in tracing.TRACED:
        target = getattr(importlib.import_module(f"kblab.{module}"), func, None)
        assert callable(target), f"kblab.{module}.{func}"


# the argument each work counter reads, by position (args[i]) or by name
COUNTED_ARGUMENTS = {
    ("_integrators", "riccati_sweep"): (1, "grid"),
    ("_integrators", "gain_steps"): (1, "grid"),
    ("simulate", "simulate_observations"): (2, "fine"),
    ("kalman", "_scan"): (1, "increments"),
}


def test_work_counters_read_the_argument_they_count():
    # the counters read args[i] or kwargs[name]: a shifted argument would
    # only show as a wrong per-layer count (csvio.write_table's counter
    # reads its result)
    counted = {(module, func) for module, func, _, count in _tracing().TRACED
               if count is not None and module != "csvio"}
    assert counted == set(COUNTED_ARGUMENTS)
    for (module, func), (position, name) in COUNTED_ARGUMENTS.items():
        target = getattr(importlib.import_module(f"kblab.{module}"), func)
        assert list(inspect.signature(target).parameters)[position] == name, f"kblab.{module}.{func}"
