"""Every layer that perfbench/tracing.py wraps exists in kblab.

The tracer looks each TRACED (module, function) up with getattr when a traced
benchmark round starts, so a renamed or deleted function would otherwise fail
only there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_in_kblab():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, func, _, _ in tracing.TRACED:
        target = getattr(importlib.import_module(f"kblab.{module}"), func, None)
        assert callable(target), f"kblab.{module}.{func}"
