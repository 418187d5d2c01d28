"""The benchmark's tracer names package functions; each name must resolve.

`perfbench/tracing.py` wraps every layer it lists at run time, so a rename
under `src/` would otherwise show only as a crash of the traced benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load().LAYERS
    assert layers
    for name, (module_name, attr) in layers.items():
        assert module_name.startswith("tristarter"), name
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
