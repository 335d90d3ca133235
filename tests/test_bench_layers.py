"""The names the benchmark's tracer wraps exist in the package.

`bench/tracing.py` wraps package functions by module and attribute name
when a traced run starts; a renamed or deleted function would only show
there, as a crash.  The file is read with runpy, which writes no
bytecode next to it.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    tracing = runpy.run_path(str(TRACING), run_name="bench_tracing")
    layers = tracing["LAYERS"]
    assert layers
    for name, module_name, attr, kind in layers:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), name
        assert kind in ("span", "count", "gen"), name
    assert set(tracing["HOOKS"]) <= {name for name, *_ in layers}
