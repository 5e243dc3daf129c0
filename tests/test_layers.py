"""Every layer that perfbench/tracing.py wraps by name is defined in its
jetjac module, so a traced benchmark run can install its spans.  The
benchmark's files are read, never changed."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_is_defined_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for short, names in tracing.LAYERS.items():
        module = importlib.import_module(f"jetjac.{short}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn) and fn.__module__ == module.__name__, f"{short}.{name}"
