"""The benchmark's tracer wraps casokit functions by name; every name it
lists must still exist, or only a traced benchmark run would notice."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,fn_name", [
    (layer, fn_name) for layer, names in load_tracer().LAYERS.items() for fn_name in names
])
def test_traced_function_resolves(layer, fn_name):
    module = importlib.import_module(f"casokit.{layer}")
    assert callable(getattr(module, fn_name, None)), f"casokit.{layer}.{fn_name} is gone"
