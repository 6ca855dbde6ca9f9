"""The benchmark's tracer wraps casokit functions by name; every name it
lists must still exist, and its hooks must still read what the wrapped
functions return, or only a traced benchmark run would notice."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from casokit import cli

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


def test_fista_hook_counts_the_oracle_path_solves(tmp_path, capsys):
    # oracle-check's L1 path takes one FISTA solve per grid value
    grid = (0.0, 1e-3, 1e-2, 1e-1)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["oracle-check", "--d", "8", "--support", "1,4", "--solver-iters", "10",
                         "--grid", ",".join(map(str, grid)), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.names.count("solver.fista_solve") == len(grid)
    assert tracer.counters["solver.fista.iterations"] == 10 * len(grid)
