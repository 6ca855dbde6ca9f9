"""The benchmark's tracer wraps casokit functions by name; every name it
lists must still exist, and its hooks must still read what the wrapped
functions return, or only a traced benchmark run would notice."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.fixture(scope="module")
def modules_the_cli_loads():
    """The casokit modules that `import casokit.cli` alone loads, in a
    fresh process."""
    probe = "import sys, casokit.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("layer", list(load_tracer().LAYERS))
def test_importing_the_cli_loads_every_traced_layer(modules_the_cli_loads, layer):
    # the tracer's install() imports casokit.cli, then reads each layer
    # from sys.modules
    assert f"casokit.{layer}" in modules_the_cli_loads


def test_fista_hook_counts_the_reference_solves():
    # no CLI path runs FISTA; the hook still counts direct library solves
    from casokit import analysis, solver

    g, H, lam2, _ = analysis.make_planted_instance(d=8, support=(1, 4))
    top = float(np.linalg.eigvalsh(H)[-1])
    grid = (0.0, 1e-3, 1e-2, 1e-1)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for lam1 in grid:
            obj = solver.ObjectiveSpec(gradient=g, hvp=lambda v: H @ v, lam1=lam1, lam2=lam2,
                                       curvature_bound=top)
            solver.fista_solve(obj, solver.SolverConfig(iterations=10))
    finally:
        tracer.uninstall()
    assert tracer.names.count("solver.fista_solve") == len(grid)
    assert tracer.counters["solver.fista.iterations"] == 10 * len(grid)
