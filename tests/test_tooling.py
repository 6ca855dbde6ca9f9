"""The benchmark's tracer wraps casokit functions by name; every name it
lists must still exist, and its hooks must still read what the wrapped
functions return, or only a traced benchmark run would notice."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from casokit import (
    Dataset,
    LayerSpec,
    NetworkSpec,
    cli,
    dataset_save_csv,
    init_network,
    model_save,
    solver,
)

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


def test_fista_hook_counts_the_fallback_solves(tmp_path, monkeypatch, capsys):
    # with no Newton steps allowed, every caso map is a FISTA solve
    spec = NetworkSpec((LayerSpec(20, 12, "relu"), LayerSpec(12, 4, "identity")))
    model, data = tmp_path / "net.json", tmp_path / "data.csv"
    model_save(init_network(spec, seed=50), str(model))
    rng = np.random.default_rng(51)
    dataset_save_csv(Dataset(rng.standard_normal((3, 20)), rng.integers(0, 4, 3)), str(data))
    monkeypatch.setattr(solver, "ACTIVE_SET_MAX_STEPS", 0)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["interpret", "--model", str(model), "--data", str(data),
                         "--method", "caso", "--samples", "0,1,2", "--width", "20",
                         "--height", "1", "--lambda1", "1e-3", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.names.count("solver.fista_solve") == 3
    assert tracer.counters["solver.fista.iterations"] == 3 * 10
