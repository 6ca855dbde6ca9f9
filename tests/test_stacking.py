"""Stacked chunks: samples whose models are built together give the
results of each sample alone, up to rounding."""

import json

import numpy as np
import pytest

from casokit import (
    Dataset,
    LayerSpec,
    MethodRequest,
    NetworkSpec,
    cli,
    dataset_load,
    dataset_save_csv,
    init_network,
    model_load,
    model_save,
    run_request,
)
from casokit import interpret
from conftest import read_f64_tensor, read_pgm

REL = 1e-12
SAMPLES = tuple(range(10))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A relu and a sigmoid 16 -> 12 -> 4 net and ten 4 x 4 rows."""
    root = tmp_path_factory.mktemp("stacking")
    rng = np.random.default_rng(31)
    out = {"root": root, "data": str(root / "data.csv")}
    dataset_save_csv(Dataset(rng.uniform(0.0, 1.0, (10, 16)), rng.integers(0, 4, 10)),
                     out["data"])
    for act in ("relu", "sigmoid"):
        spec = NetworkSpec((LayerSpec(16, 12, act), LayerSpec(12, 4, "identity")))
        out[act] = str(root / f"{act}.json")
        model_save(init_network(spec, seed=32), out[act])
    return out


def interpret_cli(files, tmp_path, activation, method, samples, name):
    out = tmp_path / name
    code = cli.main([
        "interpret", "--model", files[activation], "--data", files["data"],
        "--method", method, "--lambda1", "0.01", "--smooth-n", "3", "--seed", "3",
        "--samples", ",".join(map(str, samples)), "--out", str(out),
    ])
    assert code == 0
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_delta(path):
    return read_f64_tensor(path)[0]


def assert_same_result(doc, delta, ref_doc, ref_delta):
    """doc/delta against ref_doc/ref_delta: floats to REL relative, the map
    to REL of its largest entry, identical eta and zero pattern.
    raw_loss_delta is a difference of two losses, so its tolerance is
    absolute, at the rounding level of the losses."""
    scale = max(float(np.abs(ref_delta).max()), np.finfo(float).tiny)
    assert np.allclose(delta, ref_delta, rtol=0.0, atol=REL * scale)
    assert np.array_equal(delta == 0.0, ref_delta == 0.0)
    assert doc["eta"] == ref_doc["eta"]
    assert "iterations_used" not in doc
    for key in ("lambda1", "lambda2", "loss_gain", "p_max"):
        assert doc[key] == pytest.approx(ref_doc[key], rel=REL, abs=1e-300), key
    assert doc["raw_loss_delta"] == pytest.approx(ref_doc["raw_loss_delta"], rel=REL,
                                                  abs=1e-14)


class TestStackedInterpret:
    @pytest.mark.parametrize("activation,method", [
        ("relu", "cafo"), ("relu", "caso"), ("relu", "smooth-cafo"), ("relu", "smooth-caso"),
        ("sigmoid", "cafo"), ("sigmoid", "smooth-cafo"), ("sigmoid", "caso"),
        ("sigmoid", "smooth-caso"),
    ])
    def test_cli_matches_per_sample_requests(self, files, tmp_path, monkeypatch, capsys,
                                             activation, method):
        # 24 chunk columns on 4 classes: six cafo/caso samples, six
        # smooth-cafo and two smooth-caso samples at n = 3 per chunk
        monkeypatch.setattr(interpret, "CHUNK_COLUMNS", 24)
        out = interpret_cli(files, tmp_path, activation, method, SAMPLES, "cli")
        net = model_load(files[activation])
        data = dataset_load(files["data"])
        children = np.random.SeedSequence(3).spawn(len(SAMPLES))
        for i, child in zip(SAMPLES, children):
            res, = run_request(net, MethodRequest(
                method=method, samples=(data.sample(i),), lam1=0.01, smooth_n=3,
                seeds=(int(child.generate_state(1, dtype=np.uint64)[0]),),
            ))
            ref_doc = {
                "eta": res.eta, "lambda1": res.lam1, "lambda2": res.lam2,
                "loss_gain": res.loss_gain, "p_max": res.p_max,
                "raw_loss_delta": res.raw_loss_delta,
            }
            assert_same_result(read_json(out / f"sample{i}.json"),
                               read_delta(out / f"sample{i}.delta.f64"),
                               ref_doc, res.delta)

    @pytest.mark.parametrize("method", ["cafo", "caso", "smooth-cafo", "smooth-caso"])
    def test_one_sample_matches_its_chunk(self, files, tmp_path, capsys, method):
        # a smoothed sample's noise seed follows its position in --samples
        many = SAMPLES if method in ("cafo", "caso") else (5, 0, 1, 2, 3, 4, 6, 7, 8, 9)
        one = interpret_cli(files, tmp_path, "relu", method, (5,), "one")
        chunk = interpret_cli(files, tmp_path, "relu", method, many, "many")
        assert_same_result(read_json(one / "sample5.json"),
                           read_delta(one / "sample5.delta.f64"),
                           read_json(chunk / "sample5.json"),
                           read_delta(chunk / "sample5.delta.f64"))
        gray = read_pgm(one / "sample5.pgm").astype(int) - read_pgm(chunk / "sample5.pgm")
        assert np.abs(gray).max() <= 1
