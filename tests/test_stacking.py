"""Stacked solves: samples solved together as rows of one stack give the
results of solving each sample alone, up to rounding."""

import json
import math

import numpy as np
import pytest

from casokit import (
    Dataset,
    DimensionError,
    LayerSpec,
    MethodRequest,
    NetworkSpec,
    ObjectiveSpec,
    SolverConfig,
    cli,
    dataset_load,
    dataset_save_csv,
    fista_solve,
    fista_solve_batch,
    init_network,
    model_load,
    model_save,
    read_f64_tensor,
    read_pgm,
    run_request,
    select_lambda2,
)
from casokit import interpret

REL = 1e-12
SAMPLES = tuple(range(10))


def backtracks_from_steps(config, res):
    steps = np.log(np.asarray((config.learning_rate,) + res.step_trace))
    return int(np.rint(-np.diff(steps) / -math.log(config.backtrack_decay)).sum())


def counted_objectives(rng, counts, d=20):
    """Objectives with and without curvature, each counting its H products
    under its own index in counts."""
    objs = []
    for i, lam1 in enumerate((0.0, 1e-2, 0.3, 1e-2, 0.0, 50.0, 1e-3, 0.1, 0.0)):
        curved = i % 3 != 1
        scale = rng.uniform(0.1, 3.0)
        B = scale * rng.standard_normal((d, 3))
        top = float(np.linalg.eigvalsh(B.T @ B)[-1]) if curved else 0.0

        def hvp(v, B=B, i=i):
            counts[i] += 1
            return B @ (B.T @ v)

        objs.append(ObjectiveSpec(
            gradient=rng.standard_normal(d) * rng.uniform(0.1, 5.0),
            hvp=hvp if curved else None,
            lam1=lam1,
            lam2=select_lambda2(top, rng.uniform(0.5, 5.0)),
            curvature_bound=top,
        ))
    return objs


class TestStackedSolver:
    @pytest.mark.parametrize("config", [
        SolverConfig(),
        SolverConfig(learning_rate=5.0, iterations=15),
        SolverConfig(learning_rate=50.0, iterations=12, max_backtracks=2),
    ], ids=["default", "backtracking", "exhausted"])
    def test_rows_match_separate_solves(self, config):
        counts = {}
        objs = counted_objectives(np.random.default_rng(30), counts)
        counts.update(dict.fromkeys(range(len(objs)), 0))
        stacked = fista_solve_batch(objs, config)
        stacked_counts = dict(counts)
        counts.update(dict.fromkeys(range(len(objs)), 0))
        alone = [fista_solve(obj, config) for obj in objs]
        assert stacked_counts == counts
        for i, (a, b) in enumerate(zip(stacked, alone)):
            scale = max(float(np.abs(b.delta).max()), np.finfo(float).tiny)
            assert np.allclose(a.delta, b.delta, rtol=0.0, atol=REL * scale)
            assert np.array_equal(a.delta == 0.0, b.delta == 0.0)
            assert a.objective_value == pytest.approx(b.objective_value, rel=REL, abs=1e-300)
            assert a.iterations_used == b.iterations_used
            assert a.step_trace == b.step_trace
            assert a.nnz_trace == b.nnz_trace
            assert a.backtrack_exhausted == b.backtrack_exhausted
            assert np.allclose(a.objective_trace, b.objective_trace, rtol=REL, atol=0.0)
            if objs[i].hvp is not None:
                expected = 1 + 2 * a.iterations_used + backtracks_from_steps(config, a)
                assert counts[i] == expected
        if config.max_backtracks == 2:
            assert any(r.backtrack_exhausted for r in stacked)
        if config.learning_rate > 1.0:
            assert any(backtracks_from_steps(config, r) > 0 for r in stacked)
        assert not stacked[5].delta.any()  # lam1 above |g|_inf

    @pytest.mark.parametrize("config", [
        SolverConfig(), SolverConfig(learning_rate=5.0, iterations=15),
    ], ids=["default", "backtracking"])
    def test_rows_sharing_an_operator_share_its_products(self, config):
        # rows 0, 2, 4, 5 share one operator and rows 1, 3 another, each row
        # with its own gradient, lam1 and c1 (so its own step sizes); row 6
        # is curvature-free and row 7 the lone row of a third operator
        rng = np.random.default_rng(33)
        d = 20
        calls = {name: [] for name in "abc"}

        def operator(name):
            B = 0.2 * rng.standard_normal((d, 3))

            def hvp(V):
                calls[name].append(V.shape)
                return (B @ (B.T @ V.T)).T

            return hvp, float(np.linalg.eigvalsh(B.T @ B)[-1])

        ops = {name: operator(name) for name in "abc"}
        layout = ("a", "b", "a", "b", "a", "a", None, "c")
        lam1s = (0.0, 0.1, 0.4, 0.8, 1.2, 0.02, 0.5, 0.6)
        c1s = (0.5, 1.0, 3.0, 2.0, 1.0, 2.0, 1.0, 3.0)
        objs = []
        for name, lam1, c1 in zip(layout, lam1s, c1s):
            hvp, top = ops[name] if name else (None, 0.0)
            objs.append(ObjectiveSpec(gradient=rng.standard_normal(d), hvp=hvp, lam1=lam1,
                                      lam2=select_lambda2(top, c1), curvature_bound=top))
        stacked = fista_solve_batch(objs, config)
        stacked_calls = {name: list(shapes) for name, shapes in calls.items()}
        alone = [fista_solve(obj, config) for obj in objs]
        for a, b in zip(stacked, alone):
            scale = max(float(np.abs(b.delta).max()), np.finfo(float).tiny)
            assert np.allclose(a.delta, b.delta, rtol=0.0, atol=REL * scale)
            assert np.array_equal(a.delta == 0.0, b.delta == 0.0)
            assert a.nnz_trace == b.nnz_trace
            assert a.backtrack_exhausted == b.backtrack_exhausted
        assert len({r.nnz_trace for r in stacked}) > 4  # the lam1 values matter

        # one call per application: a stack of the operator's selected
        # rows, or a vector when only one of them is selected; together the
        # calls cover each row's 1 + 2 * iterations + backtracks products
        for name in "abc":
            rows = [i for i, n in enumerate(layout) if n == name]
            shapes = stacked_calls[name]
            assert all(s == (d,) or (len(s) == 2 and s[0] >= 2 and s[1] == d) for s in shapes)
            assert sum(1 if len(s) == 1 else s[0] for s in shapes) == sum(
                1 + 2 * stacked[i].iterations_used + backtracks_from_steps(config, stacked[i])
                for i in rows)
            if config.learning_rate < 1.0:  # no backtracks: whole-stack calls only
                assert all(backtracks_from_steps(config, r) == 0 for r in stacked)
                width = (d,) if len(rows) == 1 else (len(rows), d)
                assert shapes == [width] * (1 + 2 * config.iterations)
        if config.learning_rate > 1.0:
            assert any(len(s) == 1 for s in stacked_calls["a"])

    def test_validation(self):
        with pytest.raises(ValueError):
            fista_solve_batch([])
        objs = [ObjectiveSpec(gradient=np.ones(d), hvp=None, lam1=0.0, lam2=1.0)
                for d in (3, 4)]
        with pytest.raises(DimensionError):
            fista_solve_batch(objs)


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
    assert doc["iterations_used"] == ref_doc["iterations_used"]
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
            res = run_request(net, MethodRequest(
                method=method, sample=data.sample(i), lam1=0.01, smooth_n=3,
                seed=int(child.generate_state(1, dtype=np.uint64)[0]), solver=SolverConfig(),
            ))
            ref_doc = {
                "eta": res.eta, "iterations_used": res.solve.iterations_used,
                "lambda1": res.lam1, "lambda2": res.lam2, "loss_gain": res.loss_gain,
                "p_max": res.p_max, "raw_loss_delta": res.raw_loss_delta,
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
