"""The per-sample curvature model: dense equivalence, the exact lambda_2
bound, hoisting through the sweep, and deterministic work counts."""

import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import bishop_hessian, fd_loss_hessian, mixed_net, read_f64_tensor

from casokit import (
    DEFAULT_LAMBDA1_GRID,
    Dataset,
    DimensionError,
    LayerSpec,
    MethodRequest,
    NetworkSpec,
    ObjectiveSpec,
    Sample,
    SolverConfig,
    backprop_batch,
    cafo,
    caso,
    confidence_gap_study,
    curvature_models,
    dataset_save_csv,
    fista_solve,
    forward,
    forward_batch,
    hessian_eig,
    hvp_finite_diff,
    init_network,
    input_gradient,
    integrated_gradients,
    lambda1_sweep,
    local_linearization,
    model_load,
    model_save,
    run_request,
    select_lambda2,
    smooth_cafo,
    smooth_caso,
    smoothgrad,
    softmax_curvature,
    sparse_models,
    vanilla_gradient,
)
from casokit import cli, interpret, solver
from casokit import hessian as hs
from casokit import netcore as nc
from casokit.solver import DEFAULT_C1

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def relu_net():
    spec = NetworkSpec((
        LayerSpec(8, 12, "relu"), LayerSpec(12, 6, "relu"), LayerSpec(6, 4, "identity"),
    ))
    return init_network(spec, seed=21)


@pytest.fixture(scope="module")
def sigmoid_net():
    spec = NetworkSpec((LayerSpec(6, 9, "sigmoid"), LayerSpec(9, 3, "identity")))
    return init_network(spec, seed=22)


def dense_mean_hessian(net, points):
    """mean_i W_i A_i W_i^T from per-point linearizations, as a d x d matrix."""
    H = np.zeros((net.input_dim, net.input_dim))
    for z in points:
        W = local_linearization(net, z).W
        A = softmax_curvature(forward(net, z).probs)
        H += W @ A @ W.T
    return H / len(points)


def hvp(model, V):
    """H V for the model's H = F C F^T, a vector or an (m, d) stack of rows."""
    return solver.curvature_product(model.factor, model.middle, V)


def identity_net():
    spec = NetworkSpec((LayerSpec(5, 4, "identity"), LayerSpec(4, 3, "identity")))
    return init_network(spec, seed=25)


def load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py by path, registered under name for the
    test's duration."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def noisy_points(x, n, seed):
    return x + 0.3 * np.random.default_rng(seed).standard_normal((n, x.shape[0]))


def count_calls(monkeypatch, home, names):
    """Count calls to home.<name> through every casokit module binding it."""
    counts = Counter()
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "casokit"]
    for name in names:
        orig = getattr(home, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def backtracks_from_steps(config, res):
    """Backtracks rebuilt from step_trace: the step starts at learning_rate
    and only ever shrinks by backtrack_decay."""
    steps = np.log(np.asarray((config.learning_rate,) + res.step_trace))
    return int(np.rint(-np.diff(steps) / -math.log(config.backtrack_decay)).sum())


class TestBatchedPasses:
    def test_forward_batch_matches_forward_rows(self, relu_net, sigmoid_net):
        rng = np.random.default_rng(1)
        for net in (relu_net, sigmoid_net):
            X = rng.standard_normal((5, net.input_dim))
            batch = forward_batch(net, X, 1)
            for i, x in enumerate(X):
                t = forward(net, x, 1)
                assert np.allclose(batch.logits[i], t.logits, rtol=1e-12, atol=1e-14)
                assert np.allclose(batch.probs[i], t.probs, rtol=1e-12, atol=1e-14)
                assert batch.losses[i] == pytest.approx(t.loss, rel=1e-12, abs=1e-14)
        assert forward_batch(relu_net, np.zeros((2, 8))).losses is None

    def test_forward_batch_validation(self, relu_net):
        with pytest.raises(DimensionError):
            forward_batch(relu_net, np.zeros(8))
        with pytest.raises(DimensionError):
            forward_batch(relu_net, np.zeros((2, 7)))
        with pytest.raises(ValueError):
            forward_batch(relu_net, np.zeros((2, 8)), y=4)

    def test_backprop_batch_matches_linearization(self, relu_net):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 8))
        seeds = rng.standard_normal((3, 2, 4))
        out = backprop_batch(relu_net, forward_batch(relu_net, X), seeds)
        assert out.shape == (8, 6)
        for i, x in enumerate(X):
            W = local_linearization(relu_net, x).W
            for j in range(2):
                assert np.allclose(out[:, 2 * i + j], W @ seeds[i, j], rtol=1e-12, atol=1e-14)
        with pytest.raises(DimensionError):
            backprop_batch(relu_net, forward_batch(relu_net, X), seeds[:2])


class TestDenseEquivalence:
    @pytest.mark.parametrize("n", [1, 5])
    def test_relu_model_matches_dense_references(self, relu_net, n):
        # n = 1 takes the B^T B Gram matrix (d > n c), n = 5 the B B^T one;
        # both keep B, as d = 8 <= h0 = 12
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = nc.sample_kink_safe(relu_net, rng)
            s = Sample(x=x, y=2)
            points = noisy_points(x, n, int(rng.integers(1 << 30)))
            model = curvature_models(relu_net, [s], [points])[0]
            H = dense_mean_hessian(relu_net, points)
            scale = float(np.abs(H).max())
            B = model.factor
            assert B.shape == (8, 4 * n) and model.middle is None
            assert np.allclose(B @ B.T, H, rtol=1e-10, atol=1e-12 * scale)
            v = rng.standard_normal(8)
            assert np.allclose(hvp(model, v), H @ v, rtol=1e-10, atol=1e-12 * scale)
            g = np.mean([input_gradient(relu_net, z, 2) for z in points], axis=0)
            assert np.allclose(model.gradient, g, rtol=1e-10, atol=1e-14)
            top = float(np.linalg.eigvalsh(H)[-1])
            assert abs(model.curvature_bound - top) <= 1e-10 * top
            clean = forward(relu_net, x, 2)
            assert np.array_equal(model.probs, clean.probs)
            assert model.loss == clean.loss

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relu_models_across_the_first_layer_width(self, n):
        # d = 8, h0 = 6, c = 3: n c = 3 and n c = 6 = h0 keep B and its B^T B
        # base, n c = 9 > h0 takes F = W_0^T, C = M
        spec = NetworkSpec((LayerSpec(8, 6, "relu"), LayerSpec(6, 4, "relu"),
                            LayerSpec(4, 3, "identity")))
        net = init_network(spec, seed=26)
        rng = np.random.default_rng(27)
        for _ in range(4):
            x = nc.sample_kink_safe(net, rng)
            points = noisy_points(x, n, int(rng.integers(1 << 30)))
            model = curvature_models(net, [Sample(x=x, y=1)], [points])[0]
            F, C = model.factor, model.middle
            if n < 3:
                assert F.shape == (8, 3 * n) and C is None and model.inverse.shape == (3 * n, 3 * n)
            else:
                assert np.shares_memory(F, net.weights[0]) and model.inverse.shape == (6, 6)
            H = dense_mean_hessian(net, points)
            scale = float(np.abs(H).max())
            assert np.allclose(hvp(model, np.eye(8)), H, rtol=1e-10, atol=1e-12 * scale)
            top = float(np.linalg.eigvalsh(H)[-1])
            assert abs(model.curvature_bound - top) <= 1e-10 * top
            # the same maps as a solve on the stacked factor of per-point Jacobians
            B = np.hstack([local_linearization(net, z).W @ hs.softmax_factor(forward(net, z).probs)
                           for z in points]) / math.sqrt(n)
            base = np.linalg.inv(2.0 * model.lam2 * np.eye(3 * n) - B.T @ B)
            g = model.gradient
            for lam1 in (0.0, 0.05 * np.abs(g).max(), 0.3 * np.abs(g).max()):
                got = model.solve(lam1).delta
                ref = solver.exact_solve(g, lam1, model.lam2, B, None, base).delta
                assert np.abs(got - ref).max() <= 1e-12 * float(np.abs(ref).max())
                assert np.array_equal(got == 0.0, ref == 0.0)

    def test_clean_model_expands_at_the_sample(self, relu_net):
        rng = np.random.default_rng(4)
        x = nc.sample_kink_safe(relu_net, rng)
        s = Sample(x=x, y=0)
        model = curvature_models(relu_net, [s])[0]
        H = dense_mean_hessian(relu_net, [x])
        assert np.allclose(model.factor @ model.factor.T, H, rtol=1e-10,
                           atol=1e-12 * float(np.abs(H).max()))
        assert np.allclose(model.gradient, input_gradient(relu_net, x, 0), rtol=1e-10)
        clean = forward(relu_net, x, 0)
        assert np.allclose(model.probs, clean.probs, rtol=1e-12)
        assert model.loss == pytest.approx(clean.loss, rel=1e-12)

    def test_sigmoid_model_is_closed_form(self, sigmoid_net):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        s = Sample(x=x, y=1)
        points = noisy_points(x, 3, 7)
        model = curvature_models(sigmoid_net, [s], [points])[0]
        W0 = sigmoid_net.weights[0]
        assert np.shares_memory(model.factor, W0) and np.array_equal(model.factor, W0.T)
        assert not model.factor.flags.writeable
        g = np.mean([input_gradient(sigmoid_net, z, 1) for z in points], axis=0)
        assert np.allclose(model.gradient, g, rtol=1e-10, atol=1e-14)
        H = np.mean([bishop_hessian(sigmoid_net, z, 1) for z in points], axis=0)
        scale = float(np.abs(H).max())
        V = rng.standard_normal((4, 6))
        assert np.allclose(hvp(model, V), V @ H, rtol=1e-10, atol=1e-12 * scale)
        assert np.allclose(hvp(model, V[0]), H @ V[0], rtol=1e-10, atol=1e-12 * scale)
        w = np.linalg.eigvalsh(H)
        assert w[0] < 0.0 < w[-1]  # the sigmoid terms make H indefinite
        assert abs(model.curvature_bound - w[-1]) <= 1e-10 * w[-1]

    def test_smooth_cafo_gradient_is_mean_input_gradient(self, sigmoid_net):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(6)
        s = Sample(x=x, y=2)
        n, sigma, seed = 7, 0.2, 5
        span = float(x.max() - x.min())
        points = x + sigma * span * np.random.default_rng(seed).standard_normal((n, 6))
        model, = sparse_models(sigmoid_net, MethodRequest(
            "smooth-cafo", (s,), (seed,), smooth_n=n, smooth_sigma=sigma))
        g = np.mean([input_gradient(sigmoid_net, z, 2) for z in points], axis=0)
        assert np.allclose(model.gradient, g, rtol=1e-12, atol=0.0)
        assert model.factor is None and model.inverse is None
        assert model.curvature_bound == 0.0


class TestExactLambda2:
    def test_caso_lambda2_matches_hessian_eig(self, relu_net):
        # hessian_eig takes W from local_linearization and its spectrum from
        # eigh, so the two agree to rounding, not bit for bit
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = nc.sample_kink_safe(relu_net, rng)
            s = Sample(x=x, y=int(rng.integers(4)))
            W = local_linearization(relu_net, x).W
            p = forward(relu_net, x).probs
            expected = select_lambda2(hessian_eig(W, p).top_eigenvalue, 10.0)
            assert caso(s, relu_net, 1e-3).lam2 == pytest.approx(expected, rel=1e-12)

    def test_sigmoid_margin_holds_on_benchmark_row_40(self, tmp_path, monkeypatch):
        # the benchmark's seed-5 sigmoid model, where a 10-step power
        # iteration read lambda_max as 3.468 against an exact 4.341, so
        # 2 lam2 - lambda_max fell below the 2 c1 strong-concavity margin
        load_perfbench("reference", monkeypatch)  # inputs.py imports it
        inp = load_perfbench("inputs", monkeypatch).generate(5, str(tmp_path))
        net = model_load(inp.sigmoid_path)
        s = Sample(x=inp.X[40], y=int(inp.labels[40]))
        top = float(np.linalg.eigvalsh(fd_loss_hessian(net, s.x, s.y))[-1])
        res = caso(s, net, 1e-3)
        assert 2.0 * res.lam2 - top >= 2.0 * DEFAULT_C1 - 1e-6 * top
        model = curvature_models(net, [s])[0]
        assert model.curvature_bound == pytest.approx(top, rel=1e-6)
        for v in np.random.default_rng(36).standard_normal((2, net.input_dim)):
            hv = hvp(model, v)
            fd = hvp_finite_diff(net, s.x, s.y, v)
            assert np.linalg.norm(hv - fd) <= 1e-8 * np.linalg.norm(hv)


    def test_dominant_negative_curvature_is_solved(self, relu_net):
        # one steep sigmoid unit on the rising side of its kink: sigma''
        # makes H = -5.03 e_1 e_1^T, with no positive eigenvalue to lift lam2.
        # Below c1 = 2.5126, |lambda_min(H)| exceeds 2 lam2; the envelope's
        # step size takes lambda_min from the model, and every map is certified
        spec = NetworkSpec((LayerSpec(2, 1, "sigmoid"), LayerSpec(1, 2, "identity")))
        net = nc.Network(spec, (np.array([[3.0, 0.0]]), np.array([[3.0], [-3.0]])),
                         (np.zeros(1), np.zeros(2)))
        s = Sample(x=np.array([0.5, 0.0]), y=1)
        for c1 in (1.0, 2.51, DEFAULT_C1):
            model = curvature_models(net, [s], c1=c1)[0]
            H = model.factor @ model.middle @ model.factor.T
            bottom = float(np.linalg.eigvalsh(H)[0])
            assert bottom == pytest.approx(-5.0252, abs=1e-4)
            assert model.curvature_floor == pytest.approx(bottom, rel=1e-12)
            assert (model.curvature_bound, model.lam2) == (0.0, c1)
            for lam1 in (0.0, 1e-3, 0.05):
                res = caso(s, net, lam1, c1=c1)
                assert res.solve.kkt_residual <= 1e-12
                assert res.delta.any()
                fixed = solver.prox_soft_threshold(model.gradient + H @ res.delta, lam1)
                fixed /= 2.0 * c1
                assert np.abs(res.delta - fixed).max() <= 1e-12 * np.abs(res.delta).max()
        # the factor form of a relu model is positive semidefinite: floor 0
        relu = curvature_models(relu_net, [Sample(x=np.zeros(relu_net.input_dim), y=0)])[0]
        assert relu.middle is None and relu.curvature_floor == 0.0


class TestClosedFormCurvature:
    """The closed-form model of every net the loaders accept, against
    finite differences of the exact gradient and a dense Hessian built
    layer by layer."""

    @pytest.mark.parametrize("kind", ["sigmoid", "mixed", "identity"])
    def test_hvp_matches_finite_differences(self, kind, tmp_path, sigmoid_net):
        net = {"sigmoid": sigmoid_net, "mixed": mixed_net(tmp_path),
               "identity": identity_net()}[kind]
        rng = np.random.default_rng(31)
        x = rng.standard_normal(net.input_dim)
        points = noisy_points(x, 3, 32)
        model = curvature_models(net, [Sample(x=x, y=1)], [points])[0]
        H = np.mean([fd_loss_hessian(net, z, 1) for z in points], axis=0)
        for v in rng.standard_normal((3, net.input_dim)):
            hv = hvp(model, v)
            fd = np.mean([hvp_finite_diff(net, z, 1, v) for z in points], axis=0)
            assert np.linalg.norm(hv - H @ v) <= 1e-6 * np.linalg.norm(hv)
            # hvp_finite_diff's step of 1e-4 (1 + |x|) leaves a truncation
            # error of 1e-8 to 5e-8 on these small nets
            assert np.linalg.norm(hv - fd) <= 1e-7 * np.linalg.norm(hv)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bound_is_exact_lambda_max(self, tmp_path, n):
        # 16 inputs and 3 + 5 factor columns per point: n = 1 and 2 fit
        # d columns (one block), n = 5 takes blocks of 2, 2 and 1 points
        spec = NetworkSpec((LayerSpec(16, 5, "sigmoid"), LayerSpec(5, 3, "identity")))
        net = init_network(spec, seed=33)
        rng = np.random.default_rng(34)
        for net in (net, mixed_net(tmp_path)):
            x = rng.standard_normal(net.input_dim)
            points = noisy_points(x, n, int(rng.integers(1 << 30)))
            model = curvature_models(net, [Sample(x=x, y=2)], [points])[0]
            H = np.mean([bishop_hessian(net, z, 2) for z in points], axis=0)
            top = float(np.linalg.eigvalsh(H)[-1])
            assert abs(model.curvature_bound - max(top, 0.0)) <= 1e-10 * abs(top)
            V = rng.standard_normal((2, net.input_dim))
            assert np.allclose(hvp(model, V), V @ H, rtol=1e-10,
                               atol=1e-12 * float(np.abs(H).max()))

    def test_sigmoid_factor_width_sets_the_chunks(self, sigmoid_net):
        s = Sample(x=np.zeros(6), y=0)
        # 3 classes plus 9 sigmoid units per expansion point
        assert interpret._columns(sigmoid_net, MethodRequest("caso", (s,))) == 12
        assert interpret._columns(sigmoid_net, MethodRequest("smooth-caso", (s,), smooth_n=4)) == 48
        assert interpret._columns(sigmoid_net, MethodRequest("smooth-cafo", (s,), smooth_n=4)) == 4

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "mixed"])
    def test_cli_never_estimates_curvature(self, kind, tmp_path, monkeypatch, capsys,
                                           relu_net, sigmoid_net):
        # the reference oracles must not run inside the program
        def forbidden(*args, **kwargs):
            raise AssertionError("finite-difference curvature in the program")

        for name in ("hvp_finite_diff", "largest_eigenvalue"):
            orig = getattr(hs, name)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "casokit"]:
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, forbidden)
        net = {"relu": relu_net, "sigmoid": sigmoid_net, "mixed": mixed_net(tmp_path)}[kind]
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model_save(net, model)
        rng = np.random.default_rng(35)
        dataset_save_csv(Dataset(rng.standard_normal((3, net.input_dim)),
                                 rng.integers(0, net.num_classes, 3)), data)
        common = ["--model", str(model), "--data", str(data), "--width", str(net.input_dim),
                  "--height", "1", "--smooth-n", "4"]
        for i, argv in enumerate((
            ["interpret", "--method", "caso", "--samples", "0,1,2", "--lambda1", "1e-3"],
            ["interpret", "--method", "smooth-caso", "--samples", "0,2", "--lambda1", "1e-3"],
            ["sweep", "--method", "caso", "--sample", "1"],
        )):
            out = tmp_path / f"out{i}"
            assert cli.main(argv + common + ["--out", str(out)]) == 0
            deltas = sorted(out.glob("*.delta.f64"))
            assert deltas
            for f in deltas:
                assert np.isfinite(read_f64_tensor(f)).all()
            for f in out.glob("*.json"):
                doc = json.loads(f.read_text())
                values = doc["candidates"] if "candidates" in doc else [doc]
                for v in values:
                    assert all(math.isfinite(v[key]) for key in (
                        "lambda2", "eta", "p_max", "loss_gain", "raw_loss_delta"))
        capsys.readouterr()


class TestSparseModels:
    """sparse_models yields a request's models in sample order, building one
    chunk's at a time: the gap study holds no more than that."""

    @staticmethod
    def three_chunks(net, method, monkeypatch):
        # two samples a chunk, so five samples make three chunks
        rng = np.random.default_rng(31)
        rows = [Sample(x=rng.standard_normal(8), y=i % 4) for i in range(5)]
        request = MethodRequest(method, rows, (3, 1, 4, 1, 5), smooth_n=2, smooth_sigma=0.2)
        monkeypatch.setattr(interpret, "CHUNK_COLUMNS", 2 * interpret._columns(net, request))
        return request

    @staticmethod
    def fields(model):
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                     for v in (getattr(model, name) for name in model.__match_args__))

    @pytest.mark.parametrize("method", list(interpret.SPARSE_METHODS))
    def test_models_are_the_chunks_built_in_sample_order(self, relu_net, monkeypatch, method):
        request = self.three_chunks(relu_net, method, monkeypatch)
        smoothed, second_order = interpret.SPARSE_METHODS[method]
        expected = []
        for lo in (0, 2, 4):
            part = request.samples[lo:lo + 2]
            points = [s.x + 0.2 * float(s.x.max() - s.x.min())
                      * np.random.default_rng(seed).standard_normal((2, 8))
                      for s, seed in zip(part, request.seeds[lo:lo + 2])]
            expected += curvature_models(relu_net, part, points if smoothed else None,
                                         second_order, request.c1)
        got = list(sparse_models(relu_net, request))
        assert [self.fields(m) for m in got] == [self.fields(m) for m in expected]

    def test_a_chunk_is_built_when_iteration_reaches_it(self, relu_net, monkeypatch):
        request = self.three_chunks(relu_net, "caso", monkeypatch)
        built, build = [], interpret.curvature_models
        monkeypatch.setattr(interpret, "curvature_models",
                            lambda net, samples, *args: built.append(len(samples))
                            or build(net, samples, *args))
        models = sparse_models(relu_net, request)
        assert built == []
        next(models)
        assert built == [2]
        next(models)
        assert built == [2]
        next(models)
        assert built == [2, 2]
        assert len(list(models)) == 2 and built == [2, 2, 1]

    def test_a_baseline_request_has_no_models(self, relu_net):
        request = MethodRequest("grad", (Sample(x=np.zeros(8), y=0),))
        with pytest.raises(ValueError, match="^'grad' is not a sparse method$"):
            next(sparse_models(relu_net, request))


class TestSweepHoisting:
    @pytest.mark.parametrize("method,knobs", [
        ("caso", {}),
        ("smooth-caso", {"seeds": (3,), "smooth_n": 6, "smooth_sigma": 0.2}),
        ("cafo", {}),
        ("smooth-cafo", {"seeds": (3,), "smooth_n": 6, "smooth_sigma": 0.2}),
    ])
    def test_sweep_candidates_match_separate_calls(self, relu_net, method, knobs):
        # the grid is one stack: first-order rows keep their own arithmetic
        # bit for bit, while a shared curvature factor is applied to the
        # whole stack in one product, which moves the rows by rounding
        rng = np.random.default_rng(8)
        for _ in range(3):
            s = Sample(x=rng.standard_normal(8), y=int(rng.integers(4)))
            one = MethodRequest(method, (s,), **knobs)
            out = lambda1_sweep(relu_net, one)
            for r in out.all_results:
                ref, = run_request(relu_net, one.replace(lam1=r.lam1))
                assert (r.lam2, r.eta, r.p_max) == (ref.lam2, ref.eta, ref.p_max)
                assert r.raw_loss_delta == pytest.approx(ref.raw_loss_delta, rel=1e-12)
                if method.endswith("cafo"):
                    assert r.delta.tobytes() == ref.delta.tobytes()
                    assert r.loss_gain == ref.loss_gain
                    assert r.solve.objective_trace == ref.solve.objective_trace
                    assert r.solve.step_trace == ref.solve.step_trace
                else:
                    scale = max(float(np.abs(ref.delta).max()), np.finfo(float).tiny)
                    assert np.allclose(r.delta, ref.delta, rtol=0.0, atol=1e-12 * scale)
                    assert np.array_equal(r.delta == 0.0, ref.delta == 0.0)
                    assert r.loss_gain == pytest.approx(ref.loss_gain, rel=1e-12)

    @pytest.mark.parametrize("method,knobs", [
        ("caso", {}), ("smooth-caso", {"seeds": (3,), "smooth_n": 3, "smooth_sigma": 0.2}),
    ])
    def test_sigmoid_sweep_matches_separate_calls(self, sigmoid_net, method, knobs):
        # as on relu nets, the model's curvature is applied to the whole
        # stack in one product, which moves the rows by rounding
        s = Sample(x=np.random.default_rng(15).standard_normal(6), y=1)
        one = MethodRequest(method, (s,), **knobs)
        out = lambda1_sweep(sigmoid_net, one, grid=(0.0, 1e-3, 1e-2, 5e-2), max_refinements=2)
        assert len(out.results) == 4
        for r in out.all_results:
            ref, = run_request(sigmoid_net, one.replace(lam1=r.lam1))
            assert (r.lam2, r.eta, r.p_max) == (ref.lam2, ref.eta, ref.p_max)
            scale = max(float(np.abs(ref.delta).max()), np.finfo(float).tiny)
            assert np.allclose(r.delta, ref.delta, rtol=0.0, atol=1e-12 * scale)
            assert np.array_equal(r.delta == 0.0, ref.delta == 0.0)
            assert r.loss_gain == pytest.approx(ref.loss_gain, rel=1e-12)
            assert r.raw_loss_delta == pytest.approx(ref.raw_loss_delta, rel=1e-12)

    @pytest.mark.parametrize("method", ["cafo", "smooth-caso"])
    def test_long_grid_is_solved_in_bounded_stacks(self, relu_net, monkeypatch, method):
        s = Sample(x=np.random.default_rng(16).standard_normal(8), y=2)
        grid = tuple(np.linspace(0.0, 0.05, 8))
        knobs = {"smooth_n": 3, "smooth_sigma": 0.2} if method == "smooth-caso" else {}
        one = MethodRequest(method, (s,), **knobs)
        whole = lambda1_sweep(relu_net, one, grid=grid, max_refinements=0)
        # each map is solved on its own; the bound is on the batched forward
        # pass at the perturbed inputs
        sizes = []
        orig = interpret._finish

        def counted(net, request, *args):
            sizes.append(len(request.samples))
            return orig(net, request, *args)

        monkeypatch.setattr(interpret, "_finish", counted)
        monkeypatch.setattr(interpret, "CHUNK_COLUMNS", 3)
        parts = lambda1_sweep(relu_net, one, grid=grid, max_refinements=0)
        assert sizes == [3, 3, 2]
        assert parts.selected_index == whole.selected_index
        for a, b in zip(parts.results, whole.results):
            assert a.lam1 == b.lam1 and a.eta == b.eta
            scale = max(float(np.abs(b.delta).max()), np.finfo(float).tiny)
            assert np.allclose(a.delta, b.delta, rtol=0.0, atol=1e-12 * scale)


class TestWorkCounts:
    @pytest.mark.parametrize("method,knobs", [
        ("caso", {}), ("smooth-caso", {"smooth_n": 4, "smooth_sigma": 0.2}),
        ("cafo", {}), ("smooth-cafo", {"smooth_n": 4, "smooth_sigma": 0.2}),
    ])
    def test_sweep_builds_the_model_once(self, relu_net, monkeypatch, method, knobs):
        counts = count_calls(monkeypatch, interpret, ["curvature_models"])
        s = Sample(x=np.random.default_rng(9).standard_normal(8), y=1)
        out = lambda1_sweep(relu_net, MethodRequest(method, (s,), **knobs))
        assert len(out.all_results) >= len(DEFAULT_LAMBDA1_GRID)
        assert counts["curvature_models"] == 1

    def test_fista_applies_h_once_per_point(self):
        rng = np.random.default_rng(10)
        for lr, max_bt in ((0.1, 20), (5.0, 20), (50.0, 2)):
            B = rng.standard_normal((12, 3))
            top = float(np.linalg.eigvalsh(B.T @ B)[-1])
            calls = []

            def hvp(v):
                calls.append(1)
                return B @ (B.T @ v)

            obj = ObjectiveSpec(gradient=rng.standard_normal(12), hvp=hvp, lam1=1e-2,
                                lam2=select_lambda2(top, 1.0), curvature_bound=top)
            cfg = SolverConfig(learning_rate=lr, iterations=15, max_backtracks=max_bt)
            res = fista_solve(obj, cfg)
            backtracks = backtracks_from_steps(cfg, res)
            assert len(calls) == 1 + 2 * res.iterations_used + backtracks
            if lr > 1.0:
                assert backtracks > 0
            if max_bt == 2:
                assert res.backtrack_exhausted

    def test_forward_passes_per_result(self, relu_net, monkeypatch):
        counts = count_calls(monkeypatch, nc, ["forward", "forward_batch", "input_gradient"])
        s = Sample(x=np.random.default_rng(11).standard_normal(8), y=3)

        def passes(run):
            counts.clear()
            run()
            return (counts["forward"] + counts["forward_batch"], counts["forward_batch"],
                    counts["input_gradient"])

        grid = (0.0, 1e-3, 1e-2)
        for method, fn, kwargs in (
            ("cafo", cafo, {}), ("caso", caso, {}),
            ("smooth-cafo", smooth_cafo, {"n": 5}), ("smooth-caso", smooth_caso, {"n": 5}),
        ):
            one = MethodRequest(method, (s,), smooth_n=5)
            # the model's batched pass plus the batched raw-loss pass of the
            # result; smoothed methods add the batched clean pass at the sample
            model = 2 if method.startswith("smooth") else 1
            assert passes(lambda: fn(s, relu_net, 1e-3, **kwargs)) == (model + 1, model + 1, 0)
            # the whole grid is one stack with one raw-loss pass; each
            # refinement (lam1 = 50 and 25 stay all zero) is a solve of its own
            assert passes(lambda: lambda1_sweep(relu_net, one, grid=grid, max_refinements=0)) == (
                model + 1, model + 1, 0)
            assert passes(lambda: lambda1_sweep(relu_net, one, grid=(100.0,), max_refinements=2,
                                                eta_range=(0.0, 1e-9))) == (model + 3, model + 3, 0)

    def test_baseline_passes(self, relu_net, monkeypatch):
        counts = count_calls(monkeypatch, nc, [
            "forward", "forward_batch", "backprop_batch", "input_gradient", "logit_gradient",
        ])
        s = Sample(x=np.random.default_rng(12).standard_normal(8), y=2)
        # one pass at the sample; smoothgrad and integrated gradients add one
        # stacked pass over their noisy or path points
        for run, forward_passes in (
            (lambda: vanilla_gradient(s, relu_net), 1),
            (lambda: smoothgrad(s, relu_net, n=6), 2),
            (lambda: integrated_gradients(s, relu_net, steps=7), 2),
        ):
            counts.clear()
            run()
            assert counts == Counter(forward_batch=forward_passes, backprop_batch=1)

    def test_gap_study_passes_per_chunk(self, relu_net, monkeypatch):
        # 4 classes: CHUNK_COLUMNS // 4 = 25 samples a chunk, so 60 samples
        # make three chunks, each one forward pass and two backprops
        counts = count_calls(monkeypatch, nc, [
            "forward", "forward_batch", "backprop_batch", "input_gradient",
            "local_linearization",
        ])
        counts.update(count_calls(monkeypatch, hs, ["hessian_eig"]))
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((60, 8)), rng.integers(0, 4, 60))
        rows = confidence_gap_study(relu_net, data, 60)
        assert len(rows) >= 50  # a sample with an exactly zero gradient is skipped
        assert (counts["forward_batch"], counts["backprop_batch"]) == (3, 6)
        assert counts["forward"] == counts["input_gradient"] == 0
        assert counts["local_linearization"] == counts["hessian_eig"] == 0

    @pytest.mark.parametrize("method", ["cafo", "caso", "smooth-cafo", "smooth-caso"])
    @pytest.mark.parametrize("chunk_columns", [12, interpret.CHUNK_COLUMNS])
    def test_forward_passes_per_interpret_chunk(self, tmp_path, monkeypatch, capsys, method,
                                                chunk_columns):
        # 4 classes: a cafo or caso sample takes 4 chunk columns; at n = 3 a
        # smooth-cafo sample takes 4 (3 points, but at least c) and a
        # smooth-caso sample 12
        spec = NetworkSpec((LayerSpec(16, 12, "relu"), LayerSpec(12, 4, "identity")))
        net = init_network(spec, seed=23)
        rng = np.random.default_rng(13)
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model_save(net, model)
        dataset_save_csv(Dataset(rng.uniform(0, 1, (10, 16)), rng.integers(0, 4, 10)), data)
        monkeypatch.setattr(interpret, "CHUNK_COLUMNS", chunk_columns)
        counts = count_calls(monkeypatch, nc, ["forward", "forward_batch"])
        code = cli.main([
            "interpret", "--model", str(model), "--data", str(data), "--method", method,
            "--smooth-n", "3", "--samples", "0,1,2,3,4,5,6,7,8,9", "--out", str(tmp_path),
        ])
        assert code == 0
        per_sample = {"cafo": 4, "caso": 4, "smooth-cafo": 4, "smooth-caso": 12}[method]
        chunks = math.ceil(10 / (chunk_columns // per_sample))
        # the chunk's model pass and its raw-loss pass; smoothed methods add
        # one clean pass per chunk
        passes = 3 if method.startswith("smooth") else 2
        assert (counts["forward_batch"], counts["forward"]) == (passes * chunks, 0)
