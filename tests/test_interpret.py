"""Interpretation method tests: CAFO/CASO, smooth variants, baselines, sweep."""

import numpy as np
import pytest

from casokit import (
    DEFAULT_LAMBDA1_GRID,
    Dataset,
    DimensionError,
    LayerSpec,
    MethodRequest,
    Network,
    NetworkSpec,
    Sample,
    cafo,
    caso,
    forward,
    init_network,
    input_gradient,
    integrated_gradients,
    lambda1_sweep,
    local_linearization,
    logit_gradient,
    make_blobs,
    run_request,
    sample_kink_safe,
    smooth_cafo,
    smooth_caso,
    smoothgrad,
    sparsity_ratio,
    train_sgd,
    vanilla_gradient,
)


def linear_net(W_cd, b):
    """Single identity layer: logits = W_cd @ x + b."""
    c, d = W_cd.shape
    return Network(
        spec=NetworkSpec((LayerSpec(d, c, "identity"),)),
        weights=(W_cd,),
        biases=(b,),
    )


def confidence_net(W_cd, p):
    """Linear net whose probabilities at x = 0 equal p."""
    return linear_net(W_cd, np.log(p))


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@pytest.fixture(scope="module")
def relu_net():
    spec = NetworkSpec((LayerSpec(8, 12, "relu"), LayerSpec(12, 4, "identity")))
    return init_network(spec, seed=5)


@pytest.fixture(scope="module")
def desk_setup():
    # lightly trained so held-out samples keep gradients at grid scale
    full = make_blobs(classes=4, dim=64, n_per_class=50, center_scale=2.0,
                      noise=1.0, seed=9)
    tr = np.concatenate([np.arange(c * 50, c * 50 + 40) for c in range(4)])
    he = np.concatenate([np.arange(c * 50 + 40, (c + 1) * 50) for c in range(4)])
    train = Dataset(X=full.X[tr], labels=full.labels[tr])
    spec = NetworkSpec((LayerSpec(64, 32, "relu"), LayerSpec(32, 4, "identity")))
    net = train_sgd(
        init_network(spec, seed=9), train, epochs=1, learning_rate=0.001, seed=9
    ).network
    return net, full, he


class TestSparsityRatio:
    def test_trivial_values(self):
        assert sparsity_ratio(np.zeros(10)) == 1.0
        assert sparsity_ratio(np.ones(10)) == 0.0
        assert sparsity_ratio(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 3) == 0.5

    def test_pixel_needs_all_channels_zero(self):
        # one live channel keeps the whole pixel non-zero
        assert sparsity_ratio(np.array([0.0, 2.0, 0.0, 0.0]), 2) == 0.5

    def test_validation(self):
        with pytest.raises(DimensionError):
            sparsity_ratio(np.zeros(7), 3)
        with pytest.raises(ValueError):
            sparsity_ratio(np.zeros(6), 0)


class TestCafo:
    def test_parallel_to_gradient_at_lambda1_zero(self, relu_net):
        rng = np.random.default_rng(0)
        x = sample_kink_safe(relu_net, rng)
        s = Sample(x=x, y=1)
        res = cafo(s, relu_net)
        g = input_gradient(relu_net, x, 1)
        assert cosine(res.delta, g) >= 1.0 - 1e-12
        assert res.eta == 0.0
        assert res.lam2 == 10.0
        assert np.isfinite(res.loss_gain)

    def test_large_lambda1_all_zero(self, relu_net):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        s = Sample(x=x, y=0)
        g = input_gradient(relu_net, x, 0)
        res = cafo(s, relu_net, lam1=float(np.abs(g).max()))
        assert np.array_equal(res.delta, np.zeros(8))
        assert res.eta == 1.0

    def test_grid_gives_intermediate_eta_on_trained_net(self, desk_setup):
        net, full, he = desk_setup
        s = Sample(x=full.X[he[0]], y=int(full.labels[he[0]]))
        etas = [cafo(s, net, lam1=lam).eta for lam in DEFAULT_LAMBDA1_GRID]
        assert any(0.0 < e < 1.0 for e in etas)


class TestCaso:
    def test_one_hot_probs_identical_to_cafo(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((5, 10))
        b = np.array([800.0, 0.0, 0.0, 0.0, 0.0])  # softmax underflows to one-hot
        net = linear_net(W, b)
        s = Sample(x=np.zeros(10), y=2)
        assert forward(net, s.x).probs[0] == 1.0
        a = caso(s, net)
        c = cafo(s, net)
        assert np.array_equal(a.delta, c.delta)
        assert a.lam2 == c.lam2 == 10.0
        assert a.method == "caso" and c.method == "cafo"

    def test_high_confidence_parallel_to_cafo(self):
        # synthetic concentrated softmax: cos(caso, cafo) >= 0.99 throughout
        rng = np.random.default_rng(77)
        c, d, eps = 1000, 64, 1e-8
        p = np.full(c, eps)
        p[0] = 1.0 - (c - 1) * eps
        worst = 1.0
        for _ in range(200):
            net = confidence_net(rng.standard_normal((c, d)), p)
            s = Sample(x=np.zeros(d), y=0)
            worst = min(worst, cosine(caso(s, net).delta, cafo(s, net).delta))
        assert worst >= 0.99

    def test_low_confidence_gap_exceeds_high_confidence_gap(self):
        rng = np.random.default_rng(78)
        c, d = 10, 30
        W = rng.standard_normal((c, d))

        def ngap(pvec):
            net = confidence_net(W, pvec)
            s = Sample(x=np.zeros(d), y=3)
            a = caso(s, net).delta
            b = cafo(s, net).delta
            return float(np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b)))

        p_hi = np.full(c, (1 - 0.9999) / (c - 1))
        p_hi[3] = 0.9999
        p_lo = np.full(c, (1 - 0.15) / (c - 1))
        p_lo[3] = 0.15
        assert ngap(p_lo) > ngap(p_hi)

    def test_deterministic(self, relu_net):
        rng = np.random.default_rng(3)
        s = Sample(x=rng.standard_normal(8), y=2)
        a = caso(s, relu_net)
        b = caso(s, relu_net)
        assert np.array_equal(a.delta, b.delta)
        assert a.lam2 == b.lam2


class TestSmoothVariants:
    def test_sigma_zero_equals_plain_exactly(self, relu_net):
        rng = np.random.default_rng(4)
        s = Sample(x=rng.standard_normal(8), y=1)
        sc = smooth_cafo(s, relu_net, sigma=0.0)
        pc = cafo(s, relu_net)
        assert np.array_equal(sc.delta, pc.delta)
        assert sc.method == "smooth-cafo"
        ss = smooth_caso(s, relu_net, sigma=0.0, seed=7)
        ps = caso(s, relu_net)
        assert np.array_equal(ss.delta, ps.delta)
        assert ss.method == "smooth-caso"

    def test_n_one_equals_plain_at_noisy_point(self, relu_net):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8)
        s = Sample(x=x, y=2)
        sigma, seed = 0.3, 11
        span = float(x.max() - x.min())
        z = x + sigma * span * np.random.default_rng(seed).standard_normal((1, 8))[0]
        s_z = Sample(x=z, y=2)
        sc = smooth_cafo(s, relu_net, n=1, sigma=sigma, seed=seed)
        assert np.array_equal(sc.delta, cafo(s_z, relu_net).delta)
        ss = smooth_caso(s, relu_net, n=1, sigma=sigma, seed=seed)
        assert np.array_equal(ss.delta, caso(s_z, relu_net).delta)

    def test_defaults_deterministic(self, relu_net):
        rng = np.random.default_rng(6)
        s = Sample(x=rng.standard_normal(8), y=0)
        a = smooth_caso(s, relu_net, seed=3)
        b = smooth_caso(s, relu_net, seed=3)
        assert np.array_equal(a.delta, b.delta)
        c = smooth_cafo(s, relu_net, seed=3)
        d = smooth_cafo(s, relu_net, seed=3)
        assert np.array_equal(c.delta, d.delta)

    def test_parameter_validation(self, relu_net):
        s = Sample(x=np.zeros(8), y=0)
        with pytest.raises(ValueError):
            smooth_cafo(s, relu_net, n=0)
        with pytest.raises(ValueError):
            smooth_caso(s, relu_net, sigma=-0.1)
        for fn in (smooth_cafo, smooth_caso):
            with pytest.raises(ValueError, match="finite"):
                fn(s, relu_net, sigma=float("nan"))


class TestVanillaGradient:
    def test_identity_layer_returns_weight_row(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((4, 6))
        b = np.zeros(4)
        net = linear_net(W, b)
        x = rng.standard_normal(6)
        res = vanilla_gradient(Sample(x=x, y=0), net)
        pred = int(np.argmax(W @ x))
        assert np.array_equal(res.delta, W[pred])
        assert res.loss_gain is None and res.lam1 is None and res.lam2 is None

    def test_equals_linearization_column(self, relu_net):
        rng = np.random.default_rng(8)
        x = sample_kink_safe(relu_net, rng)
        s = Sample(x=x, y=0)
        res = vanilla_gradient(s, relu_net)
        trace = forward(relu_net, x)
        pred = int(np.argmax(trace.logits))
        col = local_linearization(relu_net, x).W[:, pred]
        assert np.allclose(res.delta, col, rtol=1e-12, atol=1e-15)

    def test_finite_difference_check(self, relu_net):
        rng = np.random.default_rng(9)
        x = sample_kink_safe(relu_net, rng)
        res = vanilla_gradient(Sample(x=x, y=0), relu_net)
        pred = int(np.argmax(forward(relu_net, x).logits))
        r = 1e-6
        fd = np.zeros(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = r
            hi = forward(relu_net, x + e).logits[pred]
            lo = forward(relu_net, x - e).logits[pred]
            fd[i] = (hi - lo) / (2 * r)
        assert np.max(np.abs(res.delta - fd)) <= 1e-6 * (np.linalg.norm(fd) + 1.0)


class TestSmoothGrad:
    def test_sigma_zero_equals_vanilla(self, relu_net):
        rng = np.random.default_rng(10)
        s = Sample(x=rng.standard_normal(8), y=1)
        sg = smoothgrad(s, relu_net, sigma=0.0)
        vg = vanilla_gradient(s, relu_net)
        assert np.array_equal(sg.delta, vg.delta)
        assert sg.method == "smoothgrad"

    def test_linear_model_noise_invariant(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((3, 5))
        net = linear_net(W, np.zeros(3))
        x = rng.standard_normal(5)
        s = Sample(x=x, y=0)
        sg = smoothgrad(s, net, n=8, sigma=0.5, seed=2)
        vg = vanilla_gradient(s, net)
        assert np.allclose(sg.delta, vg.delta, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_stacked_pass_matches_per_point_loop(self, activation):
        net = init_network(
            NetworkSpec((LayerSpec(8, 12, activation), LayerSpec(12, 4, "identity"))), seed=7
        )
        x = np.random.default_rng(15).standard_normal(8)
        s = Sample(x=x, y=1)
        pred = int(np.argmax(forward(net, x).logits))
        span = float(x.max() - x.min())
        Z = x + (0.3 * span) * np.random.default_rng(4).standard_normal((20, 8))
        ref = np.mean([logit_gradient(net, z, pred) for z in Z], axis=0)
        sg = smoothgrad(s, net, n=20, sigma=0.3, seed=4)
        assert np.abs(sg.delta - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_variance_shrinks_like_one_over_n(self, relu_net):
        rng = np.random.default_rng(22)
        s = Sample(x=rng.standard_normal(8), y=1)
        net = init_network(
            NetworkSpec((LayerSpec(8, 12, "relu"), LayerSpec(12, 4, "identity"))),
            seed=6,
        )

        def variance(n):
            maps = np.array(
                [smoothgrad(s, net, n=n, sigma=0.15, seed=k).delta for k in range(80)]
            )
            return maps.var(axis=0, ddof=1).mean()

        ratio = variance(10) / variance(40)
        assert 2.5 <= ratio <= 6.0


class TestIntegratedGradients:
    def test_baseline_equals_input_gives_zero(self, relu_net):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(8)
        res = integrated_gradients(Sample(x=x, y=0), relu_net, baseline=x)
        assert np.all(res.delta == 0.0)
        assert res.eta == 1.0

    def test_default_baseline_is_zero_vector(self, relu_net):
        rng = np.random.default_rng(13)
        s = Sample(x=rng.standard_normal(8), y=2)
        a = integrated_gradients(s, relu_net)
        b = integrated_gradients(s, relu_net, baseline=np.zeros(8))
        assert np.array_equal(a.delta, b.delta)

    def test_completeness_linear_softmax(self):
        rng = np.random.default_rng(14)
        W = rng.standard_normal((6, 12))
        b = rng.standard_normal(6)
        net = linear_net(W, b)
        x = rng.standard_normal(12)
        s = Sample(x=x, y=3)
        res = integrated_gradients(s, net, steps=50)
        total = float(res.delta.sum())
        expected = forward(net, x, 3).loss - forward(net, np.zeros(12), 3).loss
        assert abs(total - expected) <= 1e-3

    def test_residual_decreases_monotonically(self):
        spec = NetworkSpec((LayerSpec(10, 14, "relu"), LayerSpec(14, 5, "identity")))
        net = init_network(spec, seed=3)
        x = np.random.default_rng(11).standard_normal(10)
        s = Sample(x=x, y=2)
        l_x = forward(net, x, 2).loss
        l_b = forward(net, np.zeros(10), 2).loss
        resids = []
        for steps in (1, 5, 25, 125):
            res = integrated_gradients(s, net, steps=steps)
            resids.append(abs(float(res.delta.sum()) - (l_x - l_b)))
        assert all(a > b for a, b in zip(resids, resids[1:]))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_stacked_pass_matches_per_point_loop(self, activation):
        net = init_network(
            NetworkSpec((LayerSpec(8, 12, activation), LayerSpec(12, 4, "identity"))), seed=8
        )
        rng = np.random.default_rng(16)
        x, baseline = rng.standard_normal(8), rng.standard_normal(8)
        steps = 30
        ref = (x - baseline) * np.mean([
            input_gradient(net, baseline + (k - 0.5) / steps * (x - baseline), 2)
            for k in range(1, steps + 1)
        ], axis=0)
        res = integrated_gradients(Sample(x=x, y=2), net, baseline=baseline, steps=steps)
        assert np.abs(res.delta - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_validation(self, relu_net):
        s = Sample(x=np.zeros(8), y=0)
        with pytest.raises(ValueError):
            integrated_gradients(s, relu_net, steps=0)
        with pytest.raises(DimensionError):
            integrated_gradients(s, relu_net, baseline=np.zeros(5))


class TestLambda1Sweep:
    def test_default_grid(self, desk_setup):
        net, full, he = desk_setup
        s = Sample(x=full.X[he[0]], y=int(full.labels[he[0]]))
        out = lambda1_sweep(net, MethodRequest("cafo", (s,)))
        assert out.grid == DEFAULT_LAMBDA1_GRID
        assert out.eta_range == (0.75, 1.0)

    def test_tiny_gradient_engages_refinement(self):
        # exact gradient: g = t at x = 0, y = 0 for W = [-t; t]
        t = np.full(20, 1e-8)
        t[0], t[1], t[2] = 1e-6, 9e-7, 8e-7
        W = np.vstack([-t, t])
        net = linear_net(W, np.zeros(2))
        s = Sample(x=np.zeros(20), y=0)
        g = input_gradient(net, s.x, 0)
        assert np.array_equal(g, t)
        out = lambda1_sweep(net, MethodRequest("cafo", (s,)))
        # grid: lam1=0 dense, every value >= 1e-5 all-zero; halving from 1e-5
        assert [r.eta for r in out.results] == [0.0] + [1.0] * 7
        assert [r.lam1 for r in out.refinements] == [5e-6, 2.5e-6, 1.25e-6, 6.25e-7]
        assert out.target_met
        assert out.selected.lam1 == 6.25e-7
        assert out.selected.eta == 0.85
        assert out.selected_index == len(out.grid) + 3

    def test_selection_takes_max_gain_in_range(self, desk_setup):
        net, full, he = desk_setup
        hits = 0
        for i in he[:8]:
            s = Sample(x=full.X[i], y=int(full.labels[i]))
            out = lambda1_sweep(net, MethodRequest("cafo", (s,)))
            if not out.target_met:
                continue
            hits += 1
            lo, hi = out.eta_range
            pool = [r for r in out.all_results if lo <= r.eta < hi]
            best = max(r.loss_gain for r in pool)
            assert out.selected.loss_gain == best
            winners = [r.lam1 for r in pool if r.loss_gain == best]
            assert out.selected.lam1 == min(winners)
        assert hits > 0

    def test_trained_net_mostly_reaches_target(self, desk_setup):
        net, full, he = desk_setup
        met = 0
        for i in he[:20]:
            s = Sample(x=full.X[i], y=int(full.labels[i]))
            out = lambda1_sweep(net, MethodRequest("cafo", (s,)))
            if out.target_met:
                assert 0.75 <= out.selected.eta < 1.0
                met += 1
        assert met >= 16  # >= 80% of 20

    def test_caso_sweep_runs(self, desk_setup):
        net, full, he = desk_setup
        s = Sample(x=full.X[he[1]], y=int(full.labels[he[1]]))
        out = lambda1_sweep(net, MethodRequest("caso", (s,), (1,)))
        assert len(out.results) == len(DEFAULT_LAMBDA1_GRID)
        assert all(r.method == "caso" for r in out.results)

    def test_validation(self, relu_net):
        s = Sample(x=np.zeros(8), y=0)
        one = MethodRequest("cafo", (s,))
        with pytest.raises(ValueError):
            lambda1_sweep(relu_net, one.replace(method="grad"))
        with pytest.raises(ValueError):
            lambda1_sweep(relu_net, one, grid=())
        with pytest.raises(ValueError):
            lambda1_sweep(relu_net, one, grid=(1e-3, 1e-4))
        with pytest.raises(ValueError):
            lambda1_sweep(relu_net, one, grid=(-1e-3, 1e-4))
        with pytest.raises(ValueError):
            lambda1_sweep(relu_net, one, eta_range=(0.9, 0.5))
        with pytest.raises(ValueError, match="max_refinements must be nonnegative"):
            lambda1_sweep(relu_net, one, max_refinements=-1)
        # the request carries every knob; the sweep takes none of its own
        with pytest.raises(TypeError, match="unexpected keyword argument 'smooth_n'"):
            lambda1_sweep(relu_net, one, smooth_n=3)
        # a sweep solves one sample with a sparse method
        for method in ("smoothgrad", "integrated-gradients"):
            with pytest.raises(ValueError, match="unknown sweep method"):
                lambda1_sweep(relu_net, one.replace(method=method))
        with pytest.raises(ValueError, match="a sweep takes one sample, not 2"):
            lambda1_sweep(relu_net, one.replace(samples=(s, s), seeds=None))


class TestMethodRequest:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MethodRequest(method="lrp", samples=(Sample(x=np.zeros(4), y=0),))

    def test_one_seed_per_sample(self):
        s = Sample(x=np.zeros(4), y=0)
        req = MethodRequest("smoothgrad", [s, s], [3, 4])
        assert (req.samples, req.seeds) == ((s, s), (3, 4))
        assert MethodRequest("caso", [s, s]).seeds == (0, 0)
        for seeds in ((), (1,), (1, 2, 3)):
            with pytest.raises(ValueError, match=f"^{len(seeds)} seeds for 2 samples$"):
                MethodRequest("smoothgrad", (s, s), seeds)

    def test_dispatch_matches_direct_calls(self, relu_net):
        rng = np.random.default_rng(15)
        s = Sample(x=rng.standard_normal(8), y=1)
        cases = {
            "grad": vanilla_gradient(s, relu_net),
            "smoothgrad": smoothgrad(s, relu_net, n=10, sigma=0.2, seed=3),
            "integrated-gradients": integrated_gradients(s, relu_net, steps=20),
            "cafo": cafo(s, relu_net, 1e-3),
            "caso": caso(s, relu_net, 1e-3),
            "smooth-cafo": smooth_cafo(s, relu_net, 1e-3, n=10, sigma=0.2, seed=3),
            "smooth-caso": smooth_caso(s, relu_net, 1e-3, n=10, sigma=0.2, seed=3),
        }
        for method, direct in cases.items():
            req = MethodRequest(
                method=method, samples=(s,), seeds=(3,), lam1=1e-3, smooth_n=10,
                smooth_sigma=0.2, ig_steps=20,
            )
            out, = run_request(relu_net, req)
            assert out.method == direct.method
            assert np.array_equal(out.delta, direct.delta)

    def test_unused_knobs_are_ignored(self, relu_net):
        s = Sample(x=np.random.default_rng(16).standard_normal(8), y=2)
        for method, knobs in (
            ("cafo", {"smooth_n": 0}), ("caso", {"smooth_n": 0}),
        ):
            out, = run_request(relu_net, MethodRequest(method=method, samples=(s,), **knobs))
            ref, = run_request(relu_net, MethodRequest(method=method, samples=(s,)))
            assert np.array_equal(out.delta, ref.delta)
