"""Analysis study tests: rank-one simulation, gap study, alignment, L0 oracle."""

import logging

import numpy as np
import pytest
from conftest import bishop_hessian, mixed_net
from hypothesis import given, settings
from hypothesis import strategies as st

from casokit import analysis, interpret
from casokit import (
    DEFAULT_LAMBDA1_GRID,
    Dataset,
    DimensionError,
    LayerSpec,
    MethodRequest,
    Network,
    NetworkSpec,
    ObjectiveSpec,
    SolverConfig,
    alignment_curve,
    brute_force_group_feature,
    closed_form_caso,
    confidence_gap_study,
    curvature_models,
    fista_solve,
    forward,
    hessian_eig,
    init_network,
    input_gradient,
    l1_path,
    make_blobs,
    make_planted_instance,
    prox_soft_threshold,
    select_lambda2,
    simulate_rank_one,
    softmax_curvature,
    spearman_rho,
    train_sgd,
)
from casokit.solver import exact_solve


# the ranges a study's values must lie in: a rounding's worth above the
# closed bounds of the cosine and of the gap of two unit vectors
COSINE_MAX, GAP_MAX = 1.0 + 1e-12, 2.0 + 1e-12


def log_uniform(lo, hi, u):
    """10 ** (lo + u (hi - lo)), log-uniform over [10**lo, 10**hi] for u
    uniform in [0, 1]."""
    return 10.0 ** (lo + u * (hi - lo))


def naive_rel_error(W, c, eps):
    """Dense reimplementation of one simulation point."""
    p = np.full(c, eps)
    p[0] = 1.0 - (c - 1) * eps
    y = np.zeros(c)
    y[0] = 1.0
    g = W @ (p - y)
    H = W @ softmax_curvature(p) @ W.T
    approx = np.outer(g, g) / (eps * (c - 1))
    return float(np.linalg.norm(H - approx) / np.linalg.norm(H))


class TestSimulateRankOne:
    def test_matches_naive_dense_reimplementation(self):
        d, p0, classes = 60, 0.999, (5, 12)
        points = simulate_rank_one(d=d, seed=3, p0=p0, classes=classes)
        children = np.random.SeedSequence(3).spawn(len(classes))
        for point, c, child in zip(points, classes, children):
            rng = np.random.default_rng(child)
            W = rng.standard_normal((d, c))
            rng.standard_normal(c)
            eps = (1.0 - p0) / (c - 1)
            assert point.c == c and point.eps == eps
            assert abs(point.rel_error - naive_rel_error(W, c, eps)) <= 1e-10

    def test_eps_sweep_reuses_one_weight_matrix(self):
        eps_values = (1e-2, 1e-3, 1e-4)
        points = simulate_rank_one(d=60, seed=4, c=8, eps_values=eps_values)
        rng = np.random.default_rng(np.random.SeedSequence(4))
        W = rng.standard_normal((60, 8))
        rng.standard_normal(8)
        for point, eps in zip(points, eps_values):
            assert abs(point.rel_error - naive_rel_error(W, 8, eps)) <= 1e-10

    def test_error_decreases_with_classes(self):
        points = simulate_rank_one(d=256, seed=0, p0=0.9999, classes=(10, 100, 1000))
        errs = [p.rel_error for p in points]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_error_decreases_with_eps(self):
        points = simulate_rank_one(d=256, seed=0, c=100, eps_values=(5e-3, 1e-4, 1e-6))
        errs = [p.rel_error for p in points]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_two_class_degenerate_case(self):
        # c = 2 error is the dropped eps^2 term, eps/(1-eps), below any c >= 10
        pts = simulate_rank_one(d=256, seed=0, p0=0.9999, classes=(2, 10))
        eps = 1.0 - 0.9999
        assert pts[0].rel_error == pytest.approx(eps / (1.0 - eps), rel=1e-3)
        assert pts[0].rel_error < pts[1].rel_error

    @pytest.mark.parametrize("eps", [1e-3, 1e-20, 1e-100])
    def test_two_class_error_stays_eps_where_p0_rounds_to_one(self, eps):
        # the c = 2 error is eps/(1-eps) however small eps is: the gradient's
        # entry 0 is -eps even where 1 - eps rounds to 1
        (point,) = simulate_rank_one(d=16, c=2, eps_values=(eps,))
        assert point.rel_error <= max(2.0 * eps, 1e-15)

    def test_error_holds_its_limit_where_p0_rounds_to_one(self):
        # at c = 3, d = 3 the error has reached its eps -> 0 limit by 1e-12
        limit, *rows = simulate_rank_one(d=3, c=3, eps_values=(1e-12, 1e-20, 1e-100))
        for row in rows:
            assert abs(row.rel_error - limit.rel_error) <= 1e-9

    def test_class_and_eps_lists_cross(self):
        pts = simulate_rank_one(d=40, seed=1, classes=(4, 6), eps_values=(1e-2, 1e-3))
        assert [(p.c, p.eps) for p in pts] == [
            (4, 1e-2), (4, 1e-3), (6, 1e-2), (6, 1e-3)
        ]

    def test_deterministic(self):
        grid = dict(d=64, seed=9, p0=0.999, classes=(5, 20))
        a = [p.rel_error for p in simulate_rank_one(**grid)]
        b = [p.rel_error for p in simulate_rank_one(**grid)]
        assert a == b

    def test_validation(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'mode'"):
            simulate_rank_one(mode="grid")
        with pytest.raises(ValueError, match="^d must be positive$"):
            simulate_rank_one(d=0)
        # eps must keep p0 above 1/c
        with pytest.raises(ValueError):
            simulate_rank_one(c=4, eps_values=(0.3,))

    @pytest.mark.parametrize("fields,given", [
        ({}, "none"),
        ({"classes": (5,)}, "classes"),
        ({"p0": 0.999}, "p0"),
        ({"eps_values": (1e-3,)}, "eps_values"),
        ({"c": 10}, "c"),
        ({"p0": 0.999, "c": 5}, "p0 and c"),
        ({"p0": 0.999, "classes": (5,), "eps_values": (1e-3,)}, "p0 and classes and eps_values"),
        ({"c": 10, "eps_values": (1e-3,), "p0": 0.5}, "p0 and eps_values and c"),
        ({"classes": (4,), "eps_values": (1e-3,), "c": 4}, "classes and eps_values and c"),
    ])
    def test_fields_that_fix_no_grid_are_an_error(self, fields, given):
        with pytest.raises(ValueError, match="^set p0 and classes, c and eps_values, or classes "
                                             f"and eps_values; got {given}$"):
            simulate_rank_one(d=8, **fields)

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(2, 12), d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_any_eps_gives_a_finite_error_or_a_value_error(self, c, d, seed, u):
        eps = log_uniform(-320.0, -np.log10(c), u)
        try:
            (point,) = simulate_rank_one(d=d, seed=seed, c=c, eps_values=(eps,))
        except ValueError:
            return
        assert 0.0 <= point.rel_error < np.inf

    def test_crossed_grid_draws_one_matrix_per_class_count(self):
        classes, eps_values = (3, 6), (1e-2, 1e-3)
        points = simulate_rank_one(d=12, seed=5, classes=classes,
                                   eps_values=eps_values)
        children = np.random.SeedSequence(5).spawn(len(classes))
        expected = [(c, eps, child) for c, child in zip(classes, children) for eps in eps_values]
        for point, (c, eps, child) in zip(points, expected, strict=True):
            W = np.random.default_rng(child).standard_normal((12, c))
            assert (point.c, point.eps) == (c, eps)
            assert abs(point.rel_error - naive_rel_error(W, c, eps)) <= 1e-10


@pytest.fixture(scope="module")
def small_relu():
    data = make_blobs(classes=3, dim=6, n_per_class=4, center_scale=2.0, noise=1.0, seed=0)
    spec = NetworkSpec((LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")))
    net = train_sgd(init_network(spec, seed=0), data,
                    epochs=3, learning_rate=0.1, seed=0).network
    return net, data


@pytest.fixture(scope="module")
def trained_ten_class():
    full = make_blobs(classes=10, dim=64, n_per_class=42, center_scale=2.0,
                      noise=1.4, seed=33)
    tr = np.concatenate([np.arange(c * 42, c * 42 + 30) for c in range(10)])
    he = np.concatenate([np.arange(c * 42 + 30, (c + 1) * 42) for c in range(10)])
    train = Dataset(X=full.X[tr], labels=full.labels[tr])
    held = Dataset(X=full.X[he], labels=full.labels[he])
    spec = NetworkSpec((LayerSpec(64, 32, "relu"), LayerSpec(32, 10, "identity")))
    net = train_sgd(
        init_network(spec, seed=33), train, epochs=6, learning_rate=0.02, seed=33
    ).network
    return net, held


def confidence_net(W_cd, p):
    c, d = W_cd.shape
    return Network(
        spec=NetworkSpec((LayerSpec(d, c, "identity"),)),
        weights=(W_cd,),
        biases=(np.log(p),),
    )


class TestConfidenceGapStudy:
    def test_gap_bounded_and_correlated(self, trained_ten_class):
        net, held = trained_ten_class
        rows = confidence_gap_study(net, held, held.n)
        assert len(rows) >= 100
        gaps = np.array([r.gap for r in rows])
        pmax = np.array([r.p_max for r in rows])
        assert np.all(gaps >= 0.0) and np.all(gaps <= 2.0)
        assert spearman_rho(pmax, gaps) < 0.0

    @pytest.mark.parametrize("kind", ["trained", "wide", "sigmoid", "mixed"])
    def test_gaps_match_dense_reference(self, trained_ten_class, tmp_path, monkeypatch, kind):
        # d >= c (the trained relu net), d < c (a random relu net), and
        # sigmoid and mixed nets, whose curvature has terms of either sign
        rng = np.random.default_rng(43)
        if kind == "trained":
            net, data = trained_ten_class
        else:
            net = {
                "wide": lambda: init_network(NetworkSpec((
                    LayerSpec(4, 9, "relu"), LayerSpec(9, 12, "identity"))), seed=44),
                "sigmoid": lambda: init_network(NetworkSpec((
                    LayerSpec(6, 9, "sigmoid"), LayerSpec(9, 3, "identity"))), seed=44),
                "mixed": lambda: mixed_net(tmp_path),
            }[kind]()
            data = Dataset(X=rng.standard_normal((30, net.input_dim)),
                           labels=rng.integers(0, net.num_classes, 30))
        built = []

        def spy(net, samples, *args):
            built.append(np.stack([s.x for s in samples]))
            return curvature_models(net, samples, *args)

        monkeypatch.setattr(interpret, "curvature_models", spy)
        rows = confidence_gap_study(net, data, data.n)
        # the models are built in the chunks a caso request takes in interpret
        chunks = list(interpret._chunks(net, MethodRequest(
            "caso", [data.sample(i) for i in range(data.n)])))
        assert len(built) == len(chunks)
        for X, chunk in zip(built, chunks):
            assert np.array_equal(X, np.stack([s.x for s in chunk.samples]))
        assert len(rows) >= data.n - 2
        for row in rows:
            x, y = data.X[row.sample_id], int(data.labels[row.sample_id])
            H = bishop_hessian(net, x, y)
            p = forward(net, x).probs
            g = input_gradient(net, x, y)
            lam2 = select_lambda2(max(float(np.linalg.eigvalsh(H)[-1]), 0.0))
            d_caso = np.linalg.solve(2.0 * lam2 * np.eye(len(x)) - H, g)
            u = d_caso / np.linalg.norm(d_caso)
            v = g / np.linalg.norm(g)
            assert abs(row.gap - np.linalg.norm(u - v)) <= 1e-10
            assert row.p_max == pytest.approx(p.max(), rel=1e-13)

    def test_dominant_negative_curvature_is_solved(self):
        # the one-unit sigmoid net of test_curvature_model, H = -5.03 e_1 e_1^T:
        # at c1 = 1, |lambda_min(H)| exceeds 2 lam2 = 2, and the gap is still
        # the dense one
        net = Network(
            spec=NetworkSpec((LayerSpec(2, 1, "sigmoid"), LayerSpec(1, 2, "identity"))),
            weights=(np.array([[3.0, 0.0]]), np.array([[3.0], [-3.0]])),
            biases=(np.zeros(1), np.zeros(2)),
        )
        x = np.array([0.5, 0.0])
        data = Dataset(X=x[None, :], labels=np.array([1]))
        H, g = bishop_hessian(net, x, 1), input_gradient(net, x, 1)
        for c1 in (1.0, 2.52):
            (row,) = confidence_gap_study(net, data, 1, c1=c1)
            d_caso = np.linalg.solve(2.0 * c1 * np.eye(2) - H, g)
            u, v = d_caso / np.linalg.norm(d_caso), g / np.linalg.norm(g)
            assert abs(row.gap - np.linalg.norm(u - v)) <= 1e-12

    def test_high_confidence_gap_small(self):
        rng = np.random.default_rng(40)
        c, d = 10, 32
        p = np.full(c, 1e-9 / (c - 1))
        p[0] = 1.0 - 1e-9
        net = confidence_net(rng.standard_normal((c, d)), p)
        data = Dataset(X=np.zeros((1, d)), labels=np.array([0]))
        rows = confidence_gap_study(net, data, 1)
        assert len(rows) == 1
        assert rows[0].p_max >= 1.0 - 2e-9
        assert rows[0].gap <= 0.05

    def test_zero_hessian_gap_exactly_zero(self):
        rng = np.random.default_rng(41)
        c, d = 5, 12
        W = rng.standard_normal((c, d))
        b = np.array([800.0, 0.0, 0.0, 0.0, 0.0])  # one-hot probs, nonzero grad at y=2
        net = Network(
            spec=NetworkSpec((LayerSpec(d, c, "identity"),)), weights=(W,), biases=(b,)
        )
        data = Dataset(X=np.zeros((1, d)), labels=np.array([2]))
        rows = confidence_gap_study(net, data, 1)
        assert rows[0].gap == 0.0

    def test_zero_gradient_sample_skipped(self, caplog):
        rng = np.random.default_rng(42)
        c, d = 5, 12
        W = rng.standard_normal((c, d))
        b = np.array([800.0, 0.0, 0.0, 0.0, 0.0])
        net = Network(
            spec=NetworkSpec((LayerSpec(d, c, "identity"),)), weights=(W,), biases=(b,)
        )
        # label 0 is the sure prediction: p - y = 0 exactly, so no direction
        data = Dataset(X=np.zeros((2, d)), labels=np.array([0, 2]))
        with caplog.at_level(logging.INFO, logger="casokit.analysis"):
            rows = confidence_gap_study(net, data, 2)
        assert [r.sample_id for r in rows] == [1]
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_maps_too_small_to_normalize_are_an_error(self, small_relu):
        # at c1 = 1e160 the maps' squared norms underflow, so no gap is finite
        net, data = small_relu
        with pytest.raises(ValueError, match=r"^sample 0: no finite gap, as a map's squared "
                                             r"norm underflows or overflows at c1 = 1e\+160$"):
            confidence_gap_study(net, data, data.n, c1=1e160)

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_any_c1_gives_gaps_in_range_or_a_value_error(self, small_relu, u):
        net, data = small_relu
        try:
            rows = confidence_gap_study(net, data, 4, c1=log_uniform(-300.0, 308.0, u))
        except ValueError:
            return
        assert rows and all(0.0 <= r.gap <= GAP_MAX for r in rows)

    def test_sample_count_clamped_to_dataset(self, trained_ten_class):
        net, held = trained_ten_class
        rows = confidence_gap_study(net, held, 10_000)
        assert len(rows) <= held.n


class TestAlignmentCurve:
    def test_high_class_count_aligned(self):
        pts = alignment_curve(512, (1000,), 1e-8, seed=0)
        assert pts[0].cosine >= 0.99
        assert pts[0].mass_ratio >= 0.99

    # at eps = 1e-150, 1 - eps rounds to 1, but g keeps its entry -eps
    @pytest.mark.parametrize("d,eps", [(64, 1e-6), (3, 1e-150)])
    def test_two_class_exact(self, d, eps):
        pts = alignment_curve(d, (2,), eps, seed=1)
        assert abs(pts[0].cosine - 1.0) <= 1e-12
        assert pts[0].mass_ratio == 1.0

    def test_low_confidence_recorded(self):
        pts = alignment_curve(64, (3,), 0.3, seed=5)
        assert 0.0 < pts[0].cosine < 0.999
        assert 0.0 < pts[0].mass_ratio <= 1.0

    def test_monotone_trend_in_classes(self):
        pts = alignment_curve(128, (10, 100, 1000), 1e-6, seed=0)
        cosines = [p.cosine for p in pts]
        assert all(a < b for a, b in zip(cosines, cosines[1:]))

    def test_underflowing_squares_are_an_error(self):
        # at eps = 1e-200, |g|^2 and the squared eigenvalues underflow
        with pytest.raises(ValueError, match=r"^c = 2: no finite cosine or mass ratio, as "
                                             r"\|g\|\^2 or the squared eigenvalues underflow at "
                                             r"eps = 1e-200$"):
            alignment_curve(3, (2, 10), 1e-200)

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(2, 12), d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_any_eps_gives_values_in_range_or_a_value_error(self, c, d, seed, u):
        try:
            (point,) = alignment_curve(d, (c,), log_uniform(-320.0, -np.log10(c), u), seed=seed)
        except ValueError:
            return
        assert 0.0 <= point.cosine <= COSINE_MAX
        assert 0.0 < point.mass_ratio <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            alignment_curve(32, (10,), 0.0)
        with pytest.raises(ValueError):
            alignment_curve(32, (3,), 0.4)  # eps >= 1/c
        with pytest.raises(ValueError, match="d must be positive"):
            alignment_curve(0, (10,), 1e-6)


class TestBruteForceOracle:
    def test_full_support_equals_closed_form(self):
        rng = np.random.default_rng(50)
        d, c = 8, 4
        W = rng.standard_normal((d, c))
        z = rng.standard_normal(c)
        p = np.exp(z - z.max())
        p /= p.sum()
        g = rng.standard_normal(d)
        H = W @ softmax_curvature(p) @ W.T
        handle = hessian_eig(W, p)
        lam2 = select_lambda2(handle.top_eigenvalue)
        res = brute_force_group_feature(g, H, lam2, d)
        expected = closed_form_caso(g, handle, lam2)
        assert np.allclose(res.delta, expected, rtol=1e-10, atol=1e-14)
        assert res.support == tuple(range(d))

    def test_zero_hessian_k_one_picks_top_coordinate(self):
        g = np.array([0.3, -2.5, 1.1, 0.2, -0.4, 0.9])
        lam2 = 10.0
        res = brute_force_group_feature(g, np.zeros((6, 6)), lam2, 1)
        assert res.support == (1,)
        expected = np.zeros(6)
        expected[1] = g[1] / (2.0 * lam2)
        assert np.allclose(res.delta, expected, rtol=1e-14)
        assert res.value == pytest.approx(g[1] ** 2 / (4.0 * lam2), rel=1e-14)

    def test_k_zero_returns_empty(self):
        res = brute_force_group_feature(np.ones(5), np.zeros((5, 5)), 10.0, 0)
        assert res.support == ()
        assert res.value == 0.0
        assert np.array_equal(res.delta, np.zeros(5))

    def test_dominates_l1_solutions(self):
        g, H, lam2, support = make_planted_instance(seed=2)
        k = len(support)
        oracle = brute_force_group_feature(g, H, lam2, k)
        grid = (1e-4, 1e-3, 1e-2, 5e-2, 1e-1)
        top = float(np.linalg.eigvalsh(H)[-1])
        for lam1 in grid:
            obj = ObjectiveSpec(
                gradient=g, hvp=lambda v: H @ v, lam1=lam1, lam2=lam2,
                curvature_bound=top,
            )
            res = fista_solve(obj, SolverConfig(iterations=100))
            if np.count_nonzero(res.delta) > k:
                continue
            delta = res.delta
            value = float(g @ delta + 0.5 * delta @ (H @ delta) - lam2 * delta @ delta)
            assert oracle.value >= value - 1e-12

    def test_planted_support_recovered_by_oracle_and_l1(self):
        g, H, lam2, support = make_planted_instance(d=12, support=(2, 5, 9), seed=0)
        oracle = brute_force_group_feature(g, H, lam2, 3)
        assert oracle.support == support
        assert support in l1_path(g, H, lam2).supports

    @pytest.mark.parametrize("d,support", [(8, (1, 4)), (12, (2, 5, 9)), (14, (0, 3, 7, 11))])
    def test_l1_path_matches_fista_reference(self, d, support):
        # FISTA at 100 iterations is the reference oracle; at each lam1 of
        # the grid the path's map, with FISTA's signs, must satisfy the KKT
        # fixed point D = soft(g + H D, lam1) / (2 lam2) to rounding
        for seed in range(4):
            g, H, lam2, _ = make_planted_instance(d=d, support=support, seed=seed)
            top = float(np.linalg.eigvalsh(H)[-1])
            path = l1_path(g, H, lam2)
            for lam1 in DEFAULT_LAMBDA1_GRID:
                obj = ObjectiveSpec(gradient=g, hvp=lambda v: H @ v, lam1=lam1, lam2=lam2,
                                    curvature_bound=top)
                ref = fista_solve(obj, SolverConfig(iterations=100)).delta
                path_support = tuple(np.flatnonzero(_path_map(path, lam1)))
                assert path_support == tuple(np.flatnonzero(ref != 0.0))
                S = list(path_support)
                D = np.zeros(d)
                D[S] = np.linalg.solve(2.0 * lam2 * np.eye(len(S)) - H[np.ix_(S, S)],
                                       g[S] - lam1 * np.sign(ref[S]))
                fixed = prox_soft_threshold(g + H @ D, lam1) / (2.0 * lam2)
                scale = max(float(np.abs(D).max()), np.finfo(np.float64).tiny)
                assert float(np.abs(D - fixed).max()) / scale <= 1e-12

    def test_validation(self):
        g = np.ones(4)
        with pytest.raises(DimensionError):
            brute_force_group_feature(g, np.zeros((3, 3)), 10.0, 1)
        with pytest.raises(ValueError):
            brute_force_group_feature(np.ones(15), np.zeros((15, 15)), 10.0, 1)
        H = np.eye(4)
        with pytest.raises(ValueError):
            brute_force_group_feature(g, H, 0.5, 1)
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            brute_force_group_feature(g, H, 10.0, -1)


def _path_map(path, lam1):
    """The path's maximizer at lam1, interpolated between its breakpoints."""
    knots = path.lam1[::-1]
    return np.array([np.interp(lam1, knots, path.deltas[::-1, j])
                     for j in range(path.deltas.shape[1])])


def _exact_map(g, H, lam2, lam1):
    """exact_solve's maximizer for the dense H, written as F C F^T with F = I."""
    eye = np.eye(len(g))
    return exact_solve(g, float(lam1), lam2, eye, H, np.linalg.inv(2.0 * lam2 * eye - H),
                       float(np.linalg.eigvalsh(H)[0])).delta


def _grid_supports(g, H, lam2):
    """exact_solve's supports on the default lambda1 grid: what oracle-check
    compared the oracle with before the exact path."""
    return [tuple(np.flatnonzero(_exact_map(g, H, lam2, lam1))) for lam1 in DEFAULT_LAMBDA1_GRID]


def _noisy_instance(d, k, seed, noise):
    """A planted instance of k coordinates, drawn from seed, with Gaussian
    noise of standard deviation noise added to every entry of g."""
    rng = np.random.default_rng(seed)
    support = tuple(int(i) for i in rng.choice(d, k, replace=False))
    g, H, lam2, _ = make_planted_instance(d=d, support=support, seed=seed)
    return g + noise * rng.standard_normal(d), H, lam2


def _assert_exact_path(g, H, lam2):
    """The path's map at every breakpoint is exact_solve's to 1e-12 of its
    scale, and its support on every piece is exact_solve's at the piece's
    midpoint. Returns the path."""
    path = l1_path(g, H, lam2)
    assert path.lam1[0] == np.abs(g).max() and path.lam1[-1] == 0.0
    assert np.all(np.diff(path.lam1) < 0.0)
    assert len(path.supports) == len(path.lam1) - 1 == len(path.deltas) - 1
    for lam1, delta in zip(path.lam1, path.deltas):
        ref = _exact_map(g, H, lam2, lam1)
        assert np.abs(delta - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    for hi, lo, support in zip(path.lam1, path.lam1[1:], path.supports):
        assert support == tuple(np.flatnonzero(_exact_map(g, H, lam2, (hi + lo) / 2.0)))
    return path


class TestL1Path:
    def test_default_instance(self):
        g, H, lam2, support = make_planted_instance()
        path = _assert_exact_path(g, H, lam2)
        assert len(path.supports) == 12
        assert path.supports[:3] == ((9,), (5, 9), support)
        assert path.lam1[2] == pytest.approx(0.6066, abs=5e-5)
        assert path.lam1[3] == pytest.approx(0.0017, abs=5e-5)
        assert path.supports[-1] == tuple(range(12))
        # lam1 = 0 is the ridge solve (2 lam2 I - H)^{-1} g
        assert np.allclose(path.deltas[-1], np.linalg.solve(2.0 * lam2 * np.eye(12) - H, g),
                           rtol=1e-12, atol=0.0)

    def test_ties_at_the_top_of_g_join_together(self):
        # coordinates 0 and 1 tie at max|g| = 1 and join at the first
        # breakpoint; with equal M_jj their joint direction keeps their signs
        g = np.array([1.0, -1.0, 0.5, 0.0, -0.2])
        H = np.diag([0.6, 0.6, 0.9, 0.3, 0.8])
        H[0, 1] = H[1, 0] = 0.1
        H[1, 2] = H[2, 1] = -0.05
        lam2 = select_lambda2(float(np.linalg.eigvalsh(H)[-1]))
        path = _assert_exact_path(g, H, lam2)
        assert path.lam1[0] == 1.0 and path.supports[0] == (0, 1)

    def test_signed_curvature(self):
        # an indefinite H, as a sigmoid net's exact curvature can be: M = 2
        # lam2 I - H stays positive definite and the path stays exact
        rng = np.random.default_rng(4)
        A = rng.standard_normal((9, 9))
        H = (A + A.T) / 2.0
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] < 0.0 < eigs[-1]
        g = rng.standard_normal(9)
        path = _assert_exact_path(g, H, select_lambda2(float(eigs[-1])))
        assert path.supports[-1] == tuple(range(9))

    def test_a_coordinate_leaves(self):
        # a lasso of design X with two correlated columns, written as
        # M = 2 lam2 I - H = X^T X: coordinate 0 joins first, leaves once
        # coordinate 1 has joined, and joins again at the end
        rng = np.random.default_rng(10)
        X = rng.standard_normal((8, 5))
        X[:, 1] = X[:, 0] + 0.3 * rng.standard_normal(8)
        g = X.T @ rng.standard_normal(8)
        path = _assert_exact_path(g, 2.0 * np.eye(5) - X.T @ X, 1.0)
        assert path.supports == ((0,), (0, 3), (0, 3, 4), (0, 1, 3, 4), (1, 3, 4),
                                 (1, 2, 3, 4), (0, 1, 2, 3, 4))

    def test_zero_gradient_has_no_pieces(self):
        path = l1_path(np.zeros(3), np.eye(3), 1.0)
        assert path.lam1.tolist() == [0.0] and path.supports == ()
        assert np.array_equal(path.deltas, np.zeros((1, 3)))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(10, 14), k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           noise=st.floats(0.0, 0.3))
    def test_every_grid_support_lies_on_the_path(self, d, k, seed, noise):
        g, H, lam2 = _noisy_instance(d, k, seed, noise)
        path = _assert_exact_path(g, H, lam2)
        assert {s for s in _grid_supports(g, H, lam2) if s} <= set(path.supports)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), shared=st.floats(0.0, 3.0))
    def test_lasso_designs(self, d, seed, shared):
        # M = X^T X + I/2 of columns sharing a common one: coordinates leave
        # and join again, as the planted instances' diagonal M never makes them
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d + 3, d)) + shared * rng.standard_normal((d + 3, 1))
        _assert_exact_path(X.T @ rng.standard_normal(d + 3), 1.5 * np.eye(d) - X.T @ X, 1.0)

    def test_the_path_finds_the_oracle_support_the_grid_misses(self):
        # the grid tops out at 5e-2, below the noise: its supports are wide
        g, H, lam2 = _noisy_instance(12, 3, 0, 0.3)
        oracle = brute_force_group_feature(g, H, lam2, 3)
        assert oracle.support == (6, 8, 9)
        assert oracle.support not in _grid_supports(g, H, lam2)
        assert oracle.support in _assert_exact_path(g, H, lam2).supports


class TestPlantedInstance:
    def test_structure(self):
        g, H, lam2, support = make_planted_instance(d=12, support=(2, 5, 9), seed=0)
        assert support == (2, 5, 9)
        assert set(np.flatnonzero(g)) == set(support)
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] > 0.0  # strictly diagonally dominant, hence PD
        assert np.allclose(H, H.T)
        assert lam2 > eigs[-1] / 2.0

    def test_deterministic(self):
        a = make_planted_instance(seed=7)
        b = make_planted_instance(seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("d,support,message", [
        (0, (), "d must be positive"),
        (12, (2, 12), "support index 12 outside dimension 12"),
        (12, (-1, 5), "support index -1 outside dimension 12"),
        (12, (2, 5, 2), "support index 2 is repeated"),
    ])
    def test_rejects_bad_dimension_or_support(self, d, support, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_planted_instance(d=d, support=support)


class TestSpearman:
    def test_hand_computed_values(self):
        assert spearman_rho(np.array([1.0, 2, 3]), np.array([3.0, 1, 2])) == pytest.approx(-0.5)
        assert spearman_rho(np.array([1.0, 2, 3]), np.array([10.0, 20, 30])) == pytest.approx(1.0)
        assert spearman_rho(np.array([1.0, 2, 3]), np.array([5.0, 1, -2])) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        rho = spearman_rho(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert rho == pytest.approx(1.5 / (np.sqrt(1.5) * np.sqrt(2.0)))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(60)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        assert spearman_rho(a, b) == spearman_rho(np.exp(a), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_an_error(self, bad):
        for a, b in (([1.0, 2, 3], [0.5, bad, 0.1]), ([bad, 2, 3], [0.5, 0.2, 0.1])):
            with pytest.raises(ValueError, match="^inputs must be finite$"):
                spearman_rho(np.array(a), np.array(b))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300]) | st.floats(allow_nan=False),
                    min_size=1, max_size=30))
    def test_ranks_average_over_ties(self, values):
        v = np.array(values)
        below = (v[None, :] < v[:, None]).sum(axis=1)
        tied = (v[None, :] == v[:, None]).sum(axis=1)
        assert np.array_equal(analysis._rankdata(v), below + (tied + 1) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            spearman_rho(np.ones(5), np.arange(5.0))
        with pytest.raises(DimensionError):
            spearman_rho(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            spearman_rho(np.array([1.0]), np.array([2.0]))
