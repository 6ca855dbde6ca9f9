"""Solver tests: lambda2 rule, prox, FISTA, and closed-form cross-checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from casokit import (
    DimensionError,
    ObjectiveSpec,
    SolverConfig,
    closed_form_cafo,
    closed_form_caso,
    fista_solve,
    hessian_eig,
    prox_soft_threshold,
    select_lambda2,
    smooth_gradient,
    softmax_curvature,
)
from casokit.solver import LAMBDA2_MAX


def random_instance(rng, d=50, c=10):
    W = rng.standard_normal((d, c))
    z = rng.standard_normal(c)
    p = np.exp(z - z.max())
    p /= p.sum()
    g = rng.standard_normal(d)
    handle = hessian_eig(W, p)
    lam2 = select_lambda2(handle.top_eigenvalue)
    return g, handle, lam2


def caso_objective(g, handle, lam2, lam1=0.0):
    return ObjectiveSpec(
        gradient=g,
        hvp=handle.hvp,
        lam1=lam1,
        lam2=lam2,
        curvature_bound=handle.top_eigenvalue,
    )


class TestSelectLambda2:
    def test_examples(self):
        assert select_lambda2(20.0) == 20.0
        assert select_lambda2(0.0) == 10.0
        assert select_lambda2(1e6) == 500010.0

    def test_large_bound_passes_concavity_guard(self):
        # the lam2 the rule picks must satisfy the construction-time check
        g = np.ones(3)
        lam2 = select_lambda2(1e6)
        obj = ObjectiveSpec(
            gradient=g,
            hvp=lambda v: 1e6 * v,
            lam1=0.0,
            lam2=lam2,
            curvature_bound=1e6,
        )
        assert obj.lam2 > obj.curvature_bound / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            select_lambda2(-1.0)
        with pytest.raises(ValueError):
            select_lambda2(5.0, c1=0.0)
        with pytest.raises(ValueError):
            select_lambda2(5.0, c1=-2.0)
        for c1 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                select_lambda2(5.0, c1=c1)

    def test_c1_lost_to_rounding_is_an_error(self):
        # L/2 = 18.3 has an ulp of 3.6e-15: c1 = 3e-15 still moves lam2 by
        # one ulp, c1 = 1e-15 and below leave it at L/2
        assert select_lambda2(36.6, c1=3e-15) == np.nextafter(18.3, np.inf)
        for c1 in (1e-15, 1e-20, 1e-100):
            with pytest.raises(ValueError, match=rf"^c1 = {c1!r} is lost to rounding in "
                                                 r"lambda2 = L/2 \+ c1 at L = 36\.6 \(raise c1\)$"):
                select_lambda2(36.6, c1=c1)
        # a c1 far above L keeps lam2 - L/2 within rounding of it
        assert select_lambda2(1e-300, c1=1e-3) == 1e-3

    def test_lambda2_past_its_limit_is_an_error(self):
        # past LAMBDA2_MAX the solvers' steps overflow; a curvature bound can
        # carry lam2 past it too
        assert select_lambda2(0.0, c1=LAMBDA2_MAX) == LAMBDA2_MAX
        for bound, c1 in ((0.0, np.nextafter(LAMBDA2_MAX, np.inf)), (0.0, 1e308),
                          (LAMBDA2_MAX, LAMBDA2_MAX)):
            with pytest.raises(ValueError, match=r"^lambda2 = .* exceeds 2\.24711641857\d*e\+307,"):
                select_lambda2(bound, c1=c1)


class TestObjectiveSpec:
    def test_rejects_weak_ridge_when_curved(self):
        g = np.ones(4)
        with pytest.raises(ValueError):
            ObjectiveSpec(
                gradient=g,
                hvp=lambda v: 10.0 * v,
                lam1=0.0,
                lam2=5.0,
                curvature_bound=10.0,
            )

    def test_no_curvature_skips_guard(self):
        obj = ObjectiveSpec(gradient=np.ones(4), hvp=None, lam1=0.0, lam2=0.01)
        assert obj.lam2 == 0.01

    def test_parameter_validation(self):
        g = np.ones(4)
        with pytest.raises(ValueError):
            ObjectiveSpec(gradient=g, hvp=None, lam1=-0.1, lam2=1.0)
        with pytest.raises(ValueError):
            ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=0.0)
        with pytest.raises(DimensionError):
            ObjectiveSpec(gradient=np.ones((2, 2)), hvp=None, lam1=0.0, lam2=1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ObjectiveSpec(gradient=g, hvp=None, lam1=bad, lam2=1.0)
            with pytest.raises(ValueError, match="finite"):
                ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=bad)


class TestSmoothGradient:
    def test_at_zero_returns_g(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(9)
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=10.0)
        out = smooth_gradient(obj, np.zeros(9))
        assert np.array_equal(out, g)

    def test_cafo_stationary_at_closed_form(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(9)
        lam2 = 10.0
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=lam2)
        resid = smooth_gradient(obj, g / (2.0 * lam2))
        assert np.max(np.abs(resid)) <= 1e-12

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        g, handle, lam2 = random_instance(rng, d=12, c=5)
        obj = caso_objective(g, handle, lam2)
        delta = rng.standard_normal(12)
        grad = smooth_gradient(obj, delta)
        r = 1e-6
        fd = np.zeros(12)
        for i in range(12):
            e = np.zeros(12)
            e[i] = r
            fd[i] = (obj.smooth_value(delta + e) - obj.smooth_value(delta - e)) / (2 * r)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * (np.linalg.norm(grad) + 1.0)


class TestProx:
    def test_scalar_examples(self):
        assert prox_soft_threshold(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
        assert prox_soft_threshold(np.array([-0.5]), 0.2)[0] == pytest.approx(-0.3)

    def test_dead_zone_is_exact_positive_zero(self):
        out = prox_soft_threshold(np.array([0.1, -0.15, 0.2, -0.2]), 0.2)
        assert np.array_equal(out, np.zeros(4))
        assert not np.signbit(out).any()

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        assert np.array_equal(prox_soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_soft_threshold(np.array([1.0]), -0.1)

    def test_property_suite(self):
        rng = np.random.default_rng(4)
        n = 10_000
        x = rng.uniform(-3.0, 3.0, size=n)
        t = rng.uniform(0.0, 1.0)
        out = prox_soft_threshold(x, t)
        # shrinkage: never grows magnitude, removes exactly min(|x|, t)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)
        assert np.allclose(np.abs(x) - np.abs(out), np.minimum(np.abs(x), t))
        # sign preserved or killed
        assert np.all((out == 0.0) | (np.sign(out) == np.sign(x)))
        # 1-Lipschitz on random pairs
        y = rng.uniform(-3.0, 3.0, size=n)
        out_y = prox_soft_threshold(y, t)
        assert np.all(np.abs(out - out_y) <= np.abs(x - y) + 1e-15)

    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
        t=st.floats(0.0, 1e300),
    )
    def test_bitwise_equal_to_piecewise_form(self, x, t):
        # the branchwise definition, with 0.0 in the dead zone; np.where
        # evaluates both branches, which may overflow where unused
        with np.errstate(over="ignore"):
            ref = np.where(x > t, x - t, np.where(x < -t, x + t, 0.0))
        assert prox_soft_threshold(x, t).tobytes() == ref.tobytes()

    def test_boundary_cases_bitwise(self):
        x = np.array([0.2, -0.2, 0.0, -0.0, 0.3, -0.3, 5e-324, -5e-324])
        for t in (0.2, 0.0):
            ref = np.where(x > t, x - t, np.where(x < -t, x + t, 0.0))
            assert prox_soft_threshold(x, t).tobytes() == ref.tobytes()

    def test_per_row_threshold_column(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 30))
        t = np.array([[0.0], [0.1], [0.5], [3.0]])
        out = prox_soft_threshold(x, t)
        for i in range(4):
            assert out[i].tobytes() == prox_soft_threshold(x[i], t[i, 0]).tobytes()
        assert not out[3].any()
        with pytest.raises(ValueError):
            prox_soft_threshold(x, -t)


class TestFista:
    def test_cafo_closed_form_default_budget(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(16)
        lam2 = 10.0
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=lam2)
        res = fista_solve(obj)
        expected = closed_form_cafo(g, lam2)
        assert np.max(np.abs(res.delta - expected)) <= 1e-10
        assert res.iterations_used == 10
        assert not res.backtrack_exhausted

    def test_large_lambda1_gives_exact_zero(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(16)
        obj = ObjectiveSpec(
            gradient=g, hvp=None, lam1=float(np.abs(g).max()), lam2=10.0
        )
        res = fista_solve(obj)
        assert np.array_equal(res.delta, np.zeros(16))
        assert res.nnz_trace == (0,) * 10

    def test_moderate_lambda1_gives_nonzero(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(16)
        obj = ObjectiveSpec(
            gradient=g, hvp=None, lam1=0.5 * float(np.abs(g).max()), lam2=10.0
        )
        res = fista_solve(obj)
        assert np.count_nonzero(res.delta) > 0

    def test_selective_zeros_match_analytic_pattern(self):
        # CAFO with lam1: optimum is prox(g, lam1) / (2 lam2)
        g = np.array([3.0, 0.1, -2.0, 0.05])
        lam1, lam2 = 1.0, 10.0
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=lam1, lam2=lam2)
        res = fista_solve(obj, SolverConfig(iterations=100))
        expected = prox_soft_threshold(g, lam1) / (2.0 * lam2)
        assert np.max(np.abs(res.delta - expected)) <= 1e-10
        assert res.delta[1] == 0.0 and res.delta[3] == 0.0
        assert not np.signbit(res.delta[1]) and not np.signbit(res.delta[3])
        assert np.count_nonzero(res.delta) == 2
        assert res.nnz_trace[-1] == 2

    def test_caso_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g, handle, lam2 = random_instance(rng, d=50, c=10)
            obj = caso_objective(g, handle, lam2)
            res = fista_solve(obj, SolverConfig(iterations=100))
            ref = closed_form_caso(g, handle, lam2)
            gap = obj.value(ref) - res.objective_value
            assert gap <= 1e-8 * max(1.0, abs(obj.value(ref)))
            cos = res.delta @ ref / (np.linalg.norm(res.delta) * np.linalg.norm(ref))
            assert cos >= 0.9999

    def test_convergence_rate(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g, handle, lam2 = random_instance(rng, d=30, c=6)
            obj = caso_objective(g, handle, lam2)
            best = obj.value(closed_form_caso(g, handle, lam2))
            gap8 = best - fista_solve(obj, SolverConfig(iterations=8)).objective_value
            gap32 = best - fista_solve(obj, SolverConfig(iterations=32)).objective_value
            assert gap32 >= -1e-12 * max(1.0, abs(best))
            assert gap32 <= 1.5 * gap8 / 4.0 + 1e-12 * max(1.0, abs(best))

    def test_best_iterate_monotone_in_budget(self):
        rng = np.random.default_rng(10)
        g, handle, lam2 = random_instance(rng, d=20, c=5)
        obj = caso_objective(g, handle, lam2, lam1=1e-3)
        short = fista_solve(obj, SolverConfig(iterations=5))
        long = fista_solve(obj, SolverConfig(iterations=20))
        assert long.objective_value >= short.objective_value
        # iteration sequence is deterministic, so traces are prefix-stable
        assert long.objective_trace[:5] == short.objective_trace
        assert long.step_trace[:5] == short.step_trace
        assert long.nnz_trace[:5] == short.nnz_trace

    def test_trace_lengths_and_consistency(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal(8)
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.01, lam2=10.0)
        res = fista_solve(obj, SolverConfig(iterations=7))
        assert len(res.objective_trace) == 7
        assert len(res.step_trace) == 7
        assert len(res.nnz_trace) == 7
        assert res.objective_value == max(
            max(res.objective_trace), obj.value(np.zeros(8))
        )
        # step sizes only ever shrink
        steps = np.array(res.step_trace)
        assert np.all(steps[1:] <= steps[:-1])

    def test_backtrack_exhaustion_flagged(self):
        # alpha floor 0.1 * 0.5^20 = 9.5e-8 can never reach 1/(2 lam2) = 5e-8
        rng = np.random.default_rng(12)
        g = rng.standard_normal(6)
        obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=1e7)
        res = fista_solve(obj)
        assert res.backtrack_exhausted
        assert np.all(np.isfinite(res.delta))

    def test_determinism(self):
        rng = np.random.default_rng(13)
        g, handle, lam2 = random_instance(rng, d=25, c=6)
        obj = caso_objective(g, handle, lam2, lam1=1e-3)
        a = fista_solve(obj, SolverConfig(iterations=40))
        b = fista_solve(obj, SolverConfig(iterations=40))
        assert np.array_equal(a.delta, b.delta)
        assert a.objective_trace == b.objective_trace

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SolverConfig(iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(backtrack_decay=1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_backtracks=-1)


class TestClosedForms:
    def test_cafo_trivials(self):
        assert np.array_equal(closed_form_cafo(np.zeros(5), 10.0), np.zeros(5))
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(closed_form_cafo(g, 0.5), g)
        with pytest.raises(ValueError):
            closed_form_cafo(g, 0.0)

    def test_caso_zero_hessian_reduces_to_cafo(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal(10)
        W = rng.standard_normal((10, 4))
        p = np.zeros(4)
        p[2] = 1.0  # one-hot: A = 0, empty spectrum
        handle = hessian_eig(W, p)
        assert handle.eigenvalues.size == 0
        out = closed_form_caso(g, handle, 10.0)
        assert np.array_equal(out, closed_form_cafo(g, 10.0))

    def test_caso_dense_solve_oracle(self):
        rng = np.random.default_rng(15)
        d, c = 20, 6
        W = rng.standard_normal((d, c))
        z = rng.standard_normal(c)
        p = np.exp(z - z.max())
        p /= p.sum()
        g = rng.standard_normal(d)
        handle = hessian_eig(W, p)
        lam2 = select_lambda2(handle.top_eigenvalue)
        H = W @ softmax_curvature(p) @ W.T
        expected = np.linalg.solve(2.0 * lam2 * np.eye(d) - H, g)
        out = closed_form_caso(g, handle, lam2)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_caso_rank_one_parallel_scale(self):
        from casokit.hessian import HessianHandle

        rng = np.random.default_rng(16)
        d = 12
        g = rng.standard_normal(d)
        u = g / np.linalg.norm(g)
        mu = 3.7
        handle = HessianHandle(
            B=np.sqrt(mu) * u[:, None],
            eigenvalues=np.array([mu]),
            eigenvectors=u[:, None],
        )
        lam2 = 10.0
        out = closed_form_caso(g, handle, lam2)
        expected = g / (2.0 * lam2 - mu)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_caso_rejects_weak_ridge(self):
        rng = np.random.default_rng(17)
        g, handle, _ = random_instance(rng, d=15, c=5)
        with pytest.raises(ValueError):
            closed_form_caso(g, handle, handle.top_eigenvalue / 2.0)

    def test_caso_dimension_check(self):
        rng = np.random.default_rng(18)
        g, handle, lam2 = random_instance(rng, d=15, c=5)
        with pytest.raises(DimensionError):
            closed_form_caso(np.ones(7), handle, lam2)

    def test_fista_cross_check_over_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(4, 40))
            g = rng.standard_normal(d)
            lam2 = float(rng.uniform(1.0, 50.0))
            obj = ObjectiveSpec(gradient=g, hvp=None, lam1=0.0, lam2=lam2)
            res = fista_solve(obj, SolverConfig(iterations=100))
            assert np.max(np.abs(res.delta - closed_form_cafo(g, lam2))) <= 1e-10
