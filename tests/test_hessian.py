import numpy as np
import pytest
from conftest import fd_loss_hessian, random_relu_net

from casokit import hessian as hs
from casokit import netcore as nc
from casokit.errors import DimensionError, KinkWarning


def random_probs(rng, c):
    p = rng.uniform(0.05, 1.0, c)
    return p / p.sum()


def dense_hessian(W, p):
    A = np.diag(p) - np.outer(p, p)
    return W @ A @ W.T


def rank_one_mu(g, eps, c):
    """The surrogate's eigenvalue ||g||^2 / (eps (c-1))."""
    return float(g @ g) / (eps * (c - 1))


def test_softmax_curvature_half_half():
    A = hs.softmax_curvature([0.5, 0.5])
    assert np.allclose(A, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_softmax_curvature_onehot_zero():
    A = hs.softmax_curvature([1.0, 0.0])
    assert np.abs(A).max() == 0.0


def test_softmax_curvature_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = int(rng.integers(2, 12))
        p = random_probs(rng, c)
        A = hs.softmax_curvature(p)
        assert np.abs(A - A.T).max() <= 1e-14
        assert np.abs(A.sum(axis=1)).max() <= 1e-12
        # diagonal dominance holds with equality (rows sum to zero)
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        assert np.abs(np.abs(np.diag(A)) - off).max() <= 1e-12
        assert float(np.linalg.eigvalsh(A).min()) >= -1e-12


def test_softmax_curvature_explicit_three_class():
    A = hs.softmax_curvature([0.7, 0.2, 0.1])
    assert np.abs(A.sum(axis=1)).max() <= 1e-12
    assert float(np.linalg.eigvalsh(A).min()) >= -1e-12


def test_softmax_curvature_validation():
    with pytest.raises(ValueError):
        hs.softmax_curvature([0.5, 0.6])
    with pytest.raises(ValueError):
        hs.softmax_curvature([-0.1, 1.1])
    with pytest.raises(DimensionError):
        hs.softmax_curvature([1.0])


def test_softmax_factor_reproduces_curvature():
    rng = np.random.default_rng(3)
    cases = [random_probs(rng, c) for c in (2, 3, 10)]
    cases.append(np.array([0.6, 0.0, 0.3, 0.1]))
    for p in cases:
        L = hs.softmax_factor(p)
        assert L.shape == (p.size, p.size)
        assert np.abs(L @ L.T - hs.softmax_curvature(p)).max() <= 1e-15
    # a zero probability gives an exactly zero column
    assert not hs.softmax_factor(cases[-1])[:, 1].any()
    # a stack of vectors factors row by row
    P = np.stack([random_probs(rng, 6) for _ in range(3)])
    for p, L in zip(P, hs.softmax_factor(P)):
        assert np.array_equal(L, hs.softmax_factor(p))
    assert not hs.softmax_factor(np.array([0.0, 1.0, 0.0])).any()


def test_hessian_eig_small_explicit():
    W = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    p = np.array([0.5, 0.5])
    h = hs.hessian_eig(W, p)
    assert h.eigenvalues.shape == (1,)
    w_dense, V_dense = np.linalg.eigh(dense_hessian(W, p))
    assert h.eigenvalues[0] == pytest.approx(w_dense[-1], rel=1e-12)
    assert abs(h.eigenvectors[:, 0] @ V_dense[:, -1]) == pytest.approx(1.0, abs=1e-12)


def test_hessian_eig_matches_dense_oracle():
    # d >= c reads the spectrum off B^T B, d < c off B B^T with its own
    # eigenvectors
    rng = np.random.default_rng(5)
    for d, c in ((50, 10), (6, 15)):
        W = rng.standard_normal((d, c))
        p = random_probs(rng, c)
        h = hs.hessian_eig(W, p)
        assert h.eigenvalues.size <= min(d, c - 1)
        assert np.all(np.diff(h.eigenvalues) <= 0)

        w_dense, V_dense = np.linalg.eigh(dense_hessian(W, p))
        w_dense = w_dense[::-1]
        V_dense = V_dense[:, ::-1]
        m = h.eigenvalues.size
        assert m >= min(d, c - 1)
        assert np.abs(h.eigenvalues - w_dense[:m]).max() <= 1e-8 * w_dense[0]
        for j in range(m):
            assert abs(h.eigenvectors[:, j] @ V_dense[:, j]) >= 1.0 - 1e-8

        # orthonormal columns
        G = h.eigenvectors.T @ h.eigenvectors
        assert np.abs(G - np.eye(m)).max() <= 1e-8

        # handle hvp equals the assembled product
        H = dense_hessian(W, p)
        for _ in range(5):
            v = rng.standard_normal(d)
            hv = h.hvp(v)
            ref = H @ v
            assert np.linalg.norm(hv - ref) <= 1e-10 * np.linalg.norm(ref)


def test_hessian_eig_onehot_empty():
    rng = np.random.default_rng(6)
    W = rng.standard_normal((8, 3))
    h = hs.hessian_eig(W, np.array([0.0, 1.0, 0.0]))
    assert h.eigenvalues.size == 0
    assert h.eigenvectors.shape == (8, 0)
    assert h.top_eigenvalue == 0.0
    assert np.abs(h.hvp(np.ones(8))).max() == 0.0


def test_hvp_closed_form_null_space():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((10, 3))
    p = random_probs(rng, 3)
    # v orthogonal to every column of W
    Q, _ = np.linalg.qr(W, mode="complete")
    v = Q[:, 5]
    assert np.abs(W.T @ v).max() <= 1e-12
    assert np.abs(hs.hvp_closed_form(W, p, v)).max() <= 1e-12


def test_hvp_closed_form_top_eigenvector():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((30, 6))
    p = random_probs(rng, 6)
    h = hs.hessian_eig(W, p)
    u1 = h.eigenvectors[:, 0]
    out = hs.hvp_closed_form(W, p, u1)
    assert np.linalg.norm(out - h.eigenvalues[0] * u1) <= 1e-8 * h.eigenvalues[0]


def test_hvp_closed_form_matches_dense():
    rng = np.random.default_rng(9)
    W = rng.standard_normal((50, 10))
    p = random_probs(rng, 10)
    H = dense_hessian(W, p)
    for _ in range(10):
        v = rng.standard_normal(50)
        ref = H @ v
        assert np.linalg.norm(hs.hvp_closed_form(W, p, v) - ref) <= 1e-10 * np.linalg.norm(ref)
    with pytest.raises(DimensionError):
        hs.hvp_closed_form(W, p, np.ones(49))


def test_hvp_finite_diff_matches_closed_form_on_relu():
    rng = np.random.default_rng(10)
    for _ in range(10):
        net = random_relu_net(rng)
        x = nc.sample_kink_safe(net, rng)
        y = int(rng.integers(net.num_classes))
        trace = nc.forward(net, x, y)
        lin = nc.local_linearization(net, x)
        v = rng.standard_normal(net.input_dim)
        ref = hs.hvp_closed_form(lin.W, trace.probs, v)
        out = hs.hvp_finite_diff(net, x, y, v)
        assert np.linalg.norm(out - ref) <= 1e-4 * max(np.linalg.norm(ref), 1e-12)


def test_hvp_finite_diff_sigmoid_vs_fd_hessian():
    spec = nc.NetworkSpec(
        (nc.LayerSpec(5, 6, "sigmoid"), nc.LayerSpec(6, 3, "identity"))
    )
    net = nc.init_network(spec, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    H = fd_loss_hessian(net, x, 0)
    v = rng.standard_normal(5)
    ref = H @ v
    out = hs.hvp_finite_diff(net, x, 0, v)
    assert np.linalg.norm(out - ref) <= 1e-3 * np.linalg.norm(ref)


def test_hvp_finite_diff_scales_with_v():
    rng = np.random.default_rng(11)
    net = random_relu_net(rng)
    x = nc.sample_kink_safe(net, rng)
    v = rng.standard_normal(net.input_dim)
    a = hs.hvp_finite_diff(net, x, 1, v)
    b = hs.hvp_finite_diff(net, x, 1, 3.0 * v)
    assert np.allclose(3.0 * a, b, rtol=1e-12, atol=1e-14)


def test_hvp_finite_diff_zero_direction_errors():
    rng = np.random.default_rng(12)
    net = random_relu_net(rng)
    with pytest.raises(ValueError):
        hs.hvp_finite_diff(net, np.zeros(8), 0, np.zeros(8))


def test_hvp_finite_diff_warns_at_kink():
    spec = nc.NetworkSpec((nc.LayerSpec(2, 2, "relu"), nc.LayerSpec(2, 2, "identity")))
    net = nc.Network(spec, (np.eye(2), np.eye(2)), (np.zeros(2), np.zeros(2)))
    x = np.array([0.0, 1.0])  # first pre-activation sits exactly on the kink
    with pytest.warns(KinkWarning):
        hs.hvp_finite_diff(net, x, 0, np.array([1.0, 0.0]))


def test_largest_eigenvalue_zero_operator():
    assert hs.largest_eigenvalue(lambda v: np.zeros_like(v), 6) == 0.0


def test_largest_eigenvalue_matches_spectrum():
    rng = np.random.default_rng(13)
    W = rng.standard_normal((40, 8))
    p = random_probs(rng, 8)
    h = hs.hessian_eig(W, p)
    est = hs.largest_eigenvalue(lambda v: hs.hvp_closed_form(W, p, v), 40, iters=50)
    assert est == pytest.approx(h.top_eigenvalue, rel=1e-4)


def test_largest_eigenvalue_deterministic():
    rng = np.random.default_rng(14)
    W = rng.standard_normal((20, 5))
    p = random_probs(rng, 5)
    op = lambda v: hs.hvp_closed_form(W, p, v)
    assert hs.largest_eigenvalue(op, 20, seed=3) == hs.largest_eigenvalue(op, 20, seed=3)


def test_rel_error_exact_rank_one_is_zero():
    # a factor whose H = B B^T is exactly mu qq^T with q parallel to g
    rng = np.random.default_rng(15)
    g = rng.standard_normal(20)
    eps, c = 1e-3, 4
    B = (g / np.sqrt(eps * (c - 1)))[:, None]
    err = hs.rel_error(B, g, rank_one_mu(g, eps, c))
    assert err <= 1e-8


def test_rel_error_two_class_closed_form():
    # at c = 2, H = (1-eps) eps (w1-w2)(w1-w2)^T while the surrogate drops
    # the eps^2 term, so the error is exactly eps/(1-eps)
    rng = np.random.default_rng(15)
    W = rng.standard_normal((20, 2))
    eps = 1e-5
    p = np.array([1.0 - eps, eps])
    g = W @ (p - np.array([1.0, 0.0]))
    h = hs.hessian_eig(W, p)
    err = hs.rel_error(h.B, g, rank_one_mu(g, eps, 2))
    assert err == pytest.approx(eps / (1.0 - eps), rel=1e-3)


def test_rel_error_matches_dense():
    rng = np.random.default_rng(16)
    W = rng.standard_normal((30, 6))
    eps = 1e-3
    p = np.full(6, eps)
    p[0] = 1.0 - 5 * eps
    y = np.zeros(6)
    y[0] = 1.0
    g = W @ (p - y)
    h = hs.hessian_eig(W, p)
    err = hs.rel_error(h.B, g, rank_one_mu(g, eps, 6))
    H = dense_hessian(W, p)
    ref = np.linalg.norm(H - np.outer(g, g) / (eps * 5)) / np.linalg.norm(H)
    assert err == pytest.approx(ref, abs=1e-10)


def test_rel_error_zero_hessian_errors():
    h = hs.hessian_eig(np.zeros((5, 3)), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="^Hessian has zero Frobenius norm$"):
        hs.rel_error(h.B, np.ones(5), rank_one_mu(np.ones(5), 0.1, 3))


@pytest.mark.parametrize("power,top", [
    (-340, r"1\.99344e-205"),  # squared entries 2^-1360 underflow to 0
    (-260, r"2\.91341e-157"),  # squared norm 3 * 2^-1040, a subnormal
])
def test_rel_error_names_an_underflowing_norm(power, top):
    # H = 2^(2 power) I is nonzero, but its squared Frobenius norm falls
    # below the smallest normal float, where it has lost its precision
    B = np.eye(3) * 2.0 ** power
    with pytest.raises(ValueError, match=r"^the Hessian's squared Frobenius norm underflows, "
                                         rf"though its largest entry is {top}$"):
        hs.rel_error(B, np.ones(3), rank_one_mu(np.ones(3), 0.1, 3))


@pytest.mark.parametrize("mu", [-1.0, np.inf, np.nan])
def test_rel_error_refuses_a_negative_or_nonfinite_mu(mu):
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        hs.rel_error(np.eye(3), np.ones(3), mu)


def test_rel_error_refuses_a_gradient_of_another_length():
    with pytest.raises(DimensionError):
        hs.rel_error(np.eye(3), np.ones(4), 1.0)


def test_rank_one_error_improves_with_classes():
    # a fresh confident linear model at c = 1000 beats the recorded c = 10
    # error from the same study configuration
    rng = np.random.default_rng(17)
    d, c, p0 = 512, 1000, 0.9999
    eps = (1.0 - p0) / (c - 1)
    W = rng.standard_normal((d, c))
    p = np.full(c, eps)
    p[0] = p0
    y = np.zeros(c)
    y[0] = 1.0
    g = W @ (p - y)
    h = hs.hessian_eig(W, p)
    err = hs.rel_error(h.B, g, rank_one_mu(g, eps, c))
    assert err < 0.2849715355867293  # the c = 10 study value


def test_psd_rayleigh_property():
    rng = np.random.default_rng(18)
    for _ in range(10):
        W = rng.standard_normal((25, int(rng.integers(2, 9))))
        p = random_probs(rng, W.shape[1])
        h = hs.hessian_eig(W, p)
        top = max(h.top_eigenvalue, 1e-300)
        V = rng.standard_normal((200, 25))
        for v in V:
            q = float(v @ hs.hvp_closed_form(W, p, v)) / float(v @ v)
            assert q >= -1e-10 * top


def test_assembled_hessian_matches_fd_small():
    rng = np.random.default_rng(19)
    net = random_relu_net(rng, d=10, hidden=14, c=5)
    x = nc.sample_kink_safe(net, rng)
    y = int(rng.integers(5))
    trace = nc.forward(net, x, y)
    lin = nc.local_linearization(net, x)
    H = dense_hessian(lin.W, trace.probs)
    H_fd = fd_loss_hessian(net, x, y)
    denom = max(float(np.abs(H_fd).max()), 1e-12)
    assert np.abs(H - H_fd).max() <= 1e-4 * denom
