"""Closed-form input Hessian of the cross-entropy loss.

For a locally linear network with logits W^T x + b the loss Hessian in
input space is

    H = W A W^T,        A = diag(p) - p p^T,

where p are the class probabilities. A is positive semidefinite with rows
summing to zero, so H never needs to be materialized: the closed-form
factor L = diag(sqrt p) - p sqrt(p)^T satisfies A = L L^T, so H = B B^T
with B = W L, and every spectral quantity of H can be read off the smaller
Gram matrix (factor_gram), B^T B (c x c) or B B^T (d x d when d < c), as
hessian_eig and interpret.curvature_models do. Smooth activations
add a signed term J_l^T diag(da_l * act''(z_l)) J_l per layer (Bishop 1992),
J_l the input Jacobian of z_l and da_l the loss cotangent of a_l.

In the high-confidence regime p = [1-(c-1)eps, eps, ..., eps] the Hessian
collapses toward the rank-one surrogate g g^T / (eps (c-1)) with g the loss
gradient; rel_error quantifies that collapse from B alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._record import Record
from .errors import DimensionError, KinkWarning
from .netcore import KINK_EPS, _kink_gap, _row_loss_gradient

# relative floor for retained eigenvalues of H
HESSIAN_EIG_FLOOR = 1e-10
# the smallest normal float: a sum of squares below it has lost its precision
_TINY = np.finfo(np.float64).tiny


def _probability_vector(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise DimensionError("p must be a probability vector over >= 2 classes")
    if not np.isfinite(p).all() or p.min() < 0.0:
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def softmax_curvature(p):
    """The c x c softmax curvature A = diag(p) - p p^T, after validating p
    as a probability vector."""
    p = _probability_vector(p)
    return np.diag(p) - np.outer(p, p)


def softmax_factor(p):
    """The closed-form factor L = diag(sqrt p) - p sqrt(p)^T, L L^T = A.

    p is one probability vector (c,) or a stack (..., c); L has shape
    (..., c, c). Column j of L is sqrt(p_j) (e_j - p). No
    eigendecomposition is involved: a one-hot p gives exactly L = 0, and a
    zero probability an exactly zero column.
    """
    rootp = np.sqrt(p)
    L = rootp[..., None, :] * -p[..., :, None]
    c = L.shape[-1]
    L[..., np.arange(c), np.arange(c)] += rootp
    return L


def factor_gram(B):
    """The smaller Gram matrix of a factor (d, r) or stack (k, d, r): the
    r x r matrix B^T B when r <= d, else the d x d matrix B B^T."""
    Bt = np.swapaxes(B, -1, -2)
    return Bt @ B if B.shape[-1] <= B.shape[-2] else B @ Bt


class HessianHandle(Record):
    """Factored spectral view of H = B B^T.

    eigenvalues holds the retained eigenvalues of H in descending order
    (everything above HESSIAN_EIG_FLOOR times the largest); eigenvectors
    is the matching orthonormal (d, m) block. hvp applies H exactly
    through B, which keeps directions the floor dropped.
    """

    B: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.B.shape[0]

    @property
    def top_eigenvalue(self):
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0

    def hvp(self, v):
        return self.B @ (self.B.T @ v)


def hessian_eig(W, p):
    """Eigendecompose H = W A W^T through B = W L, with L the closed-form
    softmax_factor of the validated probabilities p.

    H = B B^T shares its nonzero eigenvalues with the smaller Gram matrix
    of B (factor_gram), and only that is decomposed. For c <= d the
    input-space eigenvectors are recovered as U = B V / sqrt(w); for c > d
    the Gram matrix is H itself. Eigenvalues are clamped at 0, and those
    not above HESSIAN_EIG_FLOOR times the largest are dropped.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise DimensionError("W must be (d, c)")
    p = _probability_vector(p)
    if W.shape[1] != p.shape[0]:
        raise DimensionError(
            f"W has {W.shape[1]} columns but p has {p.shape[0]} entries"
        )
    B = W @ softmax_factor(p)
    w, V = np.linalg.eigh(factor_gram(B))
    w = np.maximum(w, 0.0)
    keep = w > HESSIAN_EIG_FLOOR * w[-1]
    w, V = w[keep][::-1], V[:, keep][:, ::-1]
    U = V if B.shape[1] > B.shape[0] else (B @ V) / np.sqrt(w)
    return HessianHandle(B=B, eigenvalues=w, eigenvectors=U)


def hvp_closed_form(W, p, v):
    """Apply H = W A W^T to v in O(dc) without forming A or H."""
    W = np.asarray(W, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != W.shape[0]:
        raise DimensionError("v length does not match W rows")
    u = W.T @ v
    Au = p * u - p * (p @ u)
    return W @ Au


def hvp_finite_diff(net, x, y, v):
    """Hessian-vector product by central differences of the exact gradient,
    a reference oracle for the closed forms (the program never calls it).

    Uses the displacement r = 1e-4 (1 + ||x||) along v/||v||, then rescales
    by ||v||. Emits KinkWarning when a relu pre-activation changes sign (or
    hugs zero) anywhere inside the stencil, since the product is then a
    difference of gradients from different linear cells.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    vn = float(np.linalg.norm(v))
    if vn < 1e-300:
        raise ValueError("direction vector is numerically zero")
    vhat = v / vn
    r = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    xp = x + r * vhat
    xm = x - r * vhat

    # one pass at each stencil end serves the kink check and the gradient
    (tp, gp), (tm, gm) = _row_loss_gradient(net, xp, y), _row_loss_gradient(net, xm, y)
    crossed = any(np.any((zp > 0.0) != (zm > 0.0)) for layer, zp, zm in
                  zip(net.spec.layers, tp.pre_activations, tm.pre_activations)
                  if layer.activation == "relu")
    ends = (_kink_gap(net.spec, t.pre_activations) for t in (tp, tm))
    if crossed or min(ends) <= KINK_EPS:
        warnings.warn("finite-difference stencil straddles a relu kink", KinkWarning,
                      stacklevel=2)
    return (gp - gm) * (vn / (2.0 * r))


def largest_eigenvalue(hvp, dim, iters=10, tol=1e-6, seed=0):
    """Largest eigenvalue of a symmetric PSD operator by power iteration, a
    reference oracle (the program reads exact spectra instead).

    Starts from a seeded random unit vector, returns the Rayleigh quotient
    after `iters` steps or earlier when its relative change drops under
    tol. A zero operator returns exactly 0.0. For factored Hessians the
    same number is available exactly from hessian_eig.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    have_prev = False
    for _ in range(iters):
        w = hvp(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new_lam = float(v @ w)
        v = w / nw
        if have_prev and abs(new_lam - lam) <= tol * max(abs(new_lam), 1e-300):
            return new_lam
        lam = new_lam
        have_prev = True
    return lam


def rel_error(B, g, mu):
    """Frobenius error ||H - mu q q^T||_F / ||H||_F of the rank-one surrogate
    of H = B B^T along q = g/||g||, from the (d, r) factor B alone; in the
    high-confidence regime mu = ||g||^2 / (eps (c-1)).

    Both live in the span of B's columns plus the gradient direction. When
    that takes fewer than d vectors (r + 1 < d), the difference is measured
    in an orthonormal basis of the span, as an (r + 1) x (r + 1) matrix;
    otherwise the span may be all of R^d and H is compared directly.
    Raises when mu is negative or not finite, when ||H||_F = 0, or when
    its square falls below the smallest normal float although H has a
    nonzero entry.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] != B.shape[0]:
        raise DimensionError(f"g must be a vector of the Hessian's length {B.shape[0]}")
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu = {mu} must be finite and nonnegative")
    gn = float(np.linalg.norm(g))
    u = (g / gn)[:, None] if gn > 0.0 else np.zeros((g.shape[0], 0))
    if B.shape[1] + u.shape[1] < B.shape[0]:
        Q, _ = np.linalg.qr(np.concatenate([B, u], axis=1))
        B, u = Q.T @ B, Q.T @ u
    H = B @ B.T
    h_sq = float(H.ravel() @ H.ravel())
    if h_sq < _TINY:
        top = float(np.abs(H).max(initial=0.0))
        if top > 0.0:
            raise ValueError(f"the Hessian's squared Frobenius norm underflows, though "
                             f"its largest entry is {top:.6g}")
        raise ValueError("Hessian has zero Frobenius norm")
    return float(np.linalg.norm(H - mu * (u @ u.T))) / float(np.sqrt(h_sq))
