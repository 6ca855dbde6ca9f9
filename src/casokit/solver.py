"""Solvers for the sparse perturbation objective.

The interpretation perturbation maximizes the strongly concave surrogate

    l~(D) = g^T D + 1/2 D^T H D - lam1 ||D||_1 - lam2 ||D||_2^2,

with lam2 = L/2 + c1 (c1 = 10) for a bound L on lambda_max(H), which
guarantees strong concavity with margin 2 c1. Its maximizer is the fixed
point D = soft(g + H D, lam1) / (2 lam2). exact_solve finds it to rounding
and certifies it by its KKT residual: in closed form for H = 0 (CAFO), and
for H = F C F^T of rank r by active_set_solve, semismooth Newton steps in
z = F^T D (Li, Sun & Toh 2018) with one globalization for every C, a
line search on the forward-backward envelope. FISTA (fista_solve), the
proximal-gradient reference that no CLI path runs, takes any hvp: it
minimizes f + h with f(D) = -(g^T D + 1/2 D^T H D - lam2 ||D||^2),
convex whenever lam2 > lambda_max(H)/2, and h = lam1 ||.||_1. At lam1 = 0,

    D*_caso = (2 lam2 I - H)^{-1} g,        D*_cafo = g / (2 lam2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._record import Record
from .errors import DimensionError

DEFAULT_C1 = 10.0
# the largest lam2, an eighth of the largest float: the solvers' steps,
# 1/gamma = (2 lam2 - floor)/0.95 among them, stay finite below it
LAMBDA2_MAX = float(np.finfo(np.float64).max) / 8.0
# Newton steps an active-set solve may take; past them its map is uncertified
ACTIVE_SET_MAX_STEPS = 50


def select_lambda2(curvature_bound, c1=DEFAULT_C1):
    """Ridge weight lam2 = L/2 + c1 for a curvature bound L >= 0, at most
    LAMBDA2_MAX, and with lam2 - L/2 within c1/2 of c1: a c1 that rounding
    swallows would leave 2 lam2 I - H singular to rounding."""
    if curvature_bound < 0.0:
        raise ValueError("curvature bound must be nonnegative")
    if not 0.0 < c1 < np.inf:
        raise ValueError("c1 must be positive and finite")
    lam2 = curvature_bound / 2.0 + c1
    if not lam2 <= LAMBDA2_MAX:
        raise ValueError(f"lambda2 = {float(lam2)!r} exceeds {LAMBDA2_MAX!r}, past which "
                         "the solvers' steps overflow (lower c1)")
    if abs((lam2 - curvature_bound / 2.0) - c1) > c1 / 2.0:
        raise ValueError(f"c1 = {float(c1)!r} is lost to rounding in lambda2 = L/2 + c1 at "
                         f"L = {float(curvature_bound):.6g} (raise c1)")
    return lam2


class ObjectiveSpec(Record):
    """One instance of the surrogate objective.

    hvp applies H to a vector; None means H = 0. curvature_bound bounds
    lambda_max(H) from above, and the construction enforces lam2 >
    curvature_bound/2 (strong concavity).
    """

    gradient: np.ndarray
    hvp: Callable[[np.ndarray], np.ndarray] | None
    lam1: float
    lam2: float
    curvature_bound: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=np.float64)
        if g.ndim != 1:
            raise DimensionError("gradient must be a flat vector")
        object.__setattr__(self, "gradient", g)
        if not 0.0 <= self.lam1 < np.inf:
            raise ValueError("lam1 must be nonnegative and finite")
        if not 0.0 < self.lam2 < np.inf:
            raise ValueError("lam2 must be positive and finite")
        if self.curvature_bound < 0.0:
            raise ValueError("curvature bound must be nonnegative")
        if self.hvp is not None and self.lam2 <= self.curvature_bound / 2.0:
            raise ValueError(
                f"lam2 = {self.lam2} does not exceed half the curvature bound "
                f"{self.curvature_bound}; the objective is not strongly concave"
            )

    @property
    def dim(self):
        return self.gradient.shape[0]

    def apply_h(self, delta):
        if self.hvp is None:
            return np.zeros_like(delta)
        return self.hvp(delta)

    def smooth_value(self, delta, hd=None):
        """g^T D + 1/2 D^T H D - lam2 ||D||^2 (everything except the L1 term).

        hd is H D when the caller already has it.
        """
        if hd is None:
            hd = self.apply_h(delta)
        return _smooth_value(self.gradient, self.lam2, delta, hd)

    def value(self, delta, hd=None):
        """Full surrogate value l~(D); hd as in smooth_value."""
        return self.smooth_value(delta, hd) - self.lam1 * float(np.abs(delta).sum())


def _smooth_value(g, lam2, delta, hd):
    return float(g @ delta + 0.5 * (delta @ hd) - lam2 * (delta @ delta))


def curvature_product(F, C, V):
    """H V for H = F C F^T (C None for I, F None for H = 0), V a vector or
    an (m, d) stack of rows."""
    if F is None:
        return np.zeros_like(V)
    if C is None:
        return (F @ (F.T @ V.T)).T
    return ((V @ F) @ C) @ F.T


def smooth_gradient(obj, delta, hd=None):
    """Gradient of the smooth part: g + H D - 2 lam2 D; hd as in smooth_value."""
    if hd is None:
        hd = obj.apply_h(delta)
    return obj.gradient + hd - 2.0 * obj.lam2 * delta


def prox_soft_threshold(x, t):
    """Soft threshold: x+t below -t, 0 on [-t, t], x-t above t.

    t is a scalar, or a column with one threshold per row of a stack x.
    Entries inside the dead zone come out as x - x, an exact (positive)
    floating zero, so that downstream sparsity counts can compare against
    0.0.
    """
    t = np.asarray(t, dtype=np.float64)
    if (t < 0.0).any():
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return x - np.clip(x, -t, t)


class SolverConfig(Record):
    learning_rate: float = 0.1
    iterations: int = 10
    backtrack_decay: float = 0.5
    max_backtracks: int = 20

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.backtrack_decay < 1.0:
            raise ValueError("backtrack_decay must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")


class SolveResult(Record):
    """Solver output: the maximizer found plus FISTA's traces.

    FISTA returns its best iterate by true objective: objective_trace[k]
    is l~ at the k-th iterate, step_trace[k] the step size that produced
    it, nnz_trace[k] its nonzero count; backtrack_exhausted flags any
    iteration that ran out of halvings. exact_solve sets solver to
    "active-set" or "closed-form", steps to the Newton steps, kkt_residual
    to ||D - soft(g + H D, lam1)/(2 lam2)||_inf / max|D|, and leaves
    iterations_used 0 and the traces empty.
    """

    delta: np.ndarray
    objective_value: float
    iterations_used: int
    objective_trace: tuple[float, ...] = ()
    step_trace: tuple[float, ...] = ()
    nnz_trace: tuple[int, ...] = ()
    backtrack_exhausted: bool = False
    solver: str = "fista"
    steps: int = 0
    kkt_residual: float | None = None


def fista_solve(obj, config=None):
    """Maximize one surrogate objective with FISTA plus backtracking.

    Zero start, Nesterov momentum, and a quadratic-majorization
    backtracking test on the negated smooth part; the step size only ever
    shrinks. Returns the iterate with the best true objective, which keeps
    the result monotone in the iteration budget even though raw FISTA
    iterates oscillate. H is applied once at the start and then once per
    tested iterate and once per extrapolated point, so 1 + 2 * iterations
    + backtracks times in all.
    """
    if config is None:
        config = SolverConfig()
    x_prev = np.zeros(obj.dim)
    y = x_prev
    t = 1.0
    alpha = config.learning_rate
    best_x = x_prev
    best_val = obj.value(x_prev)
    exhausted = False
    obj_trace = []
    step_trace = []
    nnz_trace = []

    # slack keeps pure rounding noise from burning backtracks near optimum;
    # it scales with the compared quantities so badly scaled problems
    # (objective far above or below 1) still backtrack correctly
    def majorized(f_x, f_y, grad_y, diff, a):
        quad = float(diff @ diff) / (2.0 * a)
        q = f_y + float(grad_y @ diff) + quad
        return f_x <= q + 1e-12 * (abs(f_y) + quad)

    for _ in range(config.iterations):
        hy = obj.apply_h(y)
        grad_y = -smooth_gradient(obj, y, hy)  # gradient of f = -(smooth part)
        f_y = -obj.smooth_value(y, hy)
        for tries in range(config.max_backtracks + 1):
            if tries:
                alpha *= config.backtrack_decay
            x = prox_soft_threshold(y - alpha * grad_y, alpha * obj.lam1)
            hx = obj.apply_h(x)
            if majorized(-obj.smooth_value(x, hx), f_y, grad_y, x - y, alpha):
                break
        else:
            exhausted = True

        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        x_prev = x

        val = obj.value(x, hx)
        obj_trace.append(val)
        step_trace.append(alpha)
        nnz_trace.append(int(np.count_nonzero(x)))
        if val > best_val:
            best_val = val
            best_x = x

    # once the objective plateaus at float resolution the iterates keep
    # contracting toward the fixed point, so when the final iterate ties the
    # recorded best within evaluation noise, prefer it: it is the most
    # converged one. best_val stays the exact trace maximum.
    if obj_trace[-1] >= best_val - 1e-12 * max(1.0, abs(best_val)):
        best_x = x_prev

    return SolveResult(
        delta=best_x,
        objective_value=best_val,
        iterations_used=config.iterations,
        objective_trace=tuple(obj_trace),
        step_trace=tuple(step_trace),
        nnz_trace=tuple(nnz_trace),
        backtrack_exhausted=exhausted,
    )


def _newton(way, F, C, inverse, two, S, u):
    """z of one Newton step on the active set S: r x r (way 0), D-space
    (1), Woodbury (2)."""
    if way == 0:
        gram = (F.T * S) @ F
        gram = gram if C is None else gram @ C
        return np.linalg.solve(two * np.eye(F.shape[1]) - gram, F.T @ u)
    if way == 1:
        FS = F[S]
        FSC = FS if C is None else FS @ C
        return FS.T @ np.linalg.solve(two * np.eye(FS.shape[0]) - FSC @ FS.T, u[S])
    Fc = F[~S]
    Vc = Fc if C is None else Fc @ C
    y = inverse @ (F.T @ u)
    P = inverse @ Fc.T
    return y - P @ np.linalg.solve(np.eye(Fc.shape[0]) + Vc @ P, Vc @ y)


def _envelope(g, lam1, lam2, gamma, D, hd):
    """phi_gamma(D) and T_gamma(D), given hd = H D (see active_set_solve)."""
    q = g + hd
    T = (1.0 / gamma - 2.0 * lam2) * D + q  # (D - gamma grad f(D)) / gamma
    T = gamma * (T - np.clip(T, -lam1, lam1))
    R = D - T
    phi = (lam2 * (D @ D) - g @ D - 0.5 * (D @ hd) + q @ R - 2.0 * lam2 * (D @ R)
           + (R @ R) / (2.0 * gamma))
    return float(phi) + lam1 * float(np.abs(T).sum()), T


def _globalize(g, lam1, lam2, gamma, F, C, D, hd, N, hN):
    """(T_gamma(w), H T_gamma(w)) for w = D + tau (N - D), tau the first of
    1, 1/2, ..., 2^-29 with phi_gamma(w) <= phi_gamma(D), else 0; hN = H N."""
    phi, T = _envelope(g, lam1, lam2, gamma, D, hd)
    for tau in 0.5 ** np.arange(30.0):
        val, Tw = _envelope(g, lam1, lam2, gamma, D + tau * (N - D), hd + tau * (hN - hd))
        if val <= phi:
            T = Tw
            break
    return T, curvature_product(F, C, T)


def active_set_solve(g, lam1, lam2, F, C=None, inverse=None, floor=0.0):
    """Maximize one surrogate with H = F C F^T by semismooth Newton steps
    globalized on the forward-backward envelope.

    F is (d, r), C (r, r) or None for I, inverse, if given, (2 lam2 I -
    F^T F C)^{-1}, and floor <= lambda_min(H) (0 serves a positive
    semidefinite H). In minimizing form the objective is f + lam1 ||.||_1,
    f(D) = lam2 ||D||^2 - g^T D - 1/2 D^T H D, whose gradient is L-Lipschitz
    for L = 2 lam2 - min(floor, 0); T_gamma(D) = soft(D - gamma grad f(D),
    gamma lam1) is its forward-backward step, T_{1/(2 lam2)} the map of the
    module docstring.

    Newton point: for S, s the support and signs of T_gamma(D), and any
    gamma, the semismooth Newton step on D - T_gamma(D) (Jacobian I - P_S
    (I - gamma (2 lam2 I - H))) is the point N(S, s) with D = 0 off S and
    (2 lam2 I - H_SS) D_S = g_S - lam1 s, or in z = F^T D, (2 lam2 I -
    F_S^T F_S C) z = F_S^T (g_S - lam1 s); _newton solves the smallest of
    the r x r, |S| and |S^c|-sized Woodbury forms. N(S, s) is the
    maximizer exactly when T(N) keeps S and s, and then soft(g + H N,
    lam1)/(2 lam2) is returned: a map's bits depend only on the (S, s) it
    settles on.

    Globalization, one rule for every C: with gamma = 0.95/L the envelope
    phi_gamma(D) = f(D) + grad f(D)^T (T_gamma(D) - D) + ||T_gamma(D) -
    D||^2/(2 gamma) + lam1 ||T_gamma(D)||_1 (Patrinos & Bemporad 2013) has
    the maximizer as its one minimizer and falls by (1 - gamma L)/(2 gamma)
    ||w - T_gamma(w)||^2 or more from w to T_gamma(w) (Stella, Themelis &
    Patrinos 2017). An unsettled N gives the next iterate T_gamma(w), w on
    the segment from D to N with phi_gamma(w) <= phi_gamma(D): the iterates
    converge for any symmetric H, and N - D, a Newton direction of the same
    residual, descends on phi_gamma. This runs until N settles or for
    ACTIVE_SET_MAX_STEPS steps, from D = 0, whose S and s are those of |g|
    > lam1, or, given inverse, from the lam1 = 0 maximizer D0 = (g + F C
    z0)/(2 lam2), z0 = inverse F^T g, when phi_gamma(D0) < phi_gamma(0).
    Returns the map or the last iterate, the steps, and whether S and s
    settled.
    """
    d, r = F.shape
    two = 2.0 * lam2
    gamma = 0.95 / (two - min(floor, 0.0))
    D = hd = np.zeros(d)
    u = g  # T_gamma(D) = gamma soft(u, lam1)
    if inverse is not None:
        z0 = inverse @ (F.T @ g)
        hd0 = F @ (z0 if C is None else C @ z0)
        D0 = (g + hd0) / two
        if (_envelope(g, lam1, lam2, gamma, D0, hd0)[0]
                < _envelope(g, lam1, lam2, gamma, D, hd)[0]):
            D, hd, u = D0, hd0, (1.0 / gamma - two) * D0 + g + hd0
    for steps in range(1, ACTIVE_SET_MAX_STEPS + 1):
        sign = np.sign(u) * (np.abs(u) > lam1)
        S = sign != 0.0
        a = int(S.sum())  # sizes r, |S| and |S^c|; without inverse, never |S^c|
        b = d - a if inverse is not None else d + r
        way = 0 if r <= min(a, b) else 1 if a <= b else 2
        z_new = _newton(way, F, C, inverse, two, S, np.where(S, g, 0.0) - lam1 * sign)
        hN = F @ (z_new if C is None else C @ z_new)
        q_new = g + hN
        if (np.sign(q_new) * (np.abs(q_new) > lam1) == sign).all():
            return prox_soft_threshold(q_new, lam1) / two, steps, True
        N = np.where(S, q_new - lam1 * sign, 0.0) / two
        D, hd = _globalize(g, lam1, lam2, gamma, F, C, D, hd, N, hN)
        u = (1.0 / gamma - two) * D + g + hd
    return D, ACTIVE_SET_MAX_STEPS, False


def exact_solve(g, lam1, lam2, F=None, C=None, inverse=None, floor=0.0):
    """Maximize the surrogate of gradient g and H = F C F^T exactly and
    certify it: in closed form when F is None (H = 0), else by
    active_set_solve, given the Woodbury base inverse and floor <=
    lambda_min(H). kkt_residual comes from a fresh H D: rounding, unless
    the solve reached ACTIVE_SET_MAX_STEPS, and then it says the map is
    uncertified."""
    if not 0.0 <= lam1 < np.inf:
        raise ValueError("lam1 must be nonnegative and finite")
    if F is None:
        delta, steps = prox_soft_threshold(g, lam1) / (2.0 * lam2), 0
    else:
        delta, steps, _ = active_set_solve(g, lam1, lam2, F, C, inverse, floor)
    hd = curvature_product(F, C, delta)
    fixed = prox_soft_threshold(g + hd, lam1) / (2.0 * lam2)
    scale = max(float(np.abs(delta).max()), np.finfo(np.float64).tiny)
    value = _smooth_value(g, lam2, delta, hd) - lam1 * float(np.abs(delta).sum())
    return SolveResult(delta, value, 0,
                       solver="closed-form" if F is None else "active-set", steps=steps,
                       kkt_residual=float(np.abs(delta - fixed).max()) / scale)


def closed_form_cafo(g, lam2):
    """Curvature-free maximizer at lam1 = 0: g / (2 lam2)."""
    if lam2 <= 0.0:
        raise ValueError("lam2 must be positive")
    g = np.asarray(g, dtype=np.float64)
    return g / (2.0 * lam2)


def closed_form_caso(g, handle, lam2):
    """Curvature-aware maximizer at lam1 = 0: (2 lam2 I - H)^{-1} g.

    Evaluated through the factored spectrum,

        D* = sum_i (u_i^T g)/(2 lam2 - s_i) u_i + (g - U U^T g)/(2 lam2),

    so no d x d system is ever solved. Requires lam2 > lambda_max(H)/2.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != handle.dim:
        raise DimensionError("gradient length does not match the Hessian")
    if lam2 <= handle.top_eigenvalue / 2.0:
        raise ValueError(
            f"lam2 = {lam2} does not exceed half the top eigenvalue "
            f"{handle.top_eigenvalue}; (2 lam2 I - H) is not positive definite"
        )
    if handle.eigenvalues.size == 0:
        return g / (2.0 * lam2)
    U = handle.eigenvectors
    ug = U.T @ g
    along = U @ (ug / (2.0 * lam2 - handle.eigenvalues))
    return along + (g - U @ ug) / (2.0 * lam2)
