"""Solvers for the sparse perturbation objective.

The interpretation perturbation maximizes the strongly concave surrogate

    l~(D) = g^T D + 1/2 D^T H D - lam1 ||D||_1 - lam2 ||D||_2^2,

with lam2 = L/2 + c1 (c1 = 10) for a bound L on lambda_max(H), which
guarantees strong concavity with margin 2 c1. Its maximizer is the fixed
point D = soft(g + H D, lam1) / (2 lam2). exact_solve_batch finds it to
rounding and certifies it by its KKT residual: in closed form for H = 0
(CAFO), and for H = F C F^T of rank r by active_set_solve, semismooth
Newton steps in z = F^T D (Li, Sun & Toh 2018). FISTA (fista_solve_batch)
takes any hvp: it minimizes f + h with f(D) = -(g^T D + 1/2 D^T H D -
lam2 ||D||^2), convex whenever lam2 > lambda_max(H)/2, and the proximable
h = lam1 ||.||_1; exact_solve_batch falls back to it for a row whose
active set does not settle. At lam1 = 0,

    D*_caso = (2 lam2 I - H)^{-1} g,        D*_cafo = g / (2 lam2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionError

DEFAULT_C1 = 10.0
# Newton steps an active-set solve may take before its row falls back to FISTA
ACTIVE_SET_MAX_STEPS = 50


def select_lambda2(curvature_bound, c1=DEFAULT_C1):
    """Ridge weight lam2 = L/2 + c1 for a curvature bound L >= 0."""
    if curvature_bound < 0.0:
        raise ValueError("curvature bound must be nonnegative")
    if not 0.0 < c1 < np.inf:
        raise ValueError("c1 must be positive and finite")
    return curvature_bound / 2.0 + c1


@dataclass(frozen=True)
class ObjectiveSpec:
    """One instance of the surrogate objective.

    hvp applies H to a vector, and to each row of an (m, d) stack (rows of
    a fista_solve_batch stack that share it share its products); None
    means H = 0. curvature_bound bounds lambda_max(H) from above, and the
    construction enforces lam2 > curvature_bound/2 (strong concavity).
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
        return float(
            self.gradient @ delta
            + 0.5 * (delta @ hd)
            - self.lam2 * (delta @ delta)
        )

    def value(self, delta, hd=None):
        """Full surrogate value l~(D); hd as in smooth_value."""
        return self.smooth_value(delta, hd) - self.lam1 * float(np.abs(delta).sum())


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


@dataclass(frozen=True)
class SolverConfig:
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


@dataclass(frozen=True)
class SolveResult:
    """Solver output: the maximizer found plus FISTA's traces.

    FISTA returns its best iterate by true objective: objective_trace[k]
    is l~ at the k-th iterate, step_trace[k] the step size that produced
    it, nnz_trace[k] its nonzero count; backtrack_exhausted flags any
    iteration that ran out of halvings. solver is "fista", "active-set" or
    "closed-form", steps counts active-set Newton steps, and kkt_residual
    is ||D - soft(g + H D, lam1)/(2 lam2)||_inf / max|D| once certified.
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
    """Maximize one surrogate objective: fista_solve_batch of [obj]."""
    return fista_solve_batch([obj], config)[0]


def fista_solve_batch(objs, config=None):
    """Maximize k surrogate objectives of one dimension with FISTA plus
    backtracking, as one stack of rows.

    Zero start, Nesterov momentum, and a quadratic-majorization
    backtracking test on the negated smooth part; only rows that fail it
    step back. Each row returns its iterate with the best true objective.
    Each row's H is applied 1 + 2 * iterations + backtracks times; rows
    whose hvp is the same object share one call per application, on the
    stack of its selected rows (a vector for a lone row).
    """
    if config is None:
        config = SolverConfig()
    k = len(objs)
    if k == 0:
        raise ValueError("need at least one objective")
    if any(o.dim != objs[0].dim for o in objs):
        raise DimensionError("objectives must share one dimension")
    G = np.stack([o.gradient for o in objs])
    lam1 = np.array([o.lam1 for o in objs])
    lam2 = np.array([o.lam2 for o in objs])
    ids = np.arange(k)
    # owner[i] indexes row i's operator in ops, -1 for H = 0; rows share
    # an operator when their hvp is the same object
    ops = list({id(o.hvp): o.hvp for o in objs if o.hvp is not None}.values())
    slot = {id(hvp): g for g, hvp in enumerate(ops)}
    owner = np.array([slot.get(id(o.hvp), -1) for o in objs])

    def groups(sel):
        """(operator, position) per operator among the owners sel: a lone
        row's position is an int, so its operator gets a vector."""
        for g in np.unique(sel[sel >= 0]):
            pos = np.flatnonzero(sel == g)
            yield ops[g], pos[0] if pos.size == 1 else pos

    every_groups = list(groups(owner))

    # rows is slice(None) for the whole stack or an index array of rows;
    # V holds one vector per selected row
    def apply_h(rows, V):
        out = np.zeros_like(V)
        for hvp, pos in every_groups if isinstance(rows, slice) else groups(owner[rows]):
            out[pos] = hvp(V[pos])
        return out

    def smooth_value(rows, V, HV):
        """g^T D + 1/2 D^T H D - lam2 ||D||^2 of each row."""
        return np.vecdot(G[rows], V) + 0.5 * np.vecdot(V, HV) - lam2[rows] * np.vecdot(V, V)

    def step(rows, Y, grad_y, a):
        return prox_soft_threshold(Y - a[:, None] * grad_y, (a * lam1[rows])[:, None])

    # slack keeps pure rounding noise from burning backtracks near optimum;
    # it scales with the compared quantities so badly scaled problems
    # (objective far above or below 1) still backtrack correctly
    def majorized(f_x, f_y, grad_y, diff, a):
        quad = np.vecdot(diff, diff) / (2.0 * a)
        q = f_y + np.vecdot(grad_y, diff) + quad
        return f_x <= q + 1e-12 * (np.abs(f_y) + quad)

    every = slice(None)
    x_prev = np.zeros_like(G)
    y = x_prev
    t = 1.0
    alpha = np.full(k, config.learning_rate)
    best_x = x_prev.copy()
    h0 = apply_h(every, x_prev)
    best_val = smooth_value(every, x_prev, h0) - lam1 * np.abs(x_prev).sum(axis=1)
    exhausted = np.zeros(k, dtype=bool)
    obj_trace = []
    step_trace = []
    nnz_trace = []
    two_lam2 = (2.0 * lam2)[:, None]

    for _ in range(config.iterations):
        hy = apply_h(every, y)
        grad_y = -(G + hy - two_lam2 * y)  # gradient of f = -(smooth part)
        f_y = -smooth_value(every, y, hy)
        x = step(every, y, grad_y, alpha)
        hx = apply_h(every, x)
        s_x = smooth_value(every, x, hx)
        # the rows still failing the test; all have been stepped back equally often
        rows = ids[~majorized(-s_x, f_y, grad_y, x - y, alpha)]
        tries = 0
        while rows.size and tries < config.max_backtracks:
            tries += 1
            alpha[rows] *= config.backtrack_decay
            x[rows] = step(rows, y[rows], grad_y[rows], alpha[rows])
            hx[rows] = apply_h(rows, x[rows])
            s_x[rows] = smooth_value(rows, x[rows], hx[rows])
            ok = majorized(-s_x[rows], f_y[rows], grad_y[rows], x[rows] - y[rows], alpha[rows])
            rows = rows[~ok]
        exhausted[rows] = True

        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        x_prev = x

        val = s_x - lam1 * np.abs(x).sum(axis=1)
        obj_trace.append(val)
        step_trace.append(alpha.copy())
        nnz_trace.append((x != 0.0).sum(axis=1))
        better = val > best_val
        if better.any():
            best_val = np.where(better, val, best_val)
            best_x[better] = x[better]

    # once the objective plateaus at float resolution the iterates keep
    # contracting toward the fixed point, so when the final iterate ties the
    # recorded best within evaluation noise, prefer it: it is the most
    # converged one. best_val stays the exact trace maximum.
    last = obj_trace[-1] >= best_val - 1e-12 * np.maximum(1.0, np.abs(best_val))
    best_x[last] = x_prev[last]

    obj_trace = np.array(obj_trace).T.tolist()
    step_trace = np.array(step_trace).T.tolist()
    nnz_trace = np.array(nnz_trace).T.tolist()
    return [
        SolveResult(
            delta=best_x[i],
            objective_value=float(best_val[i]),
            iterations_used=config.iterations,
            objective_trace=tuple(obj_trace[i]),
            step_trace=tuple(step_trace[i]),
            nnz_trace=tuple(nnz_trace[i]),
            backtrack_exhausted=bool(exhausted[i]),
        )
        for i in range(k)
    ]


def _apply(A, X, rows, transpose=False):
    """Each row of X times A^T (or A): A is one matrix for every row, a
    stack indexed by rows, or None for I."""
    if A is None:
        return X
    if A.ndim == 2:
        return X @ A if transpose else X @ A.T
    return ((np.swapaxes(A[rows], 1, 2) if transpose else A[rows]) @ X[..., None])[..., 0]


def _solve(A, b):
    return np.linalg.solve(A, b[..., None])[..., 0]


def _rows_of(F, rows, mask):
    """The rows of F (F[rows] for a stack) each mask row picks, zero-padded."""
    count = mask.sum(axis=1)
    idx = np.argsort(~mask, axis=1, kind="stable")[:, :count.max()]
    picked = F[idx] if F.ndim == 2 else np.take_along_axis(F[rows], idx[..., None], axis=1)
    return picked * (np.arange(idx.shape[1]) < count[:, None])[..., None], idx


def _newton(way, F, C, inverse, two, rows, S, U, rhs):
    """z of the rows' Newton step: r x r (way 0), D-space (1), Woodbury (2)."""
    Cr = C if C is None or C.ndim == 2 else C[rows]
    if way == 0:
        Fr = F if F.ndim == 2 else F[rows]
        gram = (np.swapaxes(Fr, -1, -2) * S[:, None, :]) @ Fr
        gram = gram if C is None else gram @ Cr
        return _solve(two[rows, None, None] * np.eye(F.shape[-1]) - gram, rhs)
    if way == 1:
        FS, idx = _rows_of(F, rows, S)
        FSC = FS if C is None else FS @ Cr
        A = two[rows, None, None] * np.eye(idx.shape[1]) - FSC @ np.swapaxes(FS, 1, 2)
        DS = _solve(A, np.take_along_axis(U, idx, axis=1))
        return (np.swapaxes(FS, 1, 2) @ DS[..., None])[..., 0]
    Fc, idx = _rows_of(F, rows, ~S)
    Vc = Fc if C is None else Fc @ Cr
    y = _apply(inverse, rhs, rows)
    P = (inverse if inverse.ndim == 2 else inverse[rows]) @ np.swapaxes(Fc, 1, 2)
    w = _solve(np.eye(idx.shape[1]) + Vc @ P, (Vc @ y[..., None])[..., 0])
    return y - (P @ w[..., None])[..., 0]


def active_set_solve(G, lam1, lam2, F, C=None, inverse=None):
    """Maximize k surrogates with H = F C F^T by semismooth Newton steps.

    G is (k, d), lam1 and lam2 (k,); F is one (d, r) factor or a (k, d, r)
    stack, C likewise or None for I, and inverse, if given, (2 lam2 I -
    F^T F C)^{-1}. On the active set S = {|g + F C z| > lam1} with signs s
    the fixed point is linear in z = F^T D: (2 lam2 I - F_S^T F_S C) z =
    F_S^T (g_S - lam1 s). From the CAFO point's active set, each step solves
    the smallest of this r x r system, (2 lam2 I - H_SS) D_S = g_S - lam1 s
    and its |S^c|-sized Woodbury update, until S and s repeat. Returns
    D = soft(g + F C z, lam1)/(2 lam2), the steps, and which rows settled.
    """
    k, d = G.shape
    r = F.shape[-1]
    t = lam1[:, None]
    two = 2.0 * lam2
    Q = G.copy()  # g + F C z
    sign = np.sign(G) * (np.abs(G) > t)
    steps = np.zeros(k, dtype=np.int64)
    todo = np.arange(k)
    for _ in range(ACTIVE_SET_MAX_STEPS):
        if not todo.size:
            break
        steps[todo] += 1
        S = sign[todo] != 0.0
        U = np.where(S, G[todo], 0.0) - t[todo] * sign[todo]
        rhs = _apply(F, U, todo, transpose=True)
        a = S.sum(axis=1)  # sizes r, |S| and |S^c|; without inverse, never |S^c|
        b = d - a if inverse is not None else np.full(todo.size, d + r)
        kind = np.where(r <= np.minimum(a, b), 0, np.where(a <= b, 1, 2))
        Z = np.empty((todo.size, r))
        for way in np.unique(kind):
            sel = np.flatnonzero(kind == way)
            # a shared factor goes one row at a time: a stack would copy F per row
            for part in sel[:, None] if F.ndim == 2 else [sel]:
                Z[part] = _newton(way, F, C, inverse, two, todo[part], S[part], U[part], rhs[part])
        Q[todo] = G[todo] + _apply(F, _apply(C, Z, todo), todo)
        new = np.sign(Q[todo]) * (np.abs(Q[todo]) > t[todo])
        moved = (new != sign[todo]).any(axis=1)
        sign[todo] = new
        todo = todo[moved]
    settled = np.ones(k, dtype=bool)
    settled[todo] = False
    return prox_soft_threshold(Q, t) / (2.0 * lam2[:, None]), steps, settled


def exact_solve_batch(objs, F=None, C=None, inverse=None, config=None):
    """Maximize k surrogates of one dimension exactly, each certified: in
    closed form when F is None (H = 0), else by active_set_solve with H =
    F C F^T; a row that does not settle takes fista_solve_batch (config)."""
    G = np.stack([o.gradient for o in objs])
    lam1 = np.array([o.lam1 for o in objs])
    lam2 = np.array([o.lam2 for o in objs])
    name, steps, settled = "closed-form", np.zeros(len(objs), int), np.ones(len(objs), bool)
    delta = prox_soft_threshold(G, lam1[:, None]) / (2.0 * lam2[:, None])
    if F is not None:
        name, (delta, steps, settled) = "active-set", active_set_solve(G, lam1, lam2, F, C, inverse)
    results = [SolveResult(row, 0.0, 0, solver=name, steps=int(n)) for row, n in zip(delta, steps)]
    slow = np.flatnonzero(~settled)
    if slow.size:
        for i, res in zip(slow, fista_solve_batch([objs[i] for i in slow], config)):
            results[i] = replace(res, steps=int(steps[i]))
    for i, (obj, res) in enumerate(zip(objs, results)):
        hd = obj.apply_h(res.delta)  # fresh, for the value and the KKT residual
        fixed = prox_soft_threshold(obj.gradient + hd, obj.lam1) / (2.0 * obj.lam2)
        scale = max(float(np.abs(res.delta).max()), np.finfo(np.float64).tiny)
        results[i] = replace(res, objective_value=obj.value(res.delta, hd),
                             kkt_residual=float(np.abs(res.delta - fixed).max()) / scale)
    return results


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
