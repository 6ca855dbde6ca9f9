"""Proximal solver for the sparse perturbation objective.

The interpretation perturbation maximizes the strongly concave surrogate

    l~(D) = g^T D + 1/2 D^T H D - lam1 ||D||_1 - lam2 ||D||_2^2,

which FISTA handles as the equivalent minimization of f + h with
f(D) = -(g^T D + 1/2 D^T H D - lam2 ||D||^2) (smooth, convex whenever
lam2 > lambda_max(H)/2) and h = lam1 ||.||_1 (proximable). The ridge
weight follows the rule lam2 = L/2 + c1 with c1 = 10, which guarantees
strong concavity with margin 2 c1.

At lam1 = 0 the maximizer is available in closed form,

    D*_caso = (2 lam2 I - H)^{-1} g,        D*_cafo = g / (2 lam2),

and the curvature-free special case never touches H at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError

DEFAULT_C1 = 10.0


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

    hvp applies H to a vector; None means H = 0 (the curvature-free
    objective). curvature_bound is an upper bound on lambda_max(H) and the
    construction enforces lam2 > curvature_bound/2, the strong concavity
    condition.
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

    Entries inside the dead zone come out as exact (positive) floating
    zeros so that downstream sparsity counts can compare against 0.0.
    """
    if t < 0.0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > t, x - t, np.where(x < -t, x + t, 0.0))


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
    """Solver output: the best iterate by true objective plus traces.

    objective_trace[k] is l~ at the k-th iterate, step_trace[k] the step
    size that produced it, nnz_trace[k] its nonzero count.
    backtrack_exhausted flags any iteration that ran out of halvings.
    """

    delta: np.ndarray
    objective_value: float
    iterations_used: int
    objective_trace: tuple[float, ...]
    step_trace: tuple[float, ...]
    nnz_trace: tuple[int, ...]
    backtrack_exhausted: bool


def fista_solve(obj, config=None):
    """Maximize the surrogate objective with FISTA plus backtracking.

    Zero initialization, Nesterov momentum, and a quadratic-majorization
    backtracking test on the negated smooth part; the step size only ever
    shrinks. Tracks and returns the iterate with the best true objective,
    which keeps the result monotone in the iteration budget even though
    raw FISTA iterates oscillate. H is applied once at the start and then
    once per tested iterate and once per extrapolated point, so
    1 + 2 * iterations + backtracks times in all.
    """
    if config is None:
        config = SolverConfig()
    d = obj.dim
    x_prev = np.zeros(d)
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
    def majorized(f_x, f_y, grad_y, x, yv, a):
        diff = x - yv
        quad = float(diff @ diff) / (2.0 * a)
        q = f_y + float(grad_y @ diff) + quad
        return f_x <= q + 1e-12 * (abs(f_y) + quad)

    for _ in range(config.iterations):
        hy = obj.apply_h(y)
        grad_y = -smooth_gradient(obj, y, hy)  # gradient of f = -(smooth part)
        f_y = -obj.smooth_value(y, hy)
        x = prox_soft_threshold(y - alpha * grad_y, alpha * obj.lam1)
        hx = obj.apply_h(x)
        tries = 0
        while not majorized(-obj.smooth_value(x, hx), f_y, grad_y, x, y, alpha):
            if tries >= config.max_backtracks:
                exhausted = True
                break
            alpha *= config.backtrack_decay
            tries += 1
            x = prox_soft_threshold(y - alpha * grad_y, alpha * obj.lam1)
            hx = obj.apply_h(x)

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
