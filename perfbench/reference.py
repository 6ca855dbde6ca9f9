"""Independent numpy reference for checking saliency outputs.

Everything the benchmark needs to judge a reported map is rebuilt here
from the model file alone: the forward pass, the loss gradient, the local
linearization W of a piecewise-linear net, the factored curvature
H = W (diag(p) - p p^T) W^T, and a converged solve of the surrogate

    l(D) = g.D + 1/2 D.H.D - lam1 |D|_1 - lam2 |D|^2.

No casokit code is used, so the reference stays valid whatever the
program's internals become.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative objective gaps below this are reported at this value: it is the
# resolution of a float64 objective built from sums over ~10^3 terms
GAP_FLOOR = 1e-12
# the CLI's default --smooth-sigma, which the workloads keep
SMOOTH_SIGMA = 0.15


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


@dataclass(frozen=True)
class Model:
    weights: tuple
    biases: tuple
    activations: tuple

    def _forward(self, x):
        slopes = []
        a = x
        for W, b, kind in zip(self.weights, self.biases, self.activations):
            z = W @ a + b
            if kind == "relu":
                a = np.maximum(z, 0.0)
                slopes.append((z > 0.0).astype(np.float64))
            elif kind == "sigmoid":
                a = _sigmoid(z)
                slopes.append(a * (1.0 - a))
            else:
                a = z
                slopes.append(np.ones_like(z))
        return a, slopes

    def logits(self, x):
        return self._forward(x)[0]

    def _backprop(self, slopes, cot):
        for W, s in zip(reversed(self.weights), reversed(slopes)):
            cot = W.T @ (cot * (s if cot.ndim == 1 else s[:, None]))
        return cot

    def probs(self, x):
        return softmax(self.logits(x))

    def loss_gradient(self, x, y):
        logits, slopes = self._forward(x)
        cot = softmax(logits)
        cot[y] -= 1.0
        return self._backprop(slopes, cot)

    def curvature_factor(self, x):
        """B with H = B B^T at x (piecewise-linear nets only)."""
        logits, slopes = self._forward(x)
        W = self._backprop(slopes, np.eye(logits.shape[0]))
        p = softmax(logits)
        w, V = np.linalg.eigh(np.diag(p) - np.outer(p, p))
        return W @ (V * np.sqrt(np.maximum(w, 0.0)))


def noise_points(x, n, seed):
    """The smooth methods' documented noise: n Gaussian copies of x at
    sigma times the input's range, from numpy's default_rng(seed)."""
    span = float(x.max() - x.min())
    rng = np.random.default_rng(seed)
    return x + (SMOOTH_SIGMA * span) * rng.standard_normal((n, x.shape[0]))


def interpret_child_seeds(seed, count):
    """Per-sample seeds of `interpret`: one SeedSequence child per sample."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]


@dataclass(frozen=True)
class Objective:
    g: np.ndarray
    B: np.ndarray | None  # H = B B^T; None for H = 0
    lam1: float
    lam2: float

    def value(self, D):
        quad = 0.0 if self.B is None else 0.5 * float(np.sum((self.B.T @ D) ** 2))
        return float(
            self.g @ D + quad - self.lam1 * np.abs(D).sum() - self.lam2 * (D @ D)
        )

    def solve(self, iterations=3000):
        """Accelerated proximal gradient for the strongly concave l.

        The smooth part's curvature lies in [2 lam2 - lambda_max(H), 2 lam2],
        so a fixed step 1/(2 lam2) with constant momentum converges
        linearly; the iterate is run until it stops moving.
        """
        lmax = 0.0
        if self.B is not None:
            lmax = float(np.linalg.eigvalsh(self.B.T @ self.B)[-1])
        mu, L = 2.0 * self.lam2 - lmax, 2.0 * self.lam2
        if mu <= 0.0:
            raise ValueError(f"lam2={self.lam2} is not above lambda_max/2={lmax / 2}")
        beta = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
        x = np.zeros_like(self.g)
        y = x
        t = self.lam1 / L
        for _ in range(iterations):
            grad = self.g - L * y
            if self.B is not None:
                grad = grad + self.B @ (self.B.T @ y)
            v = y + grad / L
            x_new = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
            if np.abs(x_new - x).max() <= 1e-15 * max(1.0, np.abs(x_new).max()):
                break
            y = x_new + beta * (x_new - x)
            x = x_new
        return x


def relative_gap(obj, reported_value, reported_delta=None):
    """(best - reported) / |best|, floored at GAP_FLOOR, where best is the
    larger of the converged solve and the reported map's own value."""
    best = obj.value(obj.solve())
    if reported_delta is not None:
        best = max(best, obj.value(reported_delta))
    if best == 0.0:
        return GAP_FLOOR
    return max((best - reported_value) / abs(best), GAP_FLOOR)
