"""Validation studies for the rank-one collapse and the sparse oracle.

Three empirical studies back the theory at desk scale:

* simulate_rank_one measures how fast H = W A W^T approaches the
  rank-one surrogate g g^T / (eps (c-1)) as confidence or class count
  grows, on random linear models, over the grid that the arguments it
  is given fix.
* confidence_gap_study compares the normalized curvature-aware and
  curvature-free maps on a trained classifier of any activations; on relu
  nets the gap shrinks with prediction confidence, which spearman_rho
  measures on finite inputs only.
* alignment_curve tracks the cosine between the gradient and the top
  Hessian eigenvector, plus how much spectral mass that eigenvector
  carries (largest eigenvalue squared over the sum of squares).

brute_force_group_feature is the exact L0 oracle: it enumerates every
support of size at most k and maximizes the lam1-free surrogate on each,
which is what the L1 relaxation is meant to approximate; l1_path gives
every support of the L1 maximizer over all lam1, exactly.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from ._record import Record
from .errors import DimensionError
from .hessian import _TINY, hessian_eig, rel_error, softmax_factor
from .interpret import MethodRequest, sparse_models
from .solver import DEFAULT_C1, closed_form_cafo, select_lambda2

log = logging.getLogger(__name__)

# the largest d brute_force_group_feature enumerates: at most 2**14 supports
ORACLE_MAX_D = 14


class RankOnePoint(Record):
    c: int
    eps: float
    rel_error: float


def _point_eps(c, eps=None, p0=None):
    """Validate a simulation point and return its eps; eps None takes the
    value p0 implies, (1 - p0)/(c - 1)."""
    if c < 2:
        raise ValueError("need at least 2 classes")
    if eps is None:
        eps = (1.0 - p0) / (c - 1)
    if not 0.0 < eps < 1.0 / c:
        raise ValueError(
            f"eps = {eps} must lie in (0, 1/c) for c = {c} so that p0 > 1/c"
        )
    return eps


def _draw_weights(seed, d, c):
    """Standard normal (d, c) weights of a random linear model, drawn from
    seed; the model's bias slot is drawn after them and discarded."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((d, c))
    rng.standard_normal(c)
    return W


def _confident_model(W, eps):
    """Confident probabilities p = [1-(c-1)eps, eps, ...] for W's c classes
    and the loss gradient g = W (p - e_0) at label 0. Entry 0 of p - e_0 is
    formed as -(c-1)eps, not as p_0 - 1, which carries p_0's rounding error
    and is 0 once 1 - (c-1)eps rounds to 1."""
    c = W.shape[1]
    r = np.full(c, eps)
    r[0] = -(c - 1) * eps
    p = r.copy()
    p[0] += 1.0
    return p, W @ r


def _sim_plan(seed, p0, classes, eps_values, c):
    """Validate the grid and list its weight draws as (c, seed, eps values):
    one draw from the root seed for an eps sweep at c, else one child seed
    per class count."""
    grid = {"p0": p0, "classes": classes, "eps_values": eps_values, "c": c}
    given = [f for f, v in grid.items() if v not in (None, ())]
    ss = np.random.SeedSequence(seed)
    if given == ["eps_values", "c"]:
        classes, seeds = (c,), (ss,)
    elif given in (["p0", "classes"], ["classes", "eps_values"]):
        seeds = ss.spawn(len(classes))
    else:
        raise ValueError("set p0 and classes, c and eps_values, or classes and eps_values; "
                         f"got {' and '.join(given) or 'none'}")
    return [
        (c, seed, tuple(_point_eps(c, eps, p0) for eps in eps_values or (None,)))
        for c, seed in zip(classes, seeds)
    ]


def simulate_rank_one(d=512, seed=0, p0=None, classes=(), eps_values=(), c=None):
    """Rank-one surrogate error over the (c, eps) grid that the arguments
    given fix.

    p0 and classes sweep the class counts, each at the eps that p0 implies
    through p0 = 1 - (c-1) eps; c and eps_values sweep eps at one class
    count; classes and eps_values cross the two lists. Any other set of
    grid arguments is a ValueError. Weights are standard normal, drawn once
    per class count so that sweeping eps at fixed c reuses the same W and
    yields a smooth curve. Each point reads only the factor B = W L of H
    (no spectrum). Returns one RankOnePoint per grid entry.
    """
    if d < 1:
        raise ValueError("d must be positive")
    classes = tuple(int(v) for v in classes)
    eps_values = tuple(float(v) for v in eps_values)
    points = []
    for c, draw, row_eps in _sim_plan(seed, p0, classes, eps_values, c):
        W = _draw_weights(draw, d, c)
        for eps in row_eps:
            p, g = _confident_model(W, eps)
            mu = float(g @ g) / (eps * (c - 1))
            err = rel_error(W @ softmax_factor(p), g, mu)
            points.append(RankOnePoint(c=c, eps=eps, rel_error=err))
    return points


class GapPoint(Record):
    sample_id: int
    p_max: float
    gap: float


def confidence_gap_study(net, dataset, n_samples, c1=DEFAULT_C1):
    """Normalized distance between the curvature-aware and curvature-free
    maps at lam1 = 0 across dataset samples, on any net.

    Each sample's CurvatureModel is the one `caso` solves against, from
    interpret.sparse_models, which holds one chunk of samples' models at a
    time; lam2 takes its exact curvature bound. The CAFO map comes from its
    closed form and the CASO map from the model's exact lam1 = 0 solve,
    (2 lam2 I - H)^{-1} g; both are normalized to unit L2, and the gap is
    the norm of their difference (in [0, 2]). Samples with an exactly zero
    gradient carry no direction to compare and are skipped with a log
    entry; when every sample is skipped, a ValueError says so, as it does
    for a sample whose map cannot be normalized, its squared norm outside
    the normal floats (as at c1 above about 1e153).
    """
    count = min(int(n_samples), dataset.n)
    request = MethodRequest("caso", [dataset.sample(i) for i in range(count)], c1=c1)
    lam2_cafo = select_lambda2(0.0, c1)
    rows = []
    for i, model in enumerate(sparse_models(net, request)):
        g = model.gradient
        if np.linalg.norm(g) == 0.0:
            log.info("sample %d has zero gradient; skipped", i)
            continue
        d_caso = model.solve(0.0).delta
        d_cafo = closed_form_cafo(g, lam2_cafo)
        with np.errstate(over="ignore"):
            squares = (d_caso @ d_caso, d_cafo @ d_cafo)
        if not all(_TINY <= sq < np.inf for sq in squares):
            raise ValueError(f"sample {i}: no finite gap, as a map's squared norm "
                             f"underflows or overflows at c1 = {c1}")
        u = d_caso / np.linalg.norm(d_caso)
        v = d_cafo / np.linalg.norm(d_cafo)
        rows.append(GapPoint(sample_id=i, p_max=float(model.probs.max()),
                             gap=float(np.linalg.norm(u - v))))
    if count and not rows:
        raise ValueError(f"none of the {count} samples has a nonzero input gradient (the loss "
                         "is flat in the input there, as when the relu units are off), so no "
                         "map has a direction to compare")
    return rows


class AlignmentPoint(Record):
    c: int
    cosine: float
    mass_ratio: float


def alignment_curve(d, classes, eps, seed=0):
    """Gradient alignment and spectral concentration across class counts.

    For each c: random W, confident p = [1-(c-1)eps, eps, ...], gradient
    g = W (p - y). cosine is |cos(u1, g)| for the top eigenvector u1 and
    mass_ratio is lambda_max^2 over the sum of squared eigenvalues, the
    Frobenius share of the top eigenpair. An eps so small that |g|^2 or the
    squared eigenvalues fall below the smallest normal float (about 1e-154
    and under) is a ValueError.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    classes = tuple(int(c) for c in classes)
    for c in classes:
        _point_eps(c, eps)
    children = np.random.SeedSequence(seed).spawn(len(classes))
    points = []
    for c, child in zip(classes, children):
        W = _draw_weights(child, d, c)
        p, g = _confident_model(W, eps)
        handle = hessian_eig(W, p)
        lams = handle.eigenvalues
        if not min(g @ g, np.sum(lams**2)) >= _TINY:
            raise ValueError(f"c = {c}: no finite cosine or mass ratio, as |g|^2 or the "
                             f"squared eigenvalues underflow at eps = {eps}")
        cosine = float(abs(handle.eigenvectors[:, 0] @ g) / np.linalg.norm(g))
        mass = float(lams[0] ** 2 / np.sum(lams**2))
        points.append(AlignmentPoint(c=c, cosine=cosine, mass_ratio=mass))
    return points


class OracleResult(Record):
    support: tuple[int, ...]
    delta: np.ndarray
    value: float


def brute_force_group_feature(g, H, lam2, k):
    """Exact L0 oracle for the lam1-free surrogate.

    Enumerates every support S with |S| <= k (nonnegative) and maximizes
    g^T D + 1/2 D^T H D - lam2 ||D||^2 over vectors supported on S, which
    solves the |S| x |S| system (2 lam2 I - H)_SS D_S = g_S. Requires a
    dense H with d <= ORACLE_MAX_D and lam2 > lambda_max(H)/2.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    g = np.asarray(g, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    d = g.shape[0]
    if H.shape != (d, d):
        raise DimensionError("H must be a square d x d matrix matching g")
    if d > ORACLE_MAX_D:
        raise ValueError(f"d = {d} exceeds the d <= {ORACLE_MAX_D} enumeration limit")
    top = float(np.linalg.eigvalsh(H)[-1])
    if lam2 <= top / 2.0:
        raise ValueError("lam2 must exceed half the largest eigenvalue of H")
    k = min(k, d)

    M = 2.0 * lam2 * np.eye(d) - H
    best_value = 0.0
    best_support = ()
    best_delta = np.zeros(d)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(d), size):
            idx = np.asarray(support)
            gs = g[idx]
            ds = np.linalg.solve(M[np.ix_(idx, idx)], gs)
            value = float(gs @ ds + 0.5 * (ds @ (H[np.ix_(idx, idx)] @ ds)) - lam2 * (ds @ ds))
            if value > best_value:
                best_value = value
                best_support = support
                best_delta = np.zeros(d)
                best_delta[idx] = ds
    return OracleResult(support=best_support, delta=best_delta, value=best_value)


def make_planted_instance(d=12, support=(2, 5, 9), seed=0):
    """A sparse test problem: g supported on a few coordinates, H
    diagonally dominant PSD, lam2 from the usual ridge rule.

    Returns (g, H, lam2, support). The oracle with k = |support| recovers
    exactly the planted support, and so does the L1 path at suitable lam1.
    d must be positive and the support indices distinct and in [0, d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    for n, s in enumerate(support):
        if not 0 <= s < d:
            raise ValueError(f"support index {s} outside dimension {d}")
        if s in support[:n]:
            raise ValueError(f"support index {s} is repeated")
    rng = np.random.default_rng(seed)
    g = np.zeros(d)
    signs = np.where(rng.random(len(support)) < 0.5, -1.0, 1.0)
    mags = rng.uniform(0.6, 1.0, len(support))
    g[list(support)] = signs * mags
    diag = rng.uniform(0.5, 1.5, d)
    off = rng.standard_normal((d, d)) * 0.02
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    # rescale the coupling so diagonal dominance (hence PSD) is guaranteed
    worst = float(np.abs(off).sum(axis=1).max())
    limit = 0.5 * float(diag.min())
    if worst > limit:
        off *= limit / worst
    H = np.diag(diag) + off
    lam2 = select_lambda2(float(np.linalg.eigvalsh(H)[-1]))
    return g, H, lam2, tuple(sorted(support))


class L1Path(Record):
    """The exact L1 path: the maximizer at each breakpoint lam1[i] (falling
    from max|g| to 0) is deltas[i], and supports[i] is its support between
    lam1[i] and lam1[i + 1], where it moves linearly."""

    lam1: np.ndarray
    deltas: np.ndarray
    supports: tuple[tuple[int, ...], ...]


_EVENT_RTOL = 1e-10  # events this close to a breakpoint happen at it


def l1_path(g, H, lam2):
    """Every support of the maximizer of g^T D + 1/2 D^T H D - lam2 ||D||^2
    - lam1 ||D||_1 over lam1 >= 0, by homotopy (Osborne, Presnell & Turlach
    2000; the LARS-lasso of Efron et al. 2004). M = 2 lam2 I - H is positive
    definite, so on each piece, of support S and signs s, the maximizer is
    D_S = M_SS^{-1} (g_S - lam1 s). From D = 0 at lam1 = max|g| the next
    breakpoint is where an inactive g_j - M_j D reaches +-lam1 (j joins) or
    an active D_i reaches 0 (i leaves). Tied events happen together, which is
    exact for coordinates tied at the top of |g| when M_SS^{-1} s has their
    signs s. Returns an L1Path.
    """
    g = np.asarray(g, dtype=np.float64)
    M = 2.0 * lam2 * np.eye(g.shape[0]) - np.asarray(H, dtype=np.float64)
    lam, sign, S, a, b, pieces = np.inf, np.zeros(g.shape[0]), [], np.zeros(0), np.zeros(0), []
    while lam > 0.0:
        # the correlations are p + lam q off S, and D_S = a - lam b
        p, q = g - M[:, S] @ a, M[:, S] @ b
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack([p / (1.0 - q), -p / (1.0 + q)])
            roots[:, S] = a / b
        roots[~((roots > 0.0) & (roots < lam * (1.0 - _EVENT_RTOL)))] = 0.0
        events = roots.max(axis=0)
        lam = float(events.max(initial=0.0))
        hit = (events > 0.0) & (events >= lam * (1.0 - _EVENT_RTOL))
        D = np.zeros(g.shape[0])
        D[S] = np.where(hit[S], 0.0, a - lam * b)
        pieces.append((lam, D, tuple(S)))
        sign[hit] = np.where(sign[hit] != 0.0, 0.0, np.sign(p[hit] + lam * q[hit]))
        S = np.flatnonzero(sign).tolist()
        a, b = np.linalg.solve(M[np.ix_(S, S)], np.stack([g[S], sign[S]], axis=1)).T
    knots, deltas, supports = zip(*pieces)
    return L1Path(lam1=np.array(knots), deltas=np.array(deltas), supports=supports[1:])


def _rankdata(v):
    """Ranks starting at 1 with ties sharing their average rank."""
    s = np.sort(v)
    return (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2


def spearman_rho(a, b):
    """Spearman rank correlation (average ranks for ties) of two finite vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("inputs must be equal-length vectors")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs must be finite")
    ra = _rankdata(a)
    rb = _rankdata(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.linalg.norm(ra) * np.linalg.norm(rb))
    if denom == 0.0:
        raise ValueError("constant input has no rank correlation")
    return float(ra @ rb / denom)
