"""Saliency interpretation methods.

CAFO keeps only the first-order term of the loss around the input and
CASO adds the closed-form second-order term; both maximize the sparse
strongly concave surrogate from the solver module. Smooth variants
average the gradient and Hessian over seeded Gaussian input noise before
solving. All four sparse methods first build one CurvatureModel
(g, F, C, lam2, base) per sample, H = F C F^T being the exact curvature
(0 for CAFO), and then solve against it; chunk_results (and
run_requests, its list form) builds the models of a chunk of samples
together, and a lam1 sweep solves its whole grid against one model, one
map at a time.
The gradient baselines (vanilla gradient, SmoothGrad, integrated
gradients) are included for comparison; note the deliberate asymmetry
that integrated gradients accumulates the loss gradient while the
vanilla gradient differentiates the predicted class score.

A saliency map Delta is summarized by its sparsity eta, the fraction of
pixels whose channels are all exactly zero; the prox step produces exact
zeros so this is well defined.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

import numpy as np

from ._record import Record
from .errors import DimensionError
from .hessian import factor_gram, softmax_factor
from .netcore import Sample, _loss_cotangent, backprop_batch, forward_batch
from .solver import DEFAULT_C1, SolveResult, curvature_product, exact_solve, select_lambda2

# lam1 grid used when a sweep does not specify one
DEFAULT_LAMBDA1_GRID = (0.0, 1e-5, 1e-4, 1e-3, 6.25e-3, 1.25e-2, 2.5e-2, 5e-2)
DEFAULT_SMOOTH_N = 50
DEFAULT_SMOOTH_SIGMA = 0.15
DEFAULT_IG_STEPS = 50
# chunk_results stacks consecutive samples of one sparse method while their
# chunk columns (see _columns) stay within this bound. On 10 classes that
# is ten cafo or relu caso samples, two smooth-cafo samples at n = 50, and
# one smooth-caso sample at n = 50 (500 backprop columns, its model built
# in first-layer coordinates, h0 x h0) or any caso sample on a
# 784-256-128-10 sigmoid net (394). It keeps a chunk's working set (each
# sample's passes, factor and middle) to one or two megabytes, so the CLI's
# peak memory barely grows; stacking all 64 samples of a CASO run
# would add megabytes for little further speed. A lam1 sweep takes at
# most this many grid values per batched forward pass, for the same reason.
CHUNK_COLUMNS = 100

METHODS = (
    "grad",
    "smoothgrad",
    "integrated-gradients",
    "cafo",
    "caso",
    "smooth-cafo",
    "smooth-caso",
)

# the methods that draw seeded input noise; every other method ignores
# its seed
NOISE_METHODS = ("smoothgrad", "smooth-cafo", "smooth-caso")

# sparse method -> (smoothed, second_order). CAFO is CASO with H = 0, and
# the smooth variants expand at n noisy copies of the sample instead of it
SPARSE_METHODS = {
    "cafo": (False, False),
    "caso": (False, True),
    "smooth-cafo": (True, False),
    "smooth-caso": (True, True),
}


class SaliencyResult(Record):
    """One saliency map plus its bookkeeping.

    loss_gain is the surrogate objective value at delta and
    raw_loss_delta the actual network loss change at x + delta; both are
    None for the gradient baselines, which optimize nothing. lam1/lam2
    are None for the same reason. solve is the certified solver result
    (which solver, its steps, its KKT residual) when a solver ran.
    """

    method: str
    delta: np.ndarray
    eta: float
    p_max: float
    loss_gain: float | None = None
    raw_loss_delta: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    solve: SolveResult | None = None


def sparsity_ratio(delta, channels_per_pixel=1):
    """Fraction of pixels whose channels are all exactly 0.0.

    The flat vector is viewed as pixel-major blocks of channels_per_pixel
    consecutive entries, so d must be divisible by channels_per_pixel.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if channels_per_pixel < 1:
        raise ValueError("channels_per_pixel must be >= 1")
    if delta.size % channels_per_pixel != 0:
        raise DimensionError(
            f"vector of size {delta.size} is not divisible into "
            f"{channels_per_pixel}-channel pixels"
        )
    pix = delta.reshape(-1, channels_per_pixel)
    return float(np.all(pix == 0.0, axis=1).mean())


def _finish(method, net, samples, models, lam1s, solves, channels):
    """Wrap the solves of a chunk of samples; one batched forward pass at
    the perturbed inputs gives every raw loss change."""
    X = np.stack([s.x for s in samples])
    D = np.stack([res.delta for res in solves])
    after = forward_batch(net, X + D, [s.y for s in samples]).losses
    return [
        SaliencyResult(
            method=method,
            delta=res.delta,
            eta=sparsity_ratio(res.delta, channels),
            p_max=float(model.probs.max()),
            loss_gain=res.objective_value,
            raw_loss_delta=float(loss - model.loss),
            lam1=float(lam1),
            lam2=float(model.lam2),
            solve=res,
        )
        for model, lam1, res, loss in zip(models, lam1s, solves, after)
    ]


class CurvatureModel(Record):
    """Local model (g, F, C, lam2, base, floor) of the loss around one sample,
    built once and solved against for any lam1.

    probs and loss come from the forward pass at the sample itself.
    gradient is the loss gradient g averaged over the expansion points,
    and H = F C F^T the matching averaged Hessian, exactly, in one of two
    forms (see curvature_models). On nets of relu and identity layers with
    n c or d at most the first layer's width h0, F is the stacked (d, n c)
    factor B and middle C is None (I). Otherwise F is the read-only view
    W_0^T and C the (h0, h0) middle M: positive semidefinite for relu
    models with h0 < min(n c, d), of either sign once sigmoid layers add
    their terms. A first-order model has F None (H = 0). curvature_bound
    is the exact lambda_max of H, clamped at 0, curvature_floor its exact
    lambda_min, clamped at 0 from above (0 whenever H is positive
    semidefinite), lam2 = curvature_bound/2 + c1, and inverse the Woodbury
    base (2 lam2 I - F^T F C)^{-1} of exact_solve, None for H = 0 or F
    wider than d.
    """

    probs: np.ndarray
    loss: float
    gradient: np.ndarray
    factor: np.ndarray | None
    middle: np.ndarray | None
    curvature_bound: float
    curvature_floor: float
    lam2: float
    inverse: np.ndarray | None

    def hvp(self, V):
        """H V, for a vector or an (m, d) stack of rows."""
        return curvature_product(self.factor, self.middle, V)


def _factor_width(net):
    """Curvature factor columns per expansion point: c softmax columns and
    one per sigmoid unit."""
    return net.num_classes + sum(l.out_dim for l in net.spec.layers if l.activation == "sigmoid")


def curvature_models(net, samples, points=None, second_order=True, c1=DEFAULT_C1):
    """Build the CurvatureModels of a chunk of samples in one pass.

    points is None to expand each sample at itself, or one (n, d) array
    of expansion points per sample, all with the same n. One batched
    forward pass covers the samples and, given points, a second covers
    every expansion point. A batched backprop seeded with p_i - e_y gives
    the loss gradients and every layer's pre-activation cotangents dz_l;
    second_order=False stops there. The Hessian at a point is (Bishop 1992)

        H_i = J^T L_i L_i^T J + sum_l J_l^T diag(w_l) J_l,   w_l = dz_l (1 - 2 a_l),

    with J the input Jacobian of the logits, L_i the closed-form factor of
    diag(p_i) - p_i p_i^T (hessian.softmax_factor), and J_l that of the
    pre-activations of sigmoid layer l (sigma'' = sigma' (1 - 2 sigma)).
    Without sigmoid layers, and with n c or d at most the first layer's
    width h0, one more backprop, seeded with every L_i, yields each
    sample's B = [J_1^T L_1, ..., J_n^T L_n] / sqrt(n), with mean_i H_i =
    B B^T, and lambda_max comes from the smaller Gram matrix of B by one
    batched eigvalsh for the chunk. Every Jacobian ends in W_0, so
    mean_i H_i = W_0^T M W_0 for an h0 x h0 middle M, the form taken
    otherwise: by sigmoid nets, whose terms have either sign, and by relu
    nets with h0 < min(n c, d) (smooth-caso on 784-256-128-10), where
    every matrix decomposed or inverted is then h0 x h0 instead of min(n
    c, d) x min(n c, d). M sums E^T E over the first layer's cotangents E
    of the seeds L_i / sqrt(n), E_l^T
    diag(w_l / n) E_l over those of unit seeds at each deeper sigmoid
    layer l (a block of at most d factor columns, _factor_width(net) per
    point, at a time), and diag(sum_i w_0 / n) for a sigmoid first layer.
    lambda_max and lambda_min are the top and bottom eigenvalues of R M R^T
    for R^T R = W_0 W_0^T (Network.input_r). Each model's Woodbury base
    overwrites the Gram matrix F^T F C already formed, B^T B or
    Network.input_gram @ M, with 2 lam2 I - F^T F C and inverts it.
    """
    k = len(samples)
    y = np.array([s.y for s in samples])
    clean = forward_batch(net, np.stack([s.x for s in samples]), y)
    m, expand = 1, clean
    if points is not None:
        m = points[0].shape[0]
        expand = forward_batch(net, np.concatenate(points))  # only clean.losses is read
    P = expand.probs
    c = P.shape[1]
    d = net.input_dim
    W0 = net.weights[0]
    dz = backprop_batch(net, expand, _loss_cotangent(P, np.repeat(y, m))[:, None, :],
                        cotangents=True)
    G = dz[0].reshape(k, m, -1).mean(axis=1) @ W0

    def model(i, bound=0.0, F=None, C=None, base=None, floor=0.0):
        lam2 = select_lambda2(bound, c1)
        if base is not None:  # in place: base is 2 lam2 I - F^T F C, then inverted
            base *= -1.0
            base[np.diag_indices_from(base)] += 2.0 * lam2
            base = np.linalg.inv(base)
        return CurvatureModel(probs=clean.probs[i], loss=float(clean.losses[i]),
                              gradient=np.ascontiguousarray(G[i]), factor=F, middle=C,
                              curvature_bound=bound, curvature_floor=floor, lam2=lam2,
                              inverse=base)

    if not second_order:
        return [model(i) for i in range(k)]

    # lseeds[r, j] is column j of L_r: sqrt(p_rj) e_j - sqrt(p_rj) p_r
    lseeds = np.swapaxes(softmax_factor(P), 1, 2) / np.sqrt(m)
    sigmoid = [l for l, layer in enumerate(net.spec.layers) if layer.activation == "sigmoid"]
    if not sigmoid and min(m * c, d) <= W0.shape[0]:
        # B's Gram matrix is at most h0 square. (k, d, m*c): each sample's
        # factor, a view of the backprop's columns
        B = backprop_batch(net, expand, lseeds)
        B = B.reshape(d, k, m * c).transpose(1, 0, 2)
        grams = factor_gram(B)
        bounds = np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0)
        if m * c > d:
            grams = [None] * k  # B B^T: no Woodbury base to build
        return [model(i, float(bounds[i]), B[i], None, grams[i]) for i in range(k)]

    weights = [dz[l] * (1.0 - 2.0 * expand.activations[l]) / m for l in sigmoid]
    deeper = [(l, w) for l, w in zip(sigmoid, weights) if l > 0]
    block = max(d // _factor_width(net), 1)
    R = net.input_r
    F = W0.T
    F.flags.writeable = False

    def first_layer_model(i):
        M = np.zeros((W0.shape[0], W0.shape[0]))
        for lo in range(i * m, (i + 1) * m, block):
            rows = slice(lo, min(lo + block, (i + 1) * m))
            at = expand.rows(rows)
            E = backprop_batch(net, at, lseeds[rows], cotangents=True)[0]
            M += E.T @ E
            for l, w in deeper:
                h = w.shape[1]
                units = np.broadcast_to(np.eye(h), (at.X.shape[0], h, h))
                E = backprop_batch(net, at, units, start=l, cotangents=True)[0]
                M += (E.T * w[rows].ravel()) @ E
        if sigmoid and sigmoid[0] == 0:
            M[np.diag_indices_from(M)] += weights[0][i * m:(i + 1) * m].sum(axis=0)
        w = np.linalg.eigvalsh(R @ M @ R.T)
        return model(i, max(float(w[-1]), 0.0), F, M, net.input_gram @ M, min(float(w[0]), 0.0))

    return [first_layer_model(i) for i in range(k)]


def _noise_inputs(xs, n, sigma, seeds):
    """n noisy copies of each x of xs, drawn from its seed with noise scale
    sigma * (max(x) - min(x)); None for sigma = 0, where the noisy methods
    expand at each x itself."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    if sigma == 0.0:
        return None
    return [x + (sigma * float(x.max() - x.min()))
            * np.random.default_rng(seed).standard_normal((n, x.shape[0]))
            for x, seed in zip(xs, seeds)]


def _sparse_models(method, samples, net, seeds, n=DEFAULT_SMOOTH_N,
                   sigma=DEFAULT_SMOOTH_SIGMA, c1=DEFAULT_C1):
    """The CurvatureModels a SPARSE_METHODS entry solves against, one per
    sample, built in one pass.

    Smoothed methods expand each sample at n noisy copies drawn from its
    seed, or at the sample itself when sigma = 0; the others expand at the
    sample. Knobs the method does not use are ignored; lam2 = L/2 + c1.
    """
    smoothed, second_order = SPARSE_METHODS[method]
    points = _noise_inputs([s.x for s in samples], n, sigma, seeds) if smoothed else None
    return curvature_models(net, samples, points, second_order, c1)


def _sparse_model(method, sample, net, seed=0, **model_kwargs):
    """The CurvatureModel of one sample: _sparse_models of [sample]."""
    return _sparse_models(method, [sample], net, [seed], **model_kwargs)[0]


def _solve_models(method, net, samples, models, lam1s, channels=1):
    """Maximize the surrogates of a list of CurvatureModels, one lam1 per
    row, each exactly by exact_solve; rows may repeat a model."""
    solves = [exact_solve(m.gradient, lam1, m.lam2, m.factor, m.middle, m.inverse,
                          m.curvature_floor)
              for m, lam1 in zip(models, lam1s, strict=True)]
    return _finish(method, net, samples, models, lam1s, solves, channels)


def cafo(sample, net, lam1=0.0, c1=DEFAULT_C1, channels=1):
    """Curvature-free interpretation: first-order term only (H = 0).

    The ridge rule lam2 = L/2 + c1 is applied with L = 0, so lam2 = c1.
    """
    return run_request(net, MethodRequest("cafo", sample, lam1, c1, channels=channels))


def caso(sample, net, lam1=0.0, c1=DEFAULT_C1, channels=1):
    """Curvature-aware interpretation using the closed-form Hessian.

    Builds the CurvatureModel at the sample, then solves with
    lam2 = L/2 + c1. H is exact on every network (W A W^T on
    piecewise-linear ones, plus the sigmoid layers' signed terms
    otherwise; see curvature_models) and L is its exact lambda_max,
    clamped at 0.
    """
    return run_request(net, MethodRequest("caso", sample, lam1, c1, channels=channels))


def smooth_cafo(sample, net, lam1=0.0, n=DEFAULT_SMOOTH_N, sigma=DEFAULT_SMOOTH_SIGMA, seed=0,
                c1=DEFAULT_C1, channels=1):
    """CAFO with the gradient averaged over n seeded Gaussian perturbations.

    sigma is a fraction of the input's dynamic range. The noise is drawn
    once up front and reused for the whole solve; sigma = 0 reduces to
    plain cafo exactly.
    """
    return run_request(net, MethodRequest("smooth-cafo", sample, lam1, c1, n, sigma,
                                          seed=seed, channels=channels))


def smooth_caso(sample, net, lam1=0.0, n=DEFAULT_SMOOTH_N, sigma=DEFAULT_SMOOTH_SIGMA, seed=0,
                c1=DEFAULT_C1, channels=1):
    """CASO with gradient and Hessian averaged over n noisy inputs.

    The CurvatureModel is expanded at all n noisy points, so the averaged
    operator is mean_i H_i (W_0^T M W_0 on piecewise-linear networks once n
    c and d both exceed the first layer's width, B B^T otherwise) and the
    curvature bound is its exact lambda_max. The noise is drawn once from
    seed; sigma = 0 reduces to plain caso exactly.
    """
    return run_request(net, MethodRequest("smooth-caso", sample, lam1, c1, n, sigma,
                                          seed=seed, channels=channels))


def _gradient_map(method, sample, net, channels, points=None, path=None):
    """Mean input gradient of the class score predicted at the sample, over
    the rows of the (n, d) points, or at the sample itself when points is
    None: one pass at the sample, one stacked pass over the points and one
    backprop_batch. Given a path, the gradient is the loss's instead, and
    the map is path times it."""
    clean = forward_batch(net, sample.x[None], [sample.y])
    at = clean if points is None else forward_batch(net, points)
    if path is None:
        seeds = np.zeros_like(at.probs)
        seeds[:, int(np.argmax(clean.logits))] = 1.0
    else:
        seeds = _loss_cotangent(at.probs, sample.y)
    delta = backprop_batch(net, at, seeds[:, None, :]).mean(axis=1)
    delta = delta if path is None else path * delta
    return SaliencyResult(
        method=method,
        delta=delta,
        eta=sparsity_ratio(delta, channels),
        p_max=float(clean.probs.max()),
    )


def vanilla_gradient(sample, net, channels=1):
    """Gradient of the predicted class score with respect to the input."""
    return _gradient_map("grad", sample, net, channels)


def smoothgrad(
    sample,
    net,
    n=DEFAULT_SMOOTH_N,
    sigma=DEFAULT_SMOOTH_SIGMA,
    seed=0,
    channels=1,
):
    """Vanilla gradient averaged over n seeded Gaussian perturbations.

    The predicted class is fixed at the clean input; sigma is a fraction
    of the input's dynamic range and sigma = 0 reduces to the plain
    vanilla gradient exactly. The n noisy inputs take one stacked pass.
    """
    points = _noise_inputs([sample.x], n, sigma, [seed])
    return _gradient_map("smoothgrad", sample, net, channels, points and points[0])


def integrated_gradients(sample, net, baseline=None, steps=DEFAULT_IG_STEPS, channels=1):
    """Integrated gradients of the loss along the straight baseline path.

    Midpoint Riemann sum with `steps` panels:

        IG = (x - x') * 1/m sum_k grad_loss(x' + (k - 1/2)/m (x - x'))

    Every path point takes one stacked pass. The default baseline is the
    zero vector. The completeness residual |sum(IG) - (loss(x) - loss(x'))|
    shrinks as the step count grows.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = sample.x
    if baseline is None:
        baseline = np.zeros_like(x)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != x.shape:
        raise DimensionError("baseline shape does not match the input")
    path = x - baseline
    t = (np.arange(1, steps + 1) - 0.5) / steps
    return _gradient_map("integrated-gradients", sample, net, channels,
                           baseline + t[:, None] * path, path)


class SweepOutcome(Record):
    """Result of a lam1 sweep.

    results holds one SaliencyResult per grid value in grid order;
    refinements the extra solves produced by halving; selected_index
    points into results + refinements. target_met is False when no
    candidate ever landed in eta_range and the selection is best-effort.
    """

    grid: tuple[float, ...]
    eta_range: tuple[float, float]
    results: tuple[SaliencyResult, ...]
    refinements: tuple[SaliencyResult, ...]
    selected_index: int
    target_met: bool

    @property
    def all_results(self):
        return self.results + self.refinements

    @property
    def selected(self):
        return self.all_results[self.selected_index]


def lambda1_sweep(
    sample,
    net,
    method="cafo",
    grid=None,
    eta_range=(0.75, 1.0),
    max_refinements=20,
    channels=1,
    c1=DEFAULT_C1,
    **model_kwargs,
):
    """Solve across a lam1 grid and pick the sparsest useful map.

    Among candidates with eta in [eta_range) the one with the highest
    surrogate objective wins, ties going to the smaller lam1. If no grid
    candidate qualifies, the first lam1 whose map is all zero is halved
    and re-solved, up to max_refinements times. When even that never
    reaches the range the outcome is flagged and the selection falls back
    to the densest non-trivial candidate. method is a SPARSE_METHODS
    entry; its CurvatureModel, Woodbury base (one inv) included, is built
    once from c1 and model_kwargs (n, sigma, seed; unused ones are
    ignored), and every grid value and refinement is solved against it.
    The grid values take one batched forward pass per CHUNK_COLUMNS of
    them; each refinement is a solve of its own. The results match
    separate calls at each lam1 to rounding (bitwise for first-order
    methods).
    """
    if method not in SPARSE_METHODS:
        raise ValueError(f"unknown sweep method {method!r}")
    if grid is None:
        grid = DEFAULT_LAMBDA1_GRID
    grid = tuple(float(v) for v in grid)
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    if any(v < 0 for v in grid):
        raise ValueError("grid values must be nonnegative")
    if list(grid) != sorted(set(grid)):
        raise ValueError("grid must be strictly ascending")
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("eta_range must satisfy 0 <= lo < hi <= 1")
    if max_refinements < 0:
        raise ValueError("max_refinements must be nonnegative")
    model = _sparse_model(method, sample, net, c1=c1, **model_kwargs)

    def solve(lams):
        k = len(lams)
        return _solve_models(method, net, [sample] * k, [model] * k, lams, channels)

    def in_range(r):
        return lo <= r.eta < hi

    results = []
    for start in range(0, len(grid), CHUNK_COLUMNS):
        results.extend(solve(grid[start:start + CHUNK_COLUMNS]))
    refinements = []
    if not any(in_range(r) for r in results):
        zero_at = next(
            (i for i, r in enumerate(results) if not np.any(r.delta)), None
        )
        if zero_at is not None:
            lam = grid[zero_at]
            for _ in range(max_refinements):
                lam = lam / 2.0
                r = solve([lam])[0]
                refinements.append(r)
                if in_range(r):
                    break

    combined = results + refinements
    qualifying = [i for i, r in enumerate(combined) if in_range(r)]
    if qualifying:
        selected = max(
            qualifying, key=lambda i: (combined[i].loss_gain, -combined[i].lam1)
        )
        target_met = True
    else:
        target_met = False
        nontrivial = [i for i, r in enumerate(combined) if r.eta < hi]
        if nontrivial:
            selected = max(
                nontrivial, key=lambda i: (combined[i].eta, combined[i].loss_gain)
            )
        else:
            selected = 0
    return SweepOutcome(
        grid=grid,
        eta_range=(lo, hi),
        results=tuple(results),
        refinements=tuple(refinements),
        selected_index=selected,
        target_met=target_met,
    )


class MethodRequest(Record):
    """A method name, a sample, and every knob the methods understand; the
    sparse methods solve exactly (solver.exact_solve), so none is a solver's."""

    method: str
    sample: Sample
    lam1: float = 0.0
    c1: float = DEFAULT_C1
    smooth_n: int = DEFAULT_SMOOTH_N
    smooth_sigma: float = DEFAULT_SMOOTH_SIGMA
    ig_steps: int = DEFAULT_IG_STEPS
    seed: int = 0
    channels: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def _run_baseline(net, request):
    """A gradient-baseline request, which runs one sample at a time."""
    m = request.method
    s = request.sample
    ch = request.channels
    if m == "grad":
        return vanilla_gradient(s, net, channels=ch)
    if m == "smoothgrad":
        return smoothgrad(
            s, net, n=request.smooth_n, sigma=request.smooth_sigma,
            seed=request.seed, channels=ch,
        )
    return integrated_gradients(s, net, steps=request.ig_steps, channels=ch)


def _columns(net, request):
    """Chunk columns a sparse request takes: the columns of its expansion
    points' backprops (times the curvature factor width for second-order
    methods), but at least c, so that no chunk stacks more samples than a
    relu CASO chunk; None for the gradient baselines."""
    if request.method not in SPARSE_METHODS:
        return None
    smoothed, second_order = SPARSE_METHODS[request.method]
    points = request.smooth_n if smoothed and request.smooth_sigma != 0.0 else 1
    return max(points * _factor_width(net) if second_order else points, net.num_classes)


# every MethodRequest field but the two that may differ within a chunk
_shared_knobs = attrgetter(*(n for n in MethodRequest.__match_args__ if n not in ("sample", "seed")))


def _chunks(net, requests):
    """Split requests, in order, into chunks solved together: each run of
    consecutive sparse requests that differ only in sample and seed, cut
    into pieces of CHUNK_COLUMNS // _columns requests (at least one), and
    each other request alone."""
    for _, run in groupby(requests, _shared_knobs):
        run = list(run)
        cols = _columns(net, run[0])
        size = 1 if cols is None else max(CHUNK_COLUMNS // cols, 1)
        for start in range(0, len(run), size):
            yield run[start:start + size]


def chunk_results(net, requests):
    """Yield the results of a sequence of MethodRequests one chunk at a
    time, as lists, in order.

    Sparse requests are solved a chunk of whole samples at a time (see
    _chunks): one batched forward pass and two batched backprops (more on
    sigmoid nets) build the chunk's models, each sample is solved on its
    own, and one batched forward pass gives their raw loss changes. Each
    gradient baseline is a chunk of one. Chunking moves the results by
    rounding only.
    """
    for chunk in _chunks(net, requests):
        r = chunk[0]
        if r.method not in SPARSE_METHODS:
            yield [_run_baseline(net, r)]
            continue
        samples = [q.sample for q in chunk]
        models = _sparse_models(r.method, samples, net, [q.seed for q in chunk],
                                r.smooth_n, r.smooth_sigma, r.c1)
        yield _solve_models(r.method, net, samples, models, [r.lam1] * len(chunk), r.channels)


def run_requests(net, requests):
    """Results of a sequence of MethodRequests, in order: chunk_results
    as one list."""
    return [res for chunk in chunk_results(net, requests) for res in chunk]


def run_request(net, request):
    """Dispatch a MethodRequest to the matching interpretation method."""
    return run_requests(net, [request])[0]
