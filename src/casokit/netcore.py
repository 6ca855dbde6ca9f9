"""Small dense feedforward classifiers with exact forward and reverse passes.

Everything runs in float64. A network is the composition

    a_0 = x,   z_l = W_l a_{l-1} + b_l,   a_l = act_l(z_l),

with an identity activation on the last layer so that a_L are the logits.
Class probabilities are softmax(logits) and the loss is the cross entropy
-log p_y in nats. Networks are immutable once built; training returns a
new network instead of mutating in place.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import DimensionError, NonFiniteError

ACTIVATIONS = ("relu", "sigmoid", "identity")

# pre-activation magnitude below which a relu unit counts as sitting on a kink
KINK_EPS = 1e-12
# rows per forward_batch of train_sgd's accuracy check: a bounded working set
# (under 2 MB of activations on a 784-256-128-10 net) at any dataset size
ACCURACY_ROWS = 256


class LayerSpec(Record):
    """One dense layer: out = activation(W @ in + b)."""

    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(
                f"layer dims must be positive, got {self.in_dim}x{self.out_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class NetworkSpec(Record):
    """Layer structure of a feedforward classifier.

    Consecutive layer dimensions must chain, the final activation must be
    'identity' (that layer produces the logits), and the output dimension
    is the class count c >= 2.
    """

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("a network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.out_dim != cur.in_dim:
                raise DimensionError(
                    f"layer dims do not chain: {prev.out_dim} -> {cur.in_dim}"
                )
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer must use the identity activation")
        if self.layers[-1].out_dim < 2:
            raise ValueError("need at least 2 classes")

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def num_classes(self):
        return self.layers[-1].out_dim


def _frozen_f64(a):
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


class Network(Record):
    """A NetworkSpec together with its parameters.

    weights[l] has shape (out_dim, in_dim) and biases[l] shape (out_dim,),
    matching spec.layers[l]. The arrays are copied and marked read-only at
    construction, so a Network is a value.
    """

    spec: NetworkSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not len(self.weights) == len(self.biases) == len(self.spec.layers):
            raise DimensionError("parameter count does not match layer count")
        frozen_w = []
        frozen_b = []
        for l, (layer, W, b) in enumerate(zip(self.spec.layers, self.weights, self.biases)):
            W = np.asarray(W, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if W.shape != (layer.out_dim, layer.in_dim):
                raise DimensionError(
                    f"layer {l}: weight shape {W.shape} does not match "
                    f"({layer.out_dim}, {layer.in_dim})"
                )
            if b.shape != (layer.out_dim,):
                raise DimensionError(
                    f"layer {l}: bias shape {b.shape} does not match ({layer.out_dim},)"
                )
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise NonFiniteError(f"layer {l}: parameters must be finite")
            frozen_w.append(_frozen_f64(W))
            frozen_b.append(_frozen_f64(b))
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))

    @property
    def input_dim(self):
        return self.spec.input_dim

    @property
    def num_classes(self):
        return self.spec.num_classes

    @cached_property
    def input_r(self):
        """An upper triangular R with R^T R = W_0 W_0^T, computed once: the
        transposed Cholesky factor of input_gram, or the R of the reduced QR
        W_0^T = Q R where that Gram matrix is singular (more units than
        inputs) or Cholesky finds it so."""
        W0 = self.weights[0]
        if W0.shape[0] <= W0.shape[1]:
            try:
                return np.linalg.cholesky(self.input_gram).T
            except np.linalg.LinAlgError:
                pass
        return np.linalg.qr(W0.T, mode="r")

    @cached_property
    def input_gram(self):
        """The Gram matrix W_0 W_0^T, formed once and read-only."""
        gram = self.weights[0] @ self.weights[0].T
        gram.flags.writeable = False
        return gram


def _class_index(y):
    """y as a Python int; a label that is not an integer is a ValueError,
    never truncated."""
    try:
        return operator.index(y)
    except TypeError:
        raise ValueError(f"label {y!r} is not an integer") from None


def _integer_labels(labels):
    """labels as an array of an integer dtype; any other non-empty array is
    a ValueError, never truncated."""
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, not {labels.dtype}")
    return labels


class Sample(Record):
    """One labelled input: x is a flat float64 vector, y a class index."""

    x: np.ndarray
    y: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise DimensionError("sample x must be a flat vector")
        if not np.isfinite(x).all():
            raise NonFiniteError("sample x must be finite")
        y = _class_index(self.y)
        if y < 0:
            raise ValueError("label must be a nonnegative class index")
        object.__setattr__(self, "x", _frozen_f64(x))
        object.__setattr__(self, "y", y)


class Dataset(Record):
    """A batch of samples: X is (n, d), labels is (n,) of class indices."""

    X: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        labels = _integer_labels(self.labels).astype(np.int64)
        if X.ndim != 2:
            raise DimensionError("X must be 2-d (n, d)")
        if labels.shape != (X.shape[0],):
            raise DimensionError("labels must be (n,) matching X rows")
        if not np.isfinite(X).all():
            raise NonFiniteError("dataset features must be finite")
        if X.shape[0] > 0 and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        X = X.copy()
        labels = labels.copy()
        X.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]

    def sample(self, i):
        """Row i as a Sample; i must lie in [0, n)."""
        if not 0 <= i < self.n:
            raise ValueError(f"sample index {i} outside the dataset of {self.n}")
        return Sample(self.X[i], int(self.labels[i]))


class ForwardTrace(Record):
    """Everything a single forward pass produced.

    pre_activations[l] and activations[l] correspond to layer l; logits is
    activations[-1], probs the softmax of the logits, and loss the cross
    entropy -log p_y in nats (None when no label was supplied).
    """

    x: np.ndarray
    y: int | None
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    logits: np.ndarray
    probs: np.ndarray
    loss: float | None


class BatchTrace(Record):
    """One forward pass over the rows of X, row i of every array belonging
    to X[i].

    pre_activations[l] and activations[l] are (n, out_dim) for layer l;
    logits and probs are (n, c), and losses holds each row's cross entropy
    (None when no label was supplied).
    """

    X: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    logits: np.ndarray
    probs: np.ndarray
    losses: np.ndarray | None

    def rows(self, sel):
        """The trace of the rows sel (a slice), as views of every array."""
        return BatchTrace(self.X[sel], tuple(z[sel] for z in self.pre_activations),
                          tuple(a[sel] for a in self.activations), self.logits[sel],
                          self.probs[sel], None if self.losses is None else self.losses[sel])


class LocalLinearization(Record):
    """Affine model logits(x') ~= W^T x' + b around the expansion point.

    W is (d, c) with column j the exact input gradient of logit j, and
    b = logits - W^T x, so the model reproduces the logits at x by
    construction. kink_warning is set when some relu pre-activation sits
    within KINK_EPS of zero.
    """

    W: np.ndarray
    b: np.ndarray
    kink_warning: bool


class TrainResult(Record):
    network: Network
    accuracy: float
    epoch_losses: tuple[float, ...]


def _apply_activation(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        # exp of -|z| stays overflow free on both tails
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return z


def _activation_slope(z, a, kind):
    """Derivative of the activation at pre-activation z with value a."""
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


def _layers(spec, weights, biases, a):
    """The forward layer loop: pre-activations and activations of the rows
    of the (n, d) array a, as z_l = a_{l-1} W_l^T + b_l."""
    pre = []
    act = []
    for layer, W, b in zip(spec.layers, weights, biases):
        z = a @ W.T + b
        pre.append(z)
        a = _apply_activation(z, layer.activation)
        act.append(a)
    return pre, act


def _softmax_xent(logits, labels):
    """Softmax probabilities of the (n, c) logits and, given labels (one
    per row, or None), the cross entropies -log p_y, computed via
    logsumexp (never through the probabilities) and clamped at zero
    against rounding."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    losses = None if labels is None else np.maximum(
        np.log(total[:, 0]) - shifted[np.arange(len(e)), labels], 0.0)
    return e / total, losses


def _loss_cotangent(probs, labels):
    """p - e_y for each row of the (n, c) probabilities and its label (one
    shared class index, or one per row): the cross entropy's cotangent at
    the logits."""
    seed = probs.copy()
    seed[np.arange(len(seed)), labels] -= 1.0
    return seed


def _reverse(spec, weights, pre, act, dz, start):
    """The reverse layer loop: the pre-activation cotangents dz_l of layers
    0..start, from dz (n k, h), k cotangents of layer start's for each of
    the n rows of the forward pass (pre, act)."""
    n, k = len(pre[0]), len(dz) // len(pre[0])
    dzs = [dz]
    for l in range(start, 0, -1):
        slope = _activation_slope(pre[l - 1], act[l - 1], spec.layers[l - 1].activation)
        dz = ((dz @ weights[l]).reshape(n, k, -1) * slope[:, None, :]).reshape(n * k, -1)
        dzs.append(dz)
    return dzs[::-1]


def _kink_gap(spec, pre):
    """The smallest |z| over the relu units of the pre-activations pre, inf
    without relu units: how near the point sits to a kink."""
    return min((float(np.abs(z).min()) for layer, z in zip(spec.layers, pre)
                if layer.activation == "relu"), default=np.inf)


def _row_trace(net, x, y=None):
    """forward_batch of the one input x, checked to be a (d,) vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionError(
            f"input shape {x.shape} does not match network ({net.input_dim},)"
        )
    return forward_batch(net, x[None], None if y is None else [y])


def forward(net, x, y=None):
    """Run the network on x, returning a ForwardTrace: the one-row case of
    forward_batch."""
    t = _row_trace(net, x, y)
    return ForwardTrace(
        x=t.X[0],
        y=None if y is None else int(y),
        pre_activations=tuple(z[0] for z in t.pre_activations),
        activations=tuple(a[0] for a in t.activations),
        logits=t.logits[0],
        probs=t.probs[0],
        loss=None if y is None else float(t.losses[0]),
    )


def forward_batch(net, X, y=None):
    """Run the network on every row of the (n, d) array X in one pass.

    The layers apply as X W_l^T + b_l. With labels y (one shared class
    index, or one per row) losses are the cross entropies -log p_y,
    computed via logsumexp (never through the probabilities) and clamped
    at zero against rounding. forward is its one-row case.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionError(
            f"batch shape {X.shape} does not match network (n, {net.input_dim})"
        )
    if not np.isfinite(X).all():
        raise NonFiniteError("input must be finite")
    n = X.shape[0]
    labels = None
    if y is not None:
        labels = _integer_labels(y)
        if labels.ndim == 0:
            labels = np.full(n, int(labels))
        elif labels.shape != (n,):
            raise DimensionError(f"labels of shape {labels.shape} do not match {n} rows")
        labels = labels.astype(np.int64)
        bad = (labels < 0) | (labels >= net.num_classes)
        if bad.any():
            raise ValueError(f"label {labels[bad][0]} outside [0, {net.num_classes})")
    pre, act = _layers(net.spec, net.weights, net.biases, X)
    logits = act[-1]
    if not np.isfinite(logits).all():
        raise NonFiniteError("forward pass produced non-finite logits")
    probs, losses = _softmax_xent(logits, labels)
    return BatchTrace(
        X=X,
        pre_activations=tuple(pre),
        activations=tuple(act),
        logits=logits,
        probs=probs,
        losses=losses,
    )


def backprop_batch(net, trace, seeds, start=None, cotangents=False):
    """Pull cotangents back to the input at every row of a BatchTrace.

    seeds is (n, k, h): k cotangents for each of the n rows of the
    pre-activations z of layer start (default the last: the logits). The
    result is (d, n*k), column i*k + j holding J_i^T seeds[i, j] with J_i
    the (h, d) input Jacobian of z at row i, one matrix product per layer
    and no per-row Jacobian. cotangents=True returns instead the list of
    cotangents dz_l (n*k, width) of layers 0..start, before W_0^T dz_0^T.
    """
    layers = net.spec.layers
    start = len(layers) - 1 if start is None else start
    n, k, h = seeds.shape
    if n != trace.X.shape[0] or h != layers[start].out_dim:
        raise DimensionError(
            f"seeds of shape {seeds.shape} do not match a batch of "
            f"{trace.X.shape[0]} rows and layer {start}'s {layers[start].out_dim} units"
        )
    dzs = _reverse(net.spec, net.weights, trace.pre_activations, trace.activations,
                   seeds.reshape(n * k, h), start)
    return dzs if cotangents else net.weights[0].T @ dzs[0].T


def _row_loss_gradient(net, x, y):
    """The one-row trace at x and the loss gradient there: backprop_batch
    of the loss cotangent p - onehot(y)."""
    t = _row_trace(net, x, y)
    return t, backprop_batch(net, t, _loss_cotangent(t.probs, int(y))[:, None, :])[:, 0]


def input_gradient(net, x, y):
    """Exact gradient of the cross-entropy loss with respect to the input."""
    return _row_loss_gradient(net, x, y)[1]


def logit_gradient(net, x, class_index):
    """Exact gradient of one logit (not the loss) with respect to the input."""
    c = net.num_classes
    if not 0 <= int(class_index) < c:
        raise ValueError(f"class index {class_index} outside [0, {c})")
    seed = np.zeros((1, 1, c))
    seed[..., int(class_index)] = 1.0
    return backprop_batch(net, _row_trace(net, x), seed)[:, 0]


def local_linearization(net, x):
    """Affine model of the logits around x.

    W is one backprop_batch at the row x seeded with the identity (one
    reverse pass per logit), and b = logits - W^T x.
    """
    t = _row_trace(net, x)
    W = backprop_batch(net, t, np.eye(net.num_classes)[None])
    b = t.logits[0] - W.T @ t.X[0]
    kink = _kink_gap(net.spec, t.pre_activations) <= KINK_EPS
    return LocalLinearization(W=W, b=b, kink_warning=kink)


def train_sgd(net, dataset, learning_rate=0.1, epochs=10, seed=0):
    """Plain per-sample SGD on the cross entropy, deterministic given seed.

    Visits samples in a fresh seeded permutation each epoch and applies one
    gradient step per sample. Returns a new network plus the final training
    accuracy; epochs=0 returns the parameters unchanged.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if dataset.n == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.dim != net.input_dim:
        raise DimensionError("dataset width does not match network input")
    if int(dataset.labels.max()) >= net.num_classes:
        raise ValueError("dataset label outside the network's class range")

    spec = net.spec
    Ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    rng = np.random.default_rng(seed)
    epoch_losses = []

    for _ in range(epochs):
        order = rng.permutation(dataset.n)
        total = 0.0
        for i in order:
            x = dataset.X[i : i + 1]
            y = int(dataset.labels[i])
            pre, act = _layers(spec, Ws, bs, x)
            probs, loss = _softmax_xent(act[-1], y)
            total += float(loss[0])
            dzs = _reverse(spec, Ws, pre, act, _loss_cotangent(probs, y), len(Ws) - 1)
            for l, (dz, a_prev) in enumerate(zip(dzs, [x] + act[:-1])):
                Ws[l] = Ws[l] - learning_rate * np.outer(dz, a_prev)
                bs[l] = bs[l] - learning_rate * dz[0]
            if not all(np.isfinite(W).all() for W in Ws):
                raise NonFiniteError("training diverged to non-finite parameters")
        epoch_losses.append(total / dataset.n)

    trained = Network(spec, tuple(Ws), tuple(bs))
    correct = 0
    for lo in range(0, dataset.n, ACCURACY_ROWS):
        rows = slice(lo, lo + ACCURACY_ROWS)
        pred = forward_batch(trained, dataset.X[rows]).logits.argmax(axis=1)
        correct += int(np.count_nonzero(pred == dataset.labels[rows]))
    return TrainResult(
        network=trained,
        accuracy=correct / dataset.n,
        epoch_losses=tuple(epoch_losses),
    )


def init_network(spec, seed=0):
    """He-style random initialization, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    Ws = []
    bs = []
    for layer in spec.layers:
        scale = np.sqrt(2.0 / layer.in_dim)
        Ws.append(rng.standard_normal((layer.out_dim, layer.in_dim)) * scale)
        bs.append(np.zeros(layer.out_dim))
    return Network(spec, tuple(Ws), tuple(bs))


def make_blobs(classes=10, dim=16, n_per_class=20, center_scale=2.0, noise=1.0, seed=0):
    """Gaussian blob classification data, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim)) * center_scale
    X = np.empty((classes * n_per_class, dim))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for k in range(classes):
        lo = k * n_per_class
        X[lo : lo + n_per_class] = centers[k] + noise * rng.standard_normal(
            (n_per_class, dim)
        )
        labels[lo : lo + n_per_class] = k
    return Dataset(X, labels)


def sample_kink_safe(net, rng, margin=1e-3, scale=1.0, max_tries=1000):
    """Draw a standard-normal input whose relu pre-activations all sit at
    least `margin` away from zero, resampling until that holds."""
    for _ in range(max_tries):
        x = rng.standard_normal(net.input_dim) * scale
        if _kink_gap(net.spec, forward(net, x).pre_activations) > margin:
            return x
    raise RuntimeError(f"no kink-safe sample found in {max_tries} tries")
