"""Seeded benchmark inputs, written with numpy alone.

The program under test never generates its own inputs here: the model
files and the dataset come from this module, in the formats the loaders
document (model JSON with per-layer "in", "out", "activation", "weights",
"bias"; CSV with the integer label in the last column). Nothing from
casokit is imported, so a change to the program cannot change its inputs.

Both models have the fixed MNIST shape 784 -> 256 -> 128 -> 10. The
100 x 784 dataset holds faint-to-bold stroke images: every row is drawn
at its own ink intensity, so the relu model (positively homogeneous up to
its small biases) sees logits from near-flat to sharply peaked and the
batch spans low to high confidence p_max.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from reference import Model, noise_points

SHAPE = (784, 256, 128, 10)
SIDE = 28
ROWS = 100
# logit gain of the output layer; sets how fast confidence rises with ink
OUTPUT_GAIN = 8.0
# length scale, in pixels, of the first layer's receptive fields
FIELD_BLUR = 2.0


def _blur(images, width=FIELD_BLUR):
    """Separable Gaussian blur of a stack of SIDE x SIDE images."""
    t = np.arange(-3 * int(width), 3 * int(width) + 1)
    k = np.exp(-0.5 * (t / width) ** 2)
    k /= k.sum()
    out = np.apply_along_axis(np.convolve, -1, images, k, mode="same")
    return np.apply_along_axis(np.convolve, -2, out, k, mode="same")


def make_model(rng, activation):
    """He-scaled dense layers (relu), or scaled to the sigmoid's slope of
    1/4 at rest, with small biases."""
    weights, biases, acts = [], [], []
    last = len(SHAPE) - 2
    for i, (n_in, n_out) in enumerate(zip(SHAPE, SHAPE[1:])):
        gain = 2.0 if activation == "relu" else 4.0
        W = rng.standard_normal((n_out, n_in))
        if i == 0:
            # receptive fields are smooth like the strokes they see
            W = _blur(W.reshape(n_out, SIDE, SIDE)).reshape(n_out, n_in)
            W /= W.std(axis=1, keepdims=True)
        W *= np.sqrt(gain / n_in)
        # zero-mean rows: a unit responds to the shape of its input, not to
        # its total ink or, for sigmoid, to the 1/2 every unit emits at rest
        W -= W.mean(axis=1, keepdims=True)
        if i == last:
            W *= OUTPUT_GAIN
        weights.append(W)
        biases.append(0.01 * rng.standard_normal(n_out))
        acts.append("identity" if i == last else activation)
    return Model(tuple(weights), tuple(biases), tuple(acts))


def make_images(rng):
    """ROWS stroke images with pixel values k/255, k an integer."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    images = np.empty((ROWS, SIDE * SIDE))
    # ink intensities spread geometrically, assigned in seeded order so any
    # prefix of the rows covers the whole range
    ink = rng.permutation(np.geomspace(0.02, 1.0, ROWS))
    for r in range(ROWS):
        canvas = np.zeros((SIDE, SIDE))
        for _ in range(rng.integers(3, 7)):
            cy, cx = rng.uniform(6, 22, size=2)
            s = rng.uniform(1.5, 3.5)
            canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        canvas = np.clip(canvas - 0.2, 0.0, None)
        canvas /= canvas.max()
        images[r] = np.round(255.0 * ink[r] * canvas.ravel()) / 255.0
    return images


def make_labels(model, X, rng):
    """The model's own prediction, except every tenth row gets another
    class, as for a classifier with ~90% held-out accuracy."""
    labels = np.array([int(np.argmax(model.logits(x))) for x in X])
    wrong = np.arange(0, ROWS, 10)
    labels[wrong] = (labels[wrong] + rng.integers(1, SHAPE[-1], wrong.size)) % SHAPE[-1]
    return labels


def write_model(model, path):
    layers = [
        {
            "in": int(W.shape[1]),
            "out": int(W.shape[0]),
            "activation": act,
            "weights": W.tolist(),
            "bias": b.tolist(),
        }
        for W, b, act in zip(model.weights, model.biases, model.activations)
    ]
    with open(path, "w") as fh:
        json.dump({"layers": layers}, fh)
        fh.write("\n")


def write_dataset(X, labels, path):
    with open(path, "w") as fh:
        for x, y in zip(X, labels):
            fh.write(",".join(repr(float(v)) for v in x) + f",{int(y)}\n")


def pick_sweep_row(model, X, labels, grid, n, seed):
    """First correctly classified row whose smoothed gradient puts a grid
    value between its 80th and 97th magnitude percentiles.

    Such a row's sweep lands in the default sparsity band [0.75, 1) on the
    grid itself, the everyday outcome, so the work is the grid's solves
    and no refinements. Found with the reference model only.
    """
    for r in range(ROWS):
        if int(np.argmax(model.logits(X[r]))) != labels[r]:
            continue
        Z = noise_points(X[r], n, seed)
        g = np.mean([model.loss_gradient(z, labels[r]) for z in Z], axis=0)
        lo, hi = np.percentile(np.abs(g), [80, 97])
        if any(lo <= lam <= hi for lam in grid):
            return r
    raise ValueError(f"seed {seed}: no row brackets the sweep grid")


@dataclass(frozen=True)
class Inputs:
    relu: Model
    sigmoid: Model
    X: np.ndarray
    labels: np.ndarray
    relu_path: str
    sigmoid_path: str
    data_path: str


def generate(seed, directory):
    """Write relu.json, sigmoid.json and data.csv into directory.

    The returned models and rows equal what the loaders read back:
    floats round-trip exactly through repr.
    """
    rng = np.random.default_rng([seed, 0xCA50])
    relu = make_model(rng, "relu")
    sigmoid = make_model(rng, "sigmoid")
    X = make_images(rng)
    labels = make_labels(relu, X, rng)
    paths = [os.path.join(directory, n) for n in ("relu.json", "sigmoid.json", "data.csv")]
    write_model(relu, paths[0])
    write_model(sigmoid, paths[1])
    write_dataset(X, labels, paths[2])
    return Inputs(relu, sigmoid, X, labels, *paths)
