"""Shared helpers: small random and hand-written networks, finite-difference
oracles, the dense loss Hessian built layer by layer, and readers of the
CLI's PGM and f64 artifacts.

The finite-difference routines are intentionally naive (loops, one probe
per coordinate) so they stay an independent check on the analytic code
paths rather than a re-export of them.
"""

import json
import struct
from pathlib import Path

import numpy as np

from casokit import netcore as nc
from casokit.hessian import softmax_curvature
from casokit.saliency_io import model_load

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def read_pgm(path):
    """The pixels of a PGM laid out as write_pgm writes it: P5, an optional
    '# ' comment line, width and height, 255, then the bytes."""
    data = Path(path).read_bytes()
    *head, body = data.split(b"\n", 4 if data.startswith(b"P5\n#") else 3)
    assert head[0] == b"P5" and head[-1] == b"255"
    width, height = map(int, head[-2].split())
    return np.frombuffer(body, np.uint8).reshape(height, width)


def read_f64_tensor(path):
    """A .delta.f64 artifact: u32 count, u32 dim, then little-endian f64 rows."""
    data = Path(path).read_bytes()
    return np.frombuffer(data, "<f8", offset=8).reshape(struct.unpack_from("<II", data))


def random_relu_net(rng, d=8, hidden=12, c=4):
    spec = nc.NetworkSpec(
        (nc.LayerSpec(d, hidden, "relu"), nc.LayerSpec(hidden, c, "identity"))
    )
    return nc.init_network(spec, seed=int(rng.integers(0, 2**31)))


def fd_loss_gradient(net, x, y, r=1e-6):
    """Central difference of the loss, coordinate by coordinate."""
    d = x.shape[0]
    g = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = r
        lp = nc.forward(net, x + e, y).loss
        lm = nc.forward(net, x - e, y).loss
        g[j] = (lp - lm) / (2.0 * r)
    return g


def fd_loss_hessian(net, x, y, r=1e-5):
    """Central difference of the exact gradient, column by column,
    symmetrized."""
    d = x.shape[0]
    H = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = r
        gp = nc.input_gradient(net, x + e, y)
        gm = nc.input_gradient(net, x - e, y)
        H[:, j] = (gp - gm) / (2.0 * r)
    return 0.5 * (H + H.T)


def mixed_net(tmp_path):
    """A relu -> sigmoid -> identity net, written as model JSON by hand
    (train only makes single-activation nets) and read back by the loader."""
    rng = np.random.default_rng(24)
    layers = [
        {"in": n_in, "out": n_out, "activation": act,
         "weights": (0.5 * rng.standard_normal((n_out, n_in))).tolist(),
         "bias": (0.1 * rng.standard_normal(n_out)).tolist()}
        for n_in, n_out, act in ((7, 6, "relu"), (6, 4, "sigmoid"), (4, 3, "identity"))
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"layers": layers}))
    return model_load(str(path))


def bishop_hessian(net, x, y):
    """The dense loss Hessian at x, built layer by layer: forward-mode
    Jacobians J_l of every pre-activation, reverse-mode cotangents of
    every activation, then J_L^T A J_L plus J_l^T diag(cotangent * sigma'')
    J_l for each sigmoid layer."""
    t = nc.forward(net, x, y)
    J, Js = np.eye(net.input_dim), []
    for W, layer, z, a in zip(net.weights, net.spec.layers, t.pre_activations,
                              t.activations):
        J = W @ J
        Js.append(J)
        if layer.activation == "sigmoid":
            J = (a * (1.0 - a))[:, None] * J
        elif layer.activation == "relu":
            J = (z > 0.0)[:, None] * J
    A = softmax_curvature(t.probs)
    H = Js[-1].T @ A @ Js[-1]
    da = t.probs - np.eye(net.num_classes)[y]
    for l in range(len(net.weights) - 1, -1, -1):
        layer, z, a = net.spec.layers[l], t.pre_activations[l], t.activations[l]
        slope = {"sigmoid": a * (1.0 - a), "relu": (z > 0.0) * 1.0}.get(layer.activation, 1.0)
        if layer.activation == "sigmoid":
            H += Js[l].T @ ((da * slope * (1.0 - 2.0 * a))[:, None] * Js[l])
        da = net.weights[l].T @ (da * slope)
    return H
