import math

import numpy as np
import pytest
from conftest import fd_loss_gradient, random_relu_net

from casokit import netcore as nc
from casokit.errors import DimensionError, NonFiniteError


def two_layer(seed=42, d=5, hidden=7, c=3):
    spec = nc.NetworkSpec(
        (nc.LayerSpec(d, hidden, "relu"), nc.LayerSpec(hidden, c, "identity"))
    )
    return nc.init_network(spec, seed=seed)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        nc.LayerSpec(0, 3, "relu")
    with pytest.raises(ValueError):
        nc.LayerSpec(3, -1, "relu")
    with pytest.raises(ValueError):
        nc.LayerSpec(3, 3, "tanh")


def test_network_spec_chain_and_head():
    with pytest.raises(ValueError):
        nc.NetworkSpec((nc.LayerSpec(4, 5, "relu"), nc.LayerSpec(6, 3, "identity")))
    with pytest.raises(ValueError):
        nc.NetworkSpec((nc.LayerSpec(4, 3, "relu"),))  # head must be identity
    with pytest.raises(ValueError):
        nc.NetworkSpec((nc.LayerSpec(4, 1, "identity"),))  # needs c >= 2
    spec = nc.NetworkSpec((nc.LayerSpec(4, 5, "relu"), nc.LayerSpec(5, 3, "identity")))
    assert spec.input_dim == 4
    assert spec.num_classes == 3


def test_network_arrays_frozen_f64():
    net = two_layer()
    assert all(W.dtype == np.float64 for W in net.weights)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        nc.Network(net.spec, (net.weights[0],), net.biases)  # wrong arity


def test_forward_matches_pure_python_reference():
    # independent route: plain Python loops and math.exp, no numpy
    net = two_layer(seed=42)
    x = [1.0] * 5
    Ws = [[[float(v) for v in row] for row in W] for W in net.weights]
    bs = [[float(v) for v in b] for b in net.biases]
    act = list(x)
    for layer, W, b in zip(net.spec.layers, Ws, bs):
        pre = []
        for o in range(layer.out_dim):
            s = b[o]
            for i in range(layer.in_dim):
                s += W[o][i] * act[i]
            pre.append(s)
        act = [v if v > 0 else 0.0 for v in pre] if layer.activation == "relu" else pre
    m = max(act)
    exps = [math.exp(v - m) for v in act]
    loss_ref = math.log(sum(exps)) + m - act[1]

    trace = nc.forward(net, np.ones(5), 1)
    assert np.abs(np.asarray(act) - trace.logits).max() <= 1e-12
    assert abs(trace.loss - loss_ref) <= 1e-12
    # frozen regression value for the same configuration
    assert trace.loss == pytest.approx(0.8022914540929353, abs=1e-12)


def test_forward_loss_is_neg_log_prob():
    rng = np.random.default_rng(1)
    net = random_relu_net(rng)
    for _ in range(20):
        x = rng.standard_normal(net.input_dim)
        y = int(rng.integers(net.num_classes))
        t = nc.forward(net, x, y)
        assert t.loss == pytest.approx(-math.log(t.probs[y]), rel=1e-10)
        assert t.loss >= 0.0


def test_forward_validation():
    net = two_layer()
    with pytest.raises(DimensionError):
        nc.forward(net, np.ones(4))
    with pytest.raises(NonFiniteError):
        nc.forward(net, np.array([1.0, np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        nc.forward(net, np.ones(5), 3)


def test_input_gradient_matches_central_difference():
    # 100 random (net, x, y) with kink-safe x, per-component relative check
    rng = np.random.default_rng(7)
    for _ in range(100):
        net = random_relu_net(rng, d=6, hidden=9, c=4)
        x = nc.sample_kink_safe(net, rng)
        y = int(rng.integers(4))
        g = nc.input_gradient(net, x, y)
        g_fd = fd_loss_gradient(net, x, y)
        assert (np.abs(g - g_fd) <= 1e-5 * (np.abs(g_fd) + 1e-8)).all()


def test_logit_gradient_linear_model():
    spec = nc.NetworkSpec((nc.LayerSpec(4, 3, "identity"),))
    net = nc.init_network(spec, seed=5)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    for j in range(3):
        gj = nc.logit_gradient(net, x, j)
        assert np.allclose(gj, net.weights[0][j], atol=1e-14)
    with pytest.raises(ValueError):
        nc.logit_gradient(net, x, 3)


def test_local_linearization_exact_on_relu():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_relu_net(rng)
        x = nc.sample_kink_safe(net, rng)
        trace = nc.forward(net, x)
        lin = nc.local_linearization(net, x)
        assert np.abs(lin.W.T @ x + lin.b - trace.logits).max() <= 1e-8
        assert not lin.kink_warning
        # masked weight product is the analytic W for a single hidden layer
        mask = (trace.pre_activations[0] > 0).astype(float)
        W_ref = (net.weights[0] * mask[:, None]).T @ net.weights[1].T
        assert np.abs(lin.W - W_ref).max() <= 1e-12


def test_local_linearization_gradient_identity():
    # input_gradient == W (p - y) from the linearization, kink-safe inputs
    rng = np.random.default_rng(13)
    for _ in range(20):
        net = random_relu_net(rng)
        x = nc.sample_kink_safe(net, rng)
        y = int(rng.integers(net.num_classes))
        trace = nc.forward(net, x, y)
        lin = nc.local_linearization(net, x)
        onehot = np.zeros(net.num_classes)
        onehot[y] = 1.0
        g_lin = lin.W @ (trace.probs - onehot)
        g = nc.input_gradient(net, x, y)
        assert np.abs(g - g_lin).max() <= 1e-10


def test_local_linearization_flags_kink():
    # a relu sitting exactly at zero must raise the kink flag
    spec = nc.NetworkSpec((nc.LayerSpec(2, 2, "relu"), nc.LayerSpec(2, 2, "identity")))
    W1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    net = nc.Network(spec, (W1, np.eye(2)), (np.zeros(2), np.zeros(2)))
    lin = nc.local_linearization(net, np.array([0.0, 1.0]))
    assert lin.kink_warning


def test_train_reaches_high_accuracy_on_separable_blobs():
    data = nc.make_blobs(classes=4, dim=10, n_per_class=25, center_scale=4.0,
                         noise=0.4, seed=3)
    spec = nc.NetworkSpec(
        (nc.LayerSpec(10, 16, "relu"), nc.LayerSpec(16, 4, "identity"))
    )
    net = nc.init_network(spec, seed=0)
    result = nc.train_sgd(net, data, learning_rate=0.05, epochs=15)
    assert result.accuracy >= 0.95
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    # the input network is untouched
    assert np.array_equal(net.weights[0], nc.init_network(spec, seed=0).weights[0])


def test_train_deterministic():
    data = nc.make_blobs(classes=3, dim=6, n_per_class=10, seed=1)
    spec = nc.NetworkSpec((nc.LayerSpec(6, 8, "relu"), nc.LayerSpec(8, 3, "identity")))
    net = nc.init_network(spec, seed=2)
    r1 = nc.train_sgd(net, data, epochs=3, seed=9)
    r2 = nc.train_sgd(net, data, epochs=3, seed=9)
    for a, b in zip(r1.network.weights, r2.network.weights):
        assert np.array_equal(a, b)
    assert r1.epoch_losses == r2.epoch_losses


def test_train_epochs_zero_identity():
    data = nc.make_blobs(classes=3, dim=6, n_per_class=5, seed=1)
    spec = nc.NetworkSpec((nc.LayerSpec(6, 8, "relu"), nc.LayerSpec(8, 3, "identity")))
    net = nc.init_network(spec, seed=2)
    result = nc.train_sgd(net, data, epochs=0)
    for a, b in zip(result.network.weights, net.weights):
        assert np.array_equal(a, b)
    assert result.epoch_losses == ()


def test_train_accuracy_counts_every_row():
    # more rows than one accuracy pass takes, ending in a partial pass
    n = 2 * nc.ACCURACY_ROWS + 37
    rng = np.random.default_rng(4)
    data = nc.Dataset(rng.standard_normal((n, 6)), rng.integers(0, 3, n))
    spec = nc.NetworkSpec((nc.LayerSpec(6, 8, "relu"), nc.LayerSpec(8, 3, "identity")))
    net = nc.init_network(spec, seed=2)
    result = nc.train_sgd(net, data, epochs=0)
    correct = sum(
        int(np.argmax(nc.forward(net, x).logits) == y) for x, y in zip(data.X, data.labels)
    )
    assert result.accuracy == correct / n


def test_train_label_range_checked():
    X = np.zeros((4, 3))
    labels = np.array([0, 1, 2, 5])
    data = nc.Dataset(X, labels)
    spec = nc.NetworkSpec((nc.LayerSpec(3, 4, "relu"), nc.LayerSpec(4, 3, "identity")))
    net = nc.init_network(spec)
    with pytest.raises(ValueError):
        nc.train_sgd(net, data, epochs=1)


@pytest.mark.parametrize("settings,message", [
    ({"learning_rate": 0.0}, "learning_rate must be positive"),
    ({"epochs": -1}, "epochs must be nonnegative"),
])
def test_train_settings_checked(settings, message):
    data = nc.make_blobs(classes=3, dim=6, n_per_class=2, seed=1)
    spec = nc.NetworkSpec((nc.LayerSpec(6, 4, "relu"), nc.LayerSpec(4, 3, "identity")))
    with pytest.raises(ValueError, match=f"^{message}$"):
        nc.train_sgd(nc.init_network(spec), data, **settings)


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_train_step_is_minus_lr_times_the_loss_gradient(activation):
    # one sample and one epoch make one SGD step: every weight and bias
    # moves by -lr times the central difference of the loss in it, taken
    # at a kink-safe input where the steps h cross no relu kink
    spec = nc.NetworkSpec((nc.LayerSpec(4, 5, activation), nc.LayerSpec(5, 3, activation),
                           nc.LayerSpec(3, 3, "identity")))
    net = nc.init_network(spec, seed=3)
    x = nc.sample_kink_safe(net, np.random.default_rng(8), margin=1e-2)
    lr, y, h = 0.25, 2, 1e-6
    step = nc.train_sgd(net, nc.Dataset(x[None], [y]), learning_rate=lr, epochs=1).network

    def loss(params, kind, l, i, shift):
        moved = dict(params)
        moved[kind] = list(moved[kind])
        moved[kind][l] = moved[kind][l].copy()
        moved[kind][l][i] += shift
        return nc.forward(nc.Network(spec, moved["weights"], moved["biases"]), x, y).loss

    params = {"weights": net.weights, "biases": net.biases}
    for kind in params:
        for l, (before, after) in enumerate(zip(params[kind], getattr(step, kind))):
            grad = np.zeros(before.shape)
            for i in np.ndindex(before.shape):
                grad[i] = (loss(params, kind, l, i, h) - loss(params, kind, l, i, -h)) / (2 * h)
            assert np.abs(grad).max() > 0.0
            np.testing.assert_allclose(after, before - lr * grad, rtol=0, atol=1e-8)


def test_make_blobs_shapes_and_determinism():
    d1 = nc.make_blobs(classes=5, dim=7, n_per_class=3, seed=4)
    d2 = nc.make_blobs(classes=5, dim=7, n_per_class=3, seed=4)
    assert d1.X.shape == (15, 7)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.labels, d2.labels)
    assert sorted(set(d1.labels.tolist())) == [0, 1, 2, 3, 4]


def test_dataset_validation_and_sample():
    with pytest.raises(ValueError):
        nc.Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))
    data = nc.Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]))
    s = data.sample(2)
    assert isinstance(s, nc.Sample)
    assert np.array_equal(s.x, [4.0, 5.0])
    assert s.y == 0


@pytest.mark.parametrize("i", [-1, 3, -4])
def test_sample_index_outside_the_dataset(i):
    # a negative index is refused, not read from the end
    data = nc.Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]))
    with pytest.raises(ValueError) as exc:
        data.sample(i)
    assert str(exc.value) == f"sample index {i} outside the dataset of 3"


def test_sample_rejects_non_integer_label():
    for y in (2.9, 2.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="not an integer"):
            nc.Sample(np.zeros(3), y)
    for y in (2, np.int32(2), np.uint8(2), np.int64(2)):
        s = nc.Sample(np.zeros(3), y)
        assert s.y == 2 and type(s.y) is int


def test_dataset_rejects_non_integer_labels():
    for labels in ([0.5, 1.7], np.array([0.0, 1.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="labels must be integers"):
            nc.Dataset(np.zeros((2, 3)), labels)
    for labels in ([0, 1], np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int32)):
        assert nc.Dataset(np.zeros((2, 3)), labels).labels.tolist() == [0, 1]
    assert nc.Dataset(np.zeros((0, 3)), []).labels.shape == (0,)


def test_forward_batch_rejects_non_integer_labels():
    net = two_layer()
    X = np.ones((2, 5))
    for y in ([1.7, 2.9], np.array([1.0, 2.0]), 1.7, np.float64(1.0)):
        with pytest.raises(ValueError, match="labels must be integers"):
            nc.forward_batch(net, X, y)
    ref = nc.forward_batch(net, X, [1, 2]).losses
    for y in (np.array([1, 2], dtype=np.uint16), [np.int32(1), np.int64(2)]):
        assert np.array_equal(nc.forward_batch(net, X, y).losses, ref)
    assert np.array_equal(nc.forward_batch(net, X, np.int8(1)).losses,
                          nc.forward_batch(net, X, [1, 1]).losses)


def test_sample_kink_safe_margin():
    rng = np.random.default_rng(21)
    net = random_relu_net(rng)
    x = nc.sample_kink_safe(net, rng, margin=1e-3)
    trace = nc.forward(net, x)
    assert float(np.abs(trace.pre_activations[0]).min()) > 1e-3
