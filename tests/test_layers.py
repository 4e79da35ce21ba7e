import numpy as np
import pytest

from subanneal.nn.layers import Conv2d, Dense, Flatten, Network, ReLU, ShapeError
from subanneal.nn.losses import cross_entropy_softmax

from fd import max_rel_error, numerical_grad


def test_dense_identity():
    layer = Dense(2, 2)
    layer.w[...] = np.eye(2)
    out = layer.forward(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_relu_definition():
    out = ReLU().forward(np.array([[-1.0, 3.0]]))
    np.testing.assert_array_equal(out, [[0.0, 3.0]])


def test_two_layer_mlp_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    l1, l2 = Dense(3, 4), Dense(4, 2)
    l1.w[...], l1.b[...] = w1, b1
    l2.w[...], l2.b[...] = w2, b2
    net = Network([l1, ReLU(), l2], input_shape=(3,))
    x = rng.normal(size=(5, 3))
    # the oracle: explicit matrix arithmetic, no layer machinery
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)


def test_forward_shape_validation_at_construction():
    with pytest.raises(ShapeError):
        Network([Dense(3, 4), Dense(5, 2)], input_shape=(3,))
    with pytest.raises(ShapeError):
        Network([Conv2d(2, 4, 3)], input_shape=(1, 8, 8))


def test_forward_batch_shape_mismatch():
    net = Network([Dense(3, 2)], input_shape=(3,))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 4)))


def test_backward_before_forward_raises():
    layer = Dense(2, 2)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 2)))
    net = Network([Flatten(), Dense(4, 2)], input_shape=(2, 2))
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 2)))


def test_zero_upstream_gradient_gives_zero_param_grads():
    rng = np.random.default_rng(3)
    net = Network([Dense(4, 3), ReLU(), Dense(3, 2)], input_shape=(4,))
    net.init_params(rng)
    net.forward(rng.normal(size=(6, 4)))
    grads = net.backward(np.zeros((6, 2)))
    for g in grads.values():
        assert np.all(g == 0.0)


def test_dense_outer_product_closed_form():
    # batch size 1: grad_w must be the outer product input x grad_out
    rng = np.random.default_rng(11)
    layer = Dense(5, 3)
    layer.w[...] = rng.normal(size=(5, 3))
    x = rng.normal(size=(1, 5))
    g = rng.normal(size=(1, 3))
    layer.forward(x)
    layer.backward(g)
    np.testing.assert_allclose(layer.grad_w, np.outer(x[0], g[0]), atol=1e-12)


def _loss_of(net, x, labels):
    return lambda: cross_entropy_softmax(net.forward(x), labels)[0]


@pytest.mark.parametrize("layers,in_shape", [
    ([Dense(5, 4), ReLU(), Dense(4, 3)], (5,)),
    ([Conv2d(2, 3, 3, stride=1, padding=1), ReLU(), Flatten(), Dense(108, 3)],
     (2, 6, 6)),
    ([Conv2d(1, 2, 3, stride=2, padding=1), ReLU(), Flatten(), Dense(18, 3)],
     (1, 5, 5)),
    ([Flatten(), Dense(12, 3)], (3, 2, 2)),
])
def test_gradcheck_all_layer_types(layers, in_shape):
    rng = np.random.default_rng(42)
    net = Network(layers, input_shape=in_shape)
    net.init_params(rng)
    x = rng.normal(size=(3, *in_shape))
    labels = rng.integers(0, 3, size=3)

    net.forward(x)
    loss, grad_logits = cross_entropy_softmax(net.forward(x), labels)
    analytic = net.backward(grad_logits)
    f = _loss_of(net, x, labels)
    for name, param in net.params().items():
        numeric = numerical_grad(f, param)
        assert max_rel_error(analytic[name], numeric) < 1e-4, name


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    net = Network([Dense(6, 4), ReLU(), Dense(4, 2)], input_shape=(6,))
    net.init_params(rng)
    x = np.random.default_rng(1).normal(size=(8, 6))
    a = net.forward(x)
    b = net.forward(x)
    np.testing.assert_array_equal(a, b)


def test_clone_is_independent():
    rng = np.random.default_rng(0)
    net = Network([Dense(3, 3), ReLU(), Dense(3, 2)], input_shape=(3,))
    net.init_params(rng)
    other = net.clone()
    other.layers[0].w[...] = 0.0
    assert np.any(net.layers[0].w != 0.0)
    x = rng.normal(size=(2, 3))
    np.testing.assert_array_equal(net.forward(x), net.clone().forward(x))


def test_weights_exclude_biases():
    net = Network([Dense(3, 3), ReLU(), Dense(3, 2)], input_shape=(3,))
    names = set(net.weights())
    assert names == {"layer0.w", "layer2.w"}
    assert {"layer0.w", "layer0.b", "layer2.w", "layer2.b"} == set(net.params())


@pytest.mark.parametrize("build,in_shape", [
    ("mlp", (1, 8, 8)),
    ("smallconv", (3, 9, 9)),
])
def test_backward_stops_at_first_weight_layer_with_equal_grads(build, in_shape):
    from subanneal.models import build_mlp, build_small_conv

    rng = np.random.default_rng(8)
    net = (build_mlp(in_shape, 4, hidden=(12, 6)) if build == "mlp"
           else build_small_conv(in_shape, 4))
    net.init_params(rng)
    x = rng.normal(size=(5, *in_shape))
    _, grad_logits = cross_entropy_softmax(net.forward(x), rng.integers(0, 4, 5))
    grads = {n: g.copy() for n, g in net.backward(grad_logits).items()}

    # reference: every layer, input gradients included, down to the input
    g = grad_logits
    for layer in reversed(net.layers):
        g = layer.backward(g)
    assert g.shape == x.shape
    full = {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2d)):
            full[f"layer{i}.w"] = layer.grad_w
            full[f"layer{i}.b"] = layer.grad_b
    assert grads.keys() == full.keys()
    for name in full:
        assert np.array_equal(grads[name], full[name]), name


def test_first_weight_layer_skips_its_input_gradient():
    rng = np.random.default_rng(2)
    for layer, x in ((Dense(4, 3), rng.normal(size=(2, 4))),
                     (Conv2d(2, 3, 3, padding=1), rng.normal(size=(2, 2, 4, 4)))):
        y = layer.forward(x)
        assert layer.backward(np.ones_like(y), input_grad=False) is None
        assert layer.grad_w is not None and layer.grad_b is not None
    # nothing in front of the first weight layer is called
    net = Network([Flatten(), Dense(4, 2)], input_shape=(2, 2))
    net.layers[0].backward = lambda g: pytest.fail("Flatten.backward called")
    net.forward(rng.normal(size=(3, 2, 2)))
    assert set(net.backward(np.ones((3, 2)))) == {"layer1.w", "layer1.b"}
