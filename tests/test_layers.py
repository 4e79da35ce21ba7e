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


# --- Conv2d against a per-example im2col/einsum reference ---------------------

def _reference_conv(layer, x, grad_out):
    """The earlier Conv2d: an (n, C·k·k, H'·W') im2col per example, one
    matmul per example forward, an einsum for ``grad_w``. Returns
    (y, grad_w, grad_b, grad_x)."""
    n, c, h, w = x.shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    oh, ow = layer._out_hw(h, w)
    o = layer.out_channels
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
    cols = cols.reshape(n, c * k * k, oh * ow)
    wm = layer.w.reshape(o, -1)
    y = np.matmul(wm, cols).reshape(n, o, oh, ow) + layer.b[:, None, None]
    gm = grad_out.reshape(n, o, oh * ow)
    grad_w = np.einsum("nol,nfl->of", gm, cols).reshape(layer.w.shape)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    gcols = np.matmul(wm.T, gm).reshape(n, c, k, k, oh, ow)
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += gcols[:, :, i, j]
    return y, grad_w, grad_b, gxp[:, :, p:p + h, p:p + w] if p else gxp


def _conv_case(c, o, k, s, p, n, h, w, dtype=np.float64):
    rng = np.random.default_rng(17)
    layer = Conv2d(c, o, k, stride=s, padding=p, dtype=dtype)
    layer.init_params(rng)
    layer.b[...] = rng.normal(size=o)
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    oh, ow = layer._out_hw(h, w)
    grad_out = rng.normal(size=(n, o, oh, ow)).astype(dtype)
    return layer, x, grad_out


@pytest.mark.parametrize("c,o,h,w", [(3, 8, 32, 32), (8, 16, 16, 16)])
@pytest.mark.parametrize("n", [128, 800])
def test_conv_smallconv_shapes_bit_identical_to_reference(c, o, h, w, n):
    # the two layers of smallconv on CIFAR-shaped input, at a training batch
    # and at the evaluation size
    layer, x, grad_out = _conv_case(c, o, 3, 2, 1, n, h, w)
    y_ref, gw_ref, gb_ref, gx_ref = _reference_conv(layer, x, grad_out)
    y = layer.forward(x)
    gx = layer.backward(grad_out)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(gx, gx_ref)
    assert np.array_equal(layer.grad_b, gb_ref)
    assert max_rel_error(layer.grad_w, gw_ref) < 1e-12


@pytest.mark.parametrize("k,s,p,h,w", [
    (3, 1, 1, 6, 6),
    (3, 2, 1, 7, 7),
    (3, 2, 0, 8, 8),    # ragged edge: the last row and column are dropped
    (3, 2, 0, 9, 8),    # odd height, ragged width
    (2, 1, 0, 5, 5),
    (3, 2, 1, 6, 10),   # non-square
])
def test_conv_geometries_match_reference(k, s, p, h, w):
    # A BLAS may round an output differently when it falls at a different
    # place in a GEMM (the reference runs one GEMM per example), so outside
    # the smallconv shapes the outputs are held to a float64 tolerance.
    layer, x, grad_out = _conv_case(2, 3, k, s, p, 4, h, w)
    y_ref, gw_ref, gb_ref, gx_ref = _reference_conv(layer, x, grad_out)
    y = layer.forward(x)
    gx = layer.backward(grad_out)
    assert y.shape == y_ref.shape and gx.shape == x.shape
    np.testing.assert_allclose(y, y_ref, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-13, atol=1e-13)
    assert np.array_equal(layer.grad_b, gb_ref)
    assert max_rel_error(layer.grad_w, gw_ref) < 1e-12


def test_conv_float32_stays_float32():
    layer, x, grad_out = _conv_case(3, 4, 3, 2, 1, 5, 9, 9, dtype=np.float32)
    y = layer.forward(x)
    gx = layer.backward(grad_out)
    for a in (y, gx, layer.grad_w, layer.grad_b):
        assert a.dtype == np.float32


def test_predict_logits_leaves_no_activation_caches():
    from subanneal.models import build_small_conv
    from subanneal.training import predict_logits

    net = build_small_conv((3, 9, 9), 4)
    net.init_params(np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(7, 3, 9, 9))
    logits = net.forward(x)
    _, grad_logits = cross_entropy_softmax(logits, np.zeros(7, dtype=int))
    net.backward(grad_logits)  # caches are live after a training forward
    predict_logits(net, x)
    for layer in net.layers:
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.zeros_like(logits))


def test_smallconv_clone_is_independent_and_bit_identical():
    from subanneal.models import build_small_conv
    from subanneal.training import masked_weights

    net = build_small_conv((3, 9, 9), 4)
    net.init_params(np.random.default_rng(9))
    x = np.random.default_rng(10).normal(size=(6, 3, 9, 9))
    before = net.forward(x)
    with masked_weights(net, {n: np.ones(s) for n, s in
                              net.weight_shapes().items()}):
        pass
    other = net.clone()
    # no cached state and no shared arrays
    with pytest.raises(RuntimeError, match="backward called before forward"):
        other.layers[0].backward(np.zeros(1))
    assert other.mask_buffers == {}
    for mine, theirs in zip(net.params().values(), other.params().values()):
        assert not np.shares_memory(mine, theirs)
    assert np.array_equal(other.forward(x), before)
    for w in other.params().values():
        w[...] = 0.0
    assert np.array_equal(net.forward(x), before)
