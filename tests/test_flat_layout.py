"""One flat parameter array per network, and the arrays laid out like it.

A ``Network`` keeps every weight in layer order, then every bias, in one
array, ``flat``; each layer's ``w``/``b`` is a view into it, and
``backward`` fills a flat gradient of the same layout. Masks hold their
entries in the weights' order, so the weights are the prefix that a mask,
the gradient mask and the optimizers' ``mask_state`` act on in one call.
These tests pin that layout, that nothing rebinds the views, and that one
flat Bernoulli draw is the old per-layer stream.
"""

import numpy as np
import pytest

from subanneal import runner
from subanneal.masks import ProbabilitySet, full_mask, realize, save_weights
from subanneal.models import build_mlp, build_small_conv
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.losses import cross_entropy_softmax
from subanneal.nn.optim import SGD
from subanneal.rng import substream
from subanneal.training import finalize, predict_logits, run_epoch

from fd import named_grads
from rates import constant


def _mlp():
    net = Network([Dense(6, 5), ReLU(), Dense(5, 3)], input_shape=(6,))
    net.init_params(substream(0, "init"))
    return net


def _views_of(net, flat):
    return all(np.shares_memory(p, flat) for p in net.params().values())


def test_weights_then_biases_in_layer_order():
    net = _mlp()
    l0, l2 = net.layers[0], net.layers[2]
    want = np.concatenate([l0.w.ravel(), l2.w.ravel(), l0.b.ravel(),
                           l2.b.ravel()])
    assert np.array_equal(net.flat, want)
    assert net.n_weights == l0.w.size + l2.w.size
    net.flat[0] = 7.0
    assert l0.w[0, 0] == 7.0
    # the names and their order are those of before: w, b per layer
    assert list(net.params()) == ["layer0.w", "layer0.b", "layer2.w",
                                  "layer2.b"]


@pytest.mark.parametrize("build", ["mlp", "smallconv"])
def test_backward_fills_one_flat_gradient(build):
    rng = np.random.default_rng(3)
    net = (build_mlp((1, 4, 4), 3, hidden=(7,), dtype=np.float32)
           if build == "mlp" else
           build_small_conv((3, 8, 8), 3, dtype=np.float32))
    net.init_params(rng)
    x = rng.normal(size=(5,) + net.input_shape).astype(np.float32)
    _, g = cross_entropy_softmax(net.forward(x), rng.integers(0, 3, 5))
    grad = net.backward(g)
    assert grad is net.grad and grad.shape == net.flat.shape
    assert grad.dtype == np.float32
    for name, view in named_grads(net).items():
        assert np.shares_memory(view, grad), name
        assert view.shape == net.params()[name].shape, name
    # a second batch writes into the same array
    assert net.backward(g) is grad
    net.clear_cache()
    assert net.grad is None
    assert all(layer.grad_w is None and layer.grad_b is None
               for layer in net.weight_layers.values())


def test_clone_set_param_and_load_keep_the_views(tmp_path):
    net = _mlp()
    other = net.clone()
    assert _views_of(other, other.flat) and not _views_of(other, net.flat)
    assert np.array_equal(other.flat, net.flat)
    before = {n: p for n, p in other.params().items()}
    other.set_param("layer0.w", np.zeros((6, 5)))
    assert all(other.params()[n] is p for n, p in before.items())
    assert np.all(other.layers[0].w == 0) and np.any(net.layers[0].w != 0)
    path = tmp_path / "net.ssam"
    save_weights(net.params(), path)
    loaded = _mlp()
    loaded.flat[:] = 0.0
    runner.load_params(loaded, path)
    assert _views_of(loaded, loaded.flat)
    assert np.array_equal(loaded.flat, net.flat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_loaded_network_trains_to_the_bits_of_the_saved_one(tmp_path,
                                                               dtype):
    def build():
        net = Network([Dense(6, 5, dtype=dtype), ReLU(),
                       Dense(5, 3, dtype=dtype)], input_shape=(6,))
        net.init_params(substream(0, "init"))
        return net

    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(64, 6)).astype(dtype), rng.integers(0, 3, 64)
    saved = build()
    run_epoch(saved, x, y, SGD(momentum=0.9), constant(0.05), 0, 0, 16,
              substream(1, "shuffle"))
    path = tmp_path / "saved.ssam"
    save_weights(saved.params(), path)
    loaded = build()
    runner.load_params(loaded, path)
    clone = saved.clone()
    for net in (saved, loaded, clone):
        run_epoch(net, x, y, SGD(momentum=0.9), constant(0.05), 1, 4,
                  16, substream(2, "shuffle"))
    assert loaded.flat.tobytes() == saved.flat.tobytes()
    assert clone.flat.tobytes() == saved.flat.tobytes()


@pytest.mark.parametrize("shapes", [
    {"layer1.w": (784, 300), "layer3.w": (300, 100), "layer5.w": (100, 10)},
    {"layer0.w": (8, 3, 3, 3), "layer2.w": (16, 8, 3, 3),
     "layer5.w": (1024, 10)},
    {"layer1.w": (16, 300), "layer3.w": (300, 100), "layer5.w": (100, 4)},
], ids=["mnist-mlp", "smallconv", "blobs-mlp"])
@pytest.mark.parametrize("seed", [0, 7])
def test_one_flat_draw_is_the_per_layer_stream(shapes, seed):
    """``realize`` draws every entry's uniform in one call. That is the
    stream of one draw per layer in layer order only because
    ``Generator.random`` fills float64 arrays one value after another;
    a numpy that drew otherwise would change every annealed run."""
    flat = substream(seed, "bernoulli").random(sum(
        int(np.prod(s)) for s in shapes.values()))
    twin = substream(seed, "bernoulli")
    per_layer = np.concatenate([twin.random(s).ravel()
                                for s in shapes.values()])
    assert flat.tobytes() == per_layer.tobytes()
    # and realize itself draws exactly that, against the flat probabilities
    probs = {n: np.full(s, 0.5) for n, s in shapes.items()}
    ps = ProbabilitySet(probs, full_mask(shapes))
    mask = realize(ps, substream(seed, "bernoulli"))
    assert np.array_equal(mask.flat, (per_layer < 0.5).astype(np.uint8))
    assert list(mask.masks) == list(shapes)
    assert all(np.shares_memory(m, mask.flat) for m in mask.masks.values())


def test_a_mask_in_another_order_is_refused():
    net = _mlp()
    shapes = net.weight_shapes()
    reordered = full_mask(dict(reversed(list(shapes.items()))))
    with pytest.raises(ValueError, match="mask layout"):
        finalize(net, reordered)
    with pytest.raises(ValueError, match="mask layout"):
        predict_logits(net, np.zeros((2, 6)), mask=reordered)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_loss_is_np_mean_of_the_per_row_losses(dtype):
    rng = np.random.default_rng(9)
    for n in (1, 7, 32, 128, 500):
        logits = (rng.normal(size=(n, 10)) * 4).astype(dtype)
        labels = rng.integers(0, 10, n)
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        want = float(np.mean(lse - logits[np.arange(n), labels]))
        assert cross_entropy_softmax(logits, labels)[0] == want
