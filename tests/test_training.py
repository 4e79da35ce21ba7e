"""What the optimizer does to stored weights that the mask switches off.

Gradients of masked-off weights are zeroed, but the optimizer step still
updates every stored weight: weight decay shrinks masked-off weights on
every step, and momentum keeps moving a weight that was active and then
dropped out, until its velocity decays. These tests pin that behaviour.
"""

import numpy as np
import pytest

from subanneal.annealing import FixedMaskController
from subanneal.data import make_blobs
from subanneal.masks import MaskSet, full_mask
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import Constant
from subanneal.rng import substream
from subanneal.training import masked_weights, run_epoch

LR = 0.05
BATCH = 16
N = 64  # four steps per epoch


def _setup():
    net = Network([Dense(6, 5), ReLU(), Dense(5, 3)], input_shape=(6,))
    net.init_params(substream(0, "init"))
    data = make_blobs("train", n=N, d=6, k=3, data_seed=0)
    mask = MaskSet({name: substream(1, "m", name).random(w.shape) < 0.5
                    for name, w in net.weights().items()})
    return net, (data.x, data.y), mask


def _epoch(net, data, optimizer, controller, epoch=0):
    run_epoch(net, *data, optimizer, Constant(LR), epoch, 0, BATCH,
              substream(2, "shuffle", epoch), controller=controller,
              rng_mask=substream(3, "bernoulli"))


def _off(mask, weights):
    return {name: w[mask[name] == 0].copy() for name, w in weights.items()}


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_weight_decay_shrinks_masked_off_weights(momentum):
    net, data, mask = _setup()
    before = _off(mask, net.weights())
    opt = SGD(LR, momentum=momentum, weight_decay=0.01)
    _epoch(net, data, opt, FixedMaskController(mask))
    after = _off(mask, net.weights())
    for name in before:
        assert np.all(np.abs(after[name]) < np.abs(before[name])), name
        assert np.all(np.sign(after[name]) == np.sign(before[name])), name
        if momentum == 0.0:  # zero gradient: p <- p - lr * (wd * p) per step
            want = before[name]
            for _ in range(N // BATCH):
                want = want - LR * (0.01 * want)
            assert np.array_equal(after[name], want), name


def test_momentum_leaves_weights_masked_from_the_start_alone():
    net, data, mask = _setup()
    before = _off(mask, net.weights())
    _epoch(net, data, SGD(LR, momentum=0.9, nesterov=True),
           FixedMaskController(mask))
    after = _off(mask, net.weights())
    for name in before:
        assert np.array_equal(after[name], before[name]), name


def test_momentum_moves_a_weight_after_it_drops_out():
    net, data, mask = _setup()
    opt = SGD(LR, momentum=0.9, nesterov=True)
    _epoch(net, data, opt, FixedMaskController(full_mask(net.weight_shapes())))
    before = _off(mask, net.weights())
    velocity = _off(mask, {name: opt._velocity[name] for name in mask})
    _epoch(net, data, opt, FixedMaskController(mask), epoch=1)
    after = _off(mask, net.weights())
    for name in before:
        # zero gradient: v <- 0.9 v, p <- p - lr * (0.9 v) per step
        want, v = before[name], velocity[name]
        for _ in range(N // BATCH):
            v = v * 0.9
            want = want - LR * (v * 0.9)
        assert np.all(after[name] != before[name]), name
        assert np.array_equal(after[name], want), name


def test_masked_weights_reuse_buffers_owned_by_each_network():
    net, _, mask = _setup()
    originals = {n: w.copy() for n, w in net.weights().items()}
    with masked_weights(net, mask):
        seen = dict(net.weights())
    for name, w in net.weights().items():
        assert np.array_equal(w, originals[name])  # stored weights restored
        assert seen[name] is net.mask_buffers[name]
        assert np.array_equal(seen[name], originals[name] * mask[name])
    with masked_weights(net, mask.complement()):
        again = dict(net.weights())
    assert all(again[n] is seen[n] for n in seen)  # kept across batches

    other = net.clone()
    with masked_weights(other, mask):
        theirs = dict(other.weights())
    for name in seen:
        assert not np.shares_memory(theirs[name], seen[name])
        assert not np.shares_memory(theirs[name], net.weights()[name])


def test_masked_weights_float32_scale_rounds_like_astype():
    net = Network([Dense(6, 5, dtype=np.float32), ReLU(),
                   Dense(5, 3, dtype=np.float32)], input_shape=(6,))
    net.init_params(substream(0, "init"))
    scale = {n: substream(4, n).random(w.shape)
             for n, w in net.weights().items()}
    want = {n: (w * scale[n]).astype(np.float32)
            for n, w in net.weights().items()}
    for _ in range(2):
        with masked_weights(net, scale):
            for name, w in net.weights().items():
                assert w.dtype == np.float32
                assert np.array_equal(w, want[name])
