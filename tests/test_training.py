"""What the optimizer does to stored weights that the mask switches off.

Gradients of masked-off weights are always zeroed. While the mask is
stochastic, the optimizer step still updates every stored weight: weight
decay shrinks masked-off weights on every step, and momentum keeps moving a
weight that was active and then dropped out, until its velocity decays.
From the epoch a mask becomes permanent, its masked-off weights and their
optimizer state are zero, and stay zero. These tests pin that behaviour.

They also pin two things the logged metrics depend on: dense training
(``fit`` with no controller) gives the bits of tuning under the all-ones
fixed mask, and evaluation splits the benchmark shapes into the same
chunks of rows.
"""

import numpy as np
import pytest

from subanneal.annealing import (
    AnnealController,
    FixedMaskController,
    init_temperature,
    tune,
)
from subanneal.data import make_blobs
from subanneal.ensemble import train_parent
from subanneal.masks import MaskSet, ProbabilitySet, full_mask
from subanneal.models import build_mlp, build_model
from subanneal.nn.layers import Dense, Network, ReLU, views
from subanneal.nn.optim import SGD, Adam
from subanneal.rng import substream
from subanneal.training import masked_weights, predict_logits, run_epoch

from rates import constant

LR = 0.05
BATCH = 16
N = 64  # four steps per epoch
PHI = 2  # annealing epochs of the stochastic controllers below


def _setup():
    net = Network([Dense(6, 5), ReLU(), Dense(5, 3)], input_shape=(6,))
    net.init_params(substream(0, "init"))
    data = make_blobs("train", n=N, d=6, k=3, data_seed=0)
    mask = MaskSet({name: substream(1, "m", name).random(w.shape) < 0.5
                    for name, w in net.weights().items()})
    return net, (data.x, data.y), mask


def _epoch(net, data, optimizer, controller, epoch=0):
    run_epoch(net, *data, optimizer, constant(LR), epoch, 0, BATCH,
              substream(2, "shuffle", epoch), controller=controller,
              rng_mask=substream(3, "bernoulli"))


def _stochastic(mask, epoch=0, tau0=0.0, variant="reverse-dropout"):
    """A temperature controller annealing to ``mask`` over PHI epochs, moved
    to ``epoch``. At tau0 = 0 (the default here) its probabilities are
    ``mask`` itself, but the mask is not permanent before epoch PHI."""
    controller = AnnealController(init_temperature(mask, tau0, variant),
                                  "cosine", PHI)
    controller.begin_epoch(epoch)
    return controller


def _off(mask, weights):
    return {name: w[mask[name] == 0].copy() for name, w in weights.items()}


def _state(optimizer, net):
    """The optimizer's per-entry state of ``net``'s weights, by kind, each
    a dict of per-weight views of its flat array."""
    kinds = ({"m": optimizer._m, "v": optimizer._v}
             if isinstance(optimizer, Adam) else {"velocity": optimizer._velocity})
    return {kind: _by_weight(flat, net) for kind, flat in kinds.items()}


def _by_weight(flat, net):
    """Per-weight views of a flat array in ``net``'s parameter layout,
    whose prefix holds the weights in order."""
    shapes = net.weight_shapes()
    return dict(zip(shapes, views(flat, shapes.values())))


def _assert_off_is_zero(mask, net, optimizer):
    for name, w in _off(mask, net.weights()).items():
        assert np.all(w == 0), name
    for kind, state in _state(optimizer, net).items():
        for name, s in _off(mask, state).items():
            assert np.all(s == 0), (kind, name)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_weight_decay_shrinks_masked_off_weights(momentum):
    net, data, mask = _setup()
    before = _off(mask, net.weights())
    opt = SGD(momentum=momentum, weight_decay=0.01)
    controller = _stochastic(mask)
    assert not controller.permanent
    _epoch(net, data, opt, controller)
    after = _off(mask, net.weights())
    for name in before:
        assert np.all(np.abs(after[name]) < np.abs(before[name])), name
        assert np.all(np.sign(after[name]) == np.sign(before[name])), name
        if momentum == 0.0:  # zero gradient: p <- p - lr * (wd * p) per step
            want = before[name]
            for _ in range(N // BATCH):
                want = want - LR * (0.01 * want)
            assert np.array_equal(after[name], want), name
    # once the mask is permanent there is nothing left to shrink
    controller.begin_epoch(PHI)
    assert controller.permanent
    for epoch in (PHI, PHI + 1):
        _epoch(net, data, opt, controller, epoch=epoch)
        for name, w in _off(mask, net.weights()).items():
            assert np.all(w == 0), (epoch, name)


def test_momentum_leaves_weights_masked_from_the_start_alone():
    net, data, mask = _setup()
    before = _off(mask, net.weights())
    _epoch(net, data, SGD(momentum=0.9, nesterov=True), _stochastic(mask))
    after = _off(mask, net.weights())
    for name in before:
        assert np.array_equal(after[name], before[name]), name


def test_momentum_moves_a_weight_after_it_drops_out():
    net, data, mask = _setup()
    opt = SGD(momentum=0.9, nesterov=True)
    _epoch(net, data, opt, FixedMaskController(full_mask(net.weight_shapes())))
    before = _off(mask, net.weights())
    velocity = _off(mask, _by_weight(opt._velocity, net))
    _epoch(net, data, opt, _stochastic(mask), epoch=1)
    after = _off(mask, net.weights())
    for name in before:
        # zero gradient: v <- 0.9 v, p <- p - lr * (0.9 v) per step
        want, v = before[name], velocity[name]
        for _ in range(N // BATCH):
            v = v * 0.9
            want = want - LR * (v * 0.9)
        assert np.all(after[name] != before[name]), name
        assert np.array_equal(after[name], want), name
    # a permanent mask stops it: weight and velocity are zeroed, for good
    for epoch in (2, 3):
        _epoch(net, data, opt, _stochastic(mask, epoch=PHI), epoch=epoch)
        _assert_off_is_zero(mask, net, opt)


@pytest.mark.parametrize("make_opt", [
    lambda: SGD(momentum=0.9, nesterov=True, weight_decay=0.01),
    lambda: Adam(weight_decay=0.01),
], ids=["sgd", "adam"])
def test_a_permanent_mask_zeroes_masked_off_weights_and_state(make_opt):
    net, data, mask = _setup()
    opt = make_opt()
    _epoch(net, data, opt, None)  # dense: every entry gets optimizer state
    for kind, state in _state(opt, net).items():
        assert all(np.all(state[name] != 0) for name in mask), kind
    active = {name: w[mask[name] == 1].copy()
              for name, w in net.weights().items()}
    for epoch in (1, 2, 3):
        _epoch(net, data, opt, FixedMaskController(mask), epoch=epoch)
        _assert_off_is_zero(mask, net, opt)
    for name, w in net.weights().items():
        assert np.all(w[mask[name] == 1] != active[name]), name


def test_entries_masked_only_in_stochastic_epochs_keep_their_values():
    # reverse dropout at tau0 = 0.5: the pruned entries of the target are
    # dropped from most batches, yet they keep their values until PHI
    net, data, mask = _setup()
    opt = SGD(momentum=0.9, nesterov=True, weight_decay=0.01)
    controller = _stochastic(mask, tau0=0.5)
    for epoch in range(PHI):
        controller.begin_epoch(epoch)
        assert not controller.permanent
        _epoch(net, data, opt, controller, epoch=epoch)
        for name, w in _off(mask, net.weights()).items():
            assert np.all(w != 0), (epoch, name)
    controller.begin_epoch(PHI)
    assert controller.permanent
    _epoch(net, data, opt, controller, epoch=PHI)
    _assert_off_is_zero(mask, net, opt)


def test_a_binary_first_epoch_of_full_scaling_is_not_permanent():
    # at tau0 = 1 full scaling starts from the complement of its target:
    # binary, but the target's entries come back from epoch 1 on, so
    # epoch 0 must not burn them
    net, data, mask = _setup()
    controller = _stochastic(mask, tau0=1.0, variant="full-scaling")
    assert controller.probs.is_binary()
    assert not controller.permanent
    before = {name: w[mask[name] == 1].copy()
              for name, w in net.weights().items()}
    _epoch(net, data, SGD(momentum=0.9), controller)
    for name, w in net.weights().items():
        assert np.array_equal(w[mask[name] == 1], before[name]), name
        assert np.all(w[mask[name] == 1] != 0), name


def test_a_permanent_mask_is_still_asked_for_every_batch():
    net, data, mask = _setup()
    controller = FixedMaskController(mask)
    calls = []

    def batch_mask(rng):
        calls.append(rng)
        return mask

    controller.batch_mask = batch_mask
    _epoch(net, data, SGD(), controller)
    assert len(calls) == N // BATCH


def test_masked_weights_reuse_buffers_owned_by_each_network():
    net, _, mask = _setup()
    originals = {n: w.copy() for n, w in net.weights().items()}
    with masked_weights(net, mask):
        seen = dict(net.weights())
    for name, w in net.weights().items():
        assert np.array_equal(w, originals[name])  # stored weights restored
        assert np.shares_memory(seen[name], net.mask_buffer)
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
    probs = ProbabilitySet(scale, full_mask(net.weight_shapes()))
    for _ in range(2):
        with masked_weights(net, probs):
            for name, w in net.weights().items():
                assert w.dtype == np.float32
                assert np.array_equal(w, want[name])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make_opt", [
    lambda wd: SGD(momentum=0.9, nesterov=True, weight_decay=wd),
    lambda wd: Adam(weight_decay=wd)], ids=["sgd", "adam"])
@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_dense_training_is_tuning_under_the_all_ones_mask(dtype, make_opt,
                                                           wd):
    train = make_blobs("train", n=240, d=8, k=3, data_seed=0)
    test = make_blobs("test", n=120, d=8, k=3, data_seed=0)
    data = (train.x.astype(dtype), train.y)
    eval_data = (test.x.astype(dtype), test.y)
    nets = []
    for _ in range(2):
        net = build_mlp((8,), 3, hidden=(16, 12), dtype=dtype)
        net.init_params(substream(0, "init"))
        nets.append(net)
    dense = train_parent(nets[0], data, 3, make_opt(wd), constant(LR), 32,
                         substream(0, "shuffle"), eval_data=eval_data)
    masked = tune(nets[1], FixedMaskController(full_mask(
        nets[1].weight_shapes())), data, 3, constant(LR), make_opt(wd), 32,
        substream(0, "shuffle"), eval_data=eval_data)
    assert dense == masked
    assert nets[0].flat.dtype == nets[1].flat.dtype == dtype
    assert nets[0].flat.tobytes() == nets[1].flat.tobytes()


@pytest.mark.parametrize("model,shape,classes,dtype,rows", [
    ("mlp", (16,), 4, np.float32, 4096),  # sweep-blobs
    ("mlp", (1, 28, 28), 10, np.float32, 4096),  # prune-mnist-mlp
    ("smallconv", (3, 32, 32), 10, np.float32, 379),  # ensemble-cifar-conv
    ("smallconv", (3, 32, 32), 10, np.float64, 189),
])
def test_evaluation_chunks_of_the_benchmark_shapes(model, shape, classes,
                                                   dtype, rows):
    """A GEMM over a few rows may round differently from the same rows
    inside a larger one, so logits depend on how ``predict_logits`` chunks
    its input: a change to ``EVAL_CHUNK`` or ``EVAL_BYTES`` that moves
    these chunks moves logged metrics, and has to be declared."""
    net = build_model(model, shape, classes, substream(0, "init"),
                      dtype=dtype)
    forward, seen = net.forward, []

    def spy(x, **kwargs):
        seen.append(len(x))
        return forward(x, **kwargs)

    net.forward = spy
    predict_logits(net, np.zeros((rows + 1, *shape), dtype))
    assert seen == [rows, 1]
