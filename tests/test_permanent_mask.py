"""Burning a permanent mask into the weights changes no reported number.

``tune`` burns a mask that can no longer re-admit an entry into the
weights and optimizer state once per epoch, and trains those batches on
the plain weights. ``reference_tune`` below is the straightforward loop it
replaced: every batch multiplies the weights by its mask, masks the
gradients and steps the optimizer, and only the end burns the terminal
mask in. Both must give the same metric rows and the same final weights
(a burned zero may differ from the reference's zero in its sign only).
"""

import numpy as np
import pytest

from subanneal.annealing import (
    AnnealController,
    FixedMaskController,
    IterativeController,
    init_random,
    init_temperature,
    tune,
)
from subanneal.data import make_blobs
from subanneal.masks import masked_grad
from subanneal.metrics import evaluate
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.losses import cross_entropy_softmax
from subanneal.nn.optim import SGD, Adam
from subanneal.pruning import random_mask
from subanneal.rng import substream
from subanneal.training import finalize, masked_weights, predict_logits

from fd import named_grads
from rates import constant

EPOCHS = 5
PHI = 2
BATCH = 16
RHO = 0.6


def reference_tune(net, controller, train_data, epochs, schedule, optimizer,
                   batch_size, rng_shuffle, rng_mask, eval_data, eval_mode):
    """Every batch on its masked weights; the mask burned in at the end."""
    x, y = train_data
    xt, yt = eval_data
    rows = []
    step = 0
    for epoch in range(epochs):
        controller.begin_epoch(epoch)
        order = rng_shuffle.permutation(len(y))
        losses = []
        first_lr = None
        for start in range(0, len(y), batch_size):
            batch = order[start:start + batch_size]
            mask = controller.batch_mask(rng_mask)
            with masked_weights(net, mask):
                logits = net.forward(x[batch])
                loss, grad_logits = cross_entropy_softmax(logits, y[batch])
                grad = net.backward(grad_logits)
            grads = named_grads(net)  # per-tensor views of the flat gradient
            for name in mask:
                masked_grad(grads[name], mask[name], out=grads[name])
            lr = schedule(epoch, step)
            first_lr = lr if first_lr is None else first_lr
            optimizer.step(net.flat, grad, lr)
            losses.append(loss)
            step += 1
        net.clear_cache()
        sparsity = controller.mask.sparsity()
        if eval_mode == "expected" and controller.probs is not None:
            logits = predict_logits(net, xt, mask=controller.probs)
        else:
            logits = predict_logits(net, xt, mask=controller.mask)
        rec = evaluate(logits, yt)
        rows.append({
            "epoch": epoch, "train_loss": float(np.mean(losses)),
            "lr": first_lr, "realized_sparsity": sparsity,
            "mean_active_fraction": (1.0 - sparsity
                                     if controller.probs is None
                                     else controller.probs.mean()),
            "test_acc": rec.accuracy, "test_nll": rec.nll,
            "test_ece": rec.ece,
        })
    finalize(net, controller.mask)
    return rows


def _net():
    net = Network([Dense(6, 12), ReLU(), Dense(12, 8), ReLU(), Dense(8, 3)],
                  input_shape=(6,))
    net.init_params(substream(0, "init"))
    return net


def _target(net):
    return random_mask(net.weight_shapes(), RHO, "layerwise",
                       substream(1, "target"))


def _iterative(selector):
    def make(net):
        return IterativeController(selector, RHO, "layerwise", PHI,
                                   net.weights(), substream(1, "prune"))
    return make


CONTROLLERS = {
    "oneshot": lambda net: FixedMaskController(_target(net)),
    "iterative-random": _iterative("random"),
    "iterative-magnitude": _iterative("magnitude"),
    "temperature-reverse-dropout": lambda net: AnnealController(
        init_temperature(_target(net), 0.5, "reverse-dropout"), "cosine", PHI),
    "temperature-full-scaling-tau1": lambda net: AnnealController(
        init_temperature(_target(net), 1.0, "full-scaling"), "cosine", PHI),
    "random-anneal-uniform": lambda net: AnnealController(
        init_random(net.weight_shapes(), RHO, substream(1, "random")),
        "linear", PHI),
    "random-anneal-bimodal": lambda net: AnnealController(
        init_random(net.weight_shapes(), RHO, substream(1, "random"),
                    (0.25, 0.15, 0.75, 0.15)),
        "linear", PHI),
}

OPTIMIZERS = {
    "sgd-nesterov-wd": lambda: SGD(momentum=0.9, nesterov=True,
                                   weight_decay=0.01),
    "adam-wd": lambda: Adam(weight_decay=0.01),
}


def _run(tune_fn, make_controller, make_optimizer, eval_mode):
    net = _net()
    train = make_blobs("train", n=96, d=6, k=3, data_seed=0)
    test = make_blobs("test", n=48, d=6, k=3, data_seed=0)
    rows = tune_fn(net, make_controller(net), (train.x, train.y), EPOCHS,
                   constant(0.05), make_optimizer(), BATCH,
                   substream(2, "shuffle"), substream(3, "bernoulli"),
                   (test.x, test.y), eval_mode)
    return rows, net.params()


@pytest.mark.parametrize("eval_mode", ["terminal", "expected"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_tune_matches_the_per_batch_reference(controller, optimizer,
                                              eval_mode):
    args = (CONTROLLERS[controller], OPTIMIZERS[optimizer], eval_mode)
    got_rows, got = _run(tune, *args)
    want_rows, want = _run(reference_tune, *args)
    assert got_rows == want_rows
    assert got.keys() == want.keys()
    for name in want:
        # == treats +0 and -0 as equal: only a zero's sign may differ
        assert np.all(got[name] == want[name]), name
