"""The shared training loop: masked batches, schedules, and evaluation.

One epoch shuffles the training set from a dedicated shuffle stream, then for
every mini-batch draws/looks up the subnetwork mask, runs the forward and
backward passes with masked weights, zeroes the gradients of masked-off
parameters, and applies one optimizer step to the *unmasked* stored weights.

The step updates every stored weight, masked off or not. A masked-off weight
gets a zero gradient, so plain SGD leaves it alone, but weight decay shrinks
it on every step, and momentum keeps moving a weight that was active and
then dropped out (as annealed entries do) until its velocity decays. A
weight masked off from the first step never moves without weight decay.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .masks import MaskSet, apply_mask, masked_grad
from .nn.layers import Network
from .nn.losses import cross_entropy_softmax
from .nn.schedules import OneCycle, lr_at

# An evaluation chunk holds at most EVAL_CHUNK rows and allocates no array
# larger than EVAL_BYTES. Both are fixed, so a network's chunks and hence its
# logits are bit-reproducible. The budget lets an MNIST MLP 300-100 (300
# floats per row) keep full 4096-row chunks, so its logits do not move.
EVAL_CHUNK = 4096
EVAL_BYTES = 10 << 20


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record or {}


@contextmanager
def masked_weights(net: Network, mask: MaskSet | dict | None):
    """Temporarily replace each weight tensor with its Hadamard product with
    ``mask[name]``: a binary MaskSet, or a dict of per-entry scales. The
    product is written into the network's ``mask_buffers``, which keep the
    weight's dtype (float64 scales do not promote a float32 network) and
    are reused by the next call, so calls on one network must not nest."""
    if mask is None:
        yield
        return
    layers = [(name, net.layers[int(name.split(".")[0].removeprefix("layer"))])
              for name in net.weights()]
    originals = [layer.w for _, layer in layers]
    buffers = net.mask_buffers
    try:
        for name, layer in layers:
            if name not in buffers:
                buffers[name] = np.empty_like(layer.w)
            layer.w = apply_mask(layer.w, mask[name], out=buffers[name])
        yield
    finally:
        for (_, layer), w in zip(layers, originals):
            layer.w = w


def schedule_lr(schedule, epoch: int, step: int) -> float:
    """OneCycle advances per optimizer step, everything else per epoch."""
    if isinstance(schedule, OneCycle):
        return lr_at(schedule, step)
    return lr_at(schedule, epoch)


def run_epoch(net: Network, x: np.ndarray, y: np.ndarray, optimizer, schedule,
              epoch: int, step0: int, batch_size: int,
              rng_shuffle: np.random.Generator,
              controller=None, rng_mask: np.random.Generator | None = None):
    """Train one epoch. Returns (mean batch loss, steps taken, first lr).

    The network keeps no activations afterwards, even when the epoch
    raises ``DivergenceError``: its layer caches are cleared on the way out.
    """
    n = len(y)
    order = rng_shuffle.permutation(n)
    step = step0
    losses = []
    first_lr = None
    try:
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            xb, yb = x[batch], y[batch]
            mask = (controller.batch_mask(rng_mask) if controller is not None
                    else None)
            with masked_weights(net, mask):
                logits = net.forward(xb)
                loss, grad_logits = cross_entropy_softmax(logits, yb)
                grads = net.backward(grad_logits)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}",
                    record={"epoch": epoch, "step": step, "loss": loss})
            if mask is not None:
                for name in mask:
                    masked_grad(grads[name], mask[name], out=grads[name])
            lr = schedule_lr(schedule, epoch, step)
            if first_lr is None:
                first_lr = lr
            optimizer.step(net.params(), grads, lr=lr)
            losses.append(loss)
            step += 1
    finally:
        net.clear_cache()
    return float(np.mean(losses)), step - step0, first_lr


def predict_logits(net: Network, x, mask: MaskSet | None = None,
                   weight_scale: dict | None = None) -> np.ndarray:
    """Deterministic forward pass in chunks, written into one output array.
    It leaves no activations cached on ``net``.

    ``x`` is an array, or rows sliced like one (``data.NormalizedRows``).
    A chunk holds at most ``EVAL_CHUNK`` rows, and no more than keep the
    largest array any layer allocates (``net.row_floats`` elements of
    ``x``'s dtype per row) within ``EVAL_BYTES``. Each chunk is one
    ``net.forward`` call with ``keep_cache=False``, so every layer's
    forward state is dropped as soon as that layer has run.
    ``weight_scale`` multiplies weights elementwise in place of ``mask`` (used
    for expected-mask evaluation, where the scale is the probability matrix).
    """
    rows = max(1, min(EVAL_CHUNK,
                      EVAL_BYTES // (net.row_floats * x.itemsize)))
    out = None
    with masked_weights(net, weight_scale if weight_scale is not None else mask):
        for start in range(0, len(x), rows):
            logits = net.forward(x[start:start + rows], keep_cache=False)
            if out is None:
                out = np.empty((len(x),) + logits.shape[1:], logits.dtype)
            out[start:start + rows] = logits
    if out is None:
        raise ValueError("cannot evaluate an empty input")
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def finalize(net: Network, terminal: MaskSet) -> None:
    """Burn the terminal mask into the stored weights (permanent zeros)."""
    for name, w in net.weights().items():
        w *= terminal[name]
