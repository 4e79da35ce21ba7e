"""The shared training loop: masked batches, schedules, and evaluation.

One epoch shuffles the training set from a dedicated shuffle stream, then for
every mini-batch draws/looks up the subnetwork mask, runs the forward and
backward passes, zeroes the gradients of masked-off parameters, and applies
one optimizer step to the stored weights.

How the forward pass sees the mask depends on whether the controller's mask
is permanent for the epoch (``controller.permanent``): binary, and never
re-admitting an entry it has switched off.

* A stochastic epoch runs each batch on the Hadamard product of the weights
  and that batch's mask (``masked_weights``). The stored weights are not
  changed by the mask, so entries masked off in one batch keep their values
  and can come back later; weight decay and momentum still move them, as
  the step updates every stored weight.
* A permanent epoch burns the mask in once, at its start: masked-off
  weights and their optimizer state (velocity, Adam moments) are set to
  zero, and every batch runs on the stored weights themselves. A burned
  entry's gradient is masked, so it stays zero.
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
    """Training produced a non-finite loss. ``record`` holds the epoch, the
    step and the loss as text (``repr``), which strict JSON can hold."""

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record or {}


@contextmanager
def masked_weights(net: Network, mask: MaskSet | dict | None):
    """Temporarily replace each weight tensor with its Hadamard product with
    ``mask[name]``: a binary MaskSet, or a dict of per-entry scales. The
    product is written into the network's ``mask_buffers``, which keep the
    weight's dtype (float64 scales do not promote a float32 network) and
    are reused by later calls until ``net.clear_cache()``, so calls on one
    network must not nest."""
    if mask is None:
        yield
        return
    # weights() names the weight layers in weight_layers' order
    layers = list(zip(net.weights(), net.weight_layers.values()))
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

    Under a controller whose mask is permanent, the mask is first burned
    into ``net``'s weights and ``optimizer``'s state, and the batches train
    the plain weights, their gradients masked by that mask in the weights'
    dtype (the same products as by the uint8 mask, which numpy multiplies
    more slowly). Otherwise each batch multiplies the weights and masks the
    gradients by its own mask. Either way ``controller.batch_mask`` is
    called once per batch.
    The network keeps no activations afterwards, even when the epoch
    raises ``DivergenceError``: its layer caches are cleared on the way out.
    """
    permanent = controller is not None and controller.permanent
    if permanent:
        finalize(net, controller.mask)
        optimizer.mask_state(controller.mask)
        keep = {name: controller.mask[name].astype(w.dtype)
                for name, w in net.weights().items()}
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
            with masked_weights(net, None if permanent else mask):
                logits = net.forward(xb)
                loss, grad_logits = cross_entropy_softmax(logits, yb)
                grads = net.backward(grad_logits)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}",
                    record={"epoch": epoch, "step": step, "loss": repr(loss)})
            if mask is not None:
                for name, m in (keep if permanent else mask).items():
                    masked_grad(grads[name], m, out=grads[name])
            lr = schedule_lr(schedule, epoch, step)
            if first_lr is None:
                first_lr = lr
            optimizer.step(net.params(), grads, lr=lr)
            losses.append(loss)
            step += 1
    finally:
        net.clear_cache()
    return float(np.mean(losses)), step - step0, first_lr


def predict_logits(net: Network, x,
                   mask: MaskSet | dict | None = None) -> np.ndarray:
    """Deterministic forward pass in chunks, written into one output array.
    It leaves no activations cached on ``net``.

    ``x`` is an array, or rows sliced like one (``data.NormalizedRows``).
    ``mask`` multiplies the weights as in ``masked_weights``: a binary
    MaskSet evaluates a subnetwork, a dict of per-entry scales (the
    probability matrix) the expected network.
    A chunk holds at most ``EVAL_CHUNK`` rows, and no more than keep the
    largest array any layer allocates (``net.row_floats`` elements of
    ``x``'s dtype per row) within ``EVAL_BYTES``. Each chunk is one
    ``net.forward`` call with ``keep_cache=False``, so every layer's
    forward state is dropped as soon as that layer has run. A network whose
    logits are not all finite has diverged (``DivergenceError``), even if
    its training losses stayed finite.
    """
    rows = max(1, min(EVAL_CHUNK,
                      EVAL_BYTES // (net.row_floats * x.itemsize)))
    out = None
    with masked_weights(net, mask):
        for start in range(0, len(x), rows):
            logits = net.forward(x[start:start + rows], keep_cache=False)
            if out is None:
                out = np.empty((len(x),) + logits.shape[1:], logits.dtype)
            out[start:start + rows] = logits
    if out is None:
        raise ValueError("cannot evaluate an empty input")
    if not np.isfinite(out).all():
        raise DivergenceError("non-finite logits in evaluation")
    return out


def finalize(net: Network, terminal: MaskSet) -> None:
    """Burn a binary mask into the stored weights (permanent zeros)."""
    for name, w in net.weights().items():
        w *= terminal[name]
