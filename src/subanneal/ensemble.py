"""Stochastic prune-and-tune ensembles.

Train one parent, spawn children by cloning it and drawing sparse masks
(optionally in complementary pairs, so siblings inherit opposite parameter
sets), tune every child with temperature annealing, then aggregate by
averaging member logits before the softmax.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .annealing import (
    TemperatureConfig,
    anti_controller,
    temperature_controller,
    tune,
)
from .data import to_float
from .metrics import evaluate
from .nn.layers import Network
from .pruning import PruneSpec, random_mask
from .rng import substream
from .training import DivergenceError, predict_logits, run_epoch, softmax

log = logging.getLogger(__name__)

# ``corrupt`` adds its input into the noise in row blocks of at most this
# many float64 bytes.
CORRUPT_BLOCK_BYTES = 1 << 20


def train_parent(net: Network, train_data, epochs: int, optimizer, schedule,
                 batch_size: int, rng_shuffle: np.random.Generator,
                 eval_data=None) -> list:
    """Plain dense training; returns per-epoch rows. epochs=0 is a no-op."""
    x, y = train_data
    rows = []
    step = 0
    for epoch in range(epochs):
        mean_loss, steps, first_lr = run_epoch(
            net, x, y, optimizer, schedule, epoch, step, batch_size, rng_shuffle)
        step += steps
        row = {"epoch": epoch, "train_loss": mean_loss, "lr": first_lr,
               "realized_sparsity": 0.0, "mean_active_fraction": 1.0,
               "test_acc": None, "test_nll": None, "test_ece": None}
        if eval_data is not None:
            xt, yt = eval_data
            rec = evaluate(softmax(predict_logits(net, xt)), yt)
            row.update({"test_acc": rec.accuracy, "test_nll": rec.nll,
                        "test_ece": rec.ece})
        rows.append(row)
    return rows


def spawn_children(parent: Network, n: int, rho: float, partitioning: bool,
                   rng: np.random.Generator,
                   granularity: str = "layerwise") -> list:
    """Clone the parent n times with target masks at sparsity rho.

    With partitioning, children come in complementary pairs (M, 1-M); an odd
    final child gets its own fresh mask. A complement pair at rho != 0.5 has
    sparsity 1-rho, which is allowed but worth noticing in the logs.
    """
    if partitioning and rho != 0.5:
        log.warning("partitioning with rho=%s: complement children have "
                    "sparsity %s", rho, 1.0 - rho)
    spec = PruneSpec("random", rho, granularity)
    shapes = parent.weight_shapes()
    children = []
    mask = None
    for i in range(n):
        if partitioning and i % 2 == 1 and mask is not None:
            child_mask = mask.complement()
        else:
            mask = random_mask(shapes, spec, rng)
            child_mask = mask
        children.append((parent.clone(), child_mask))
    return children


def tune_children(children, tau_cfg: TemperatureConfig, partitioning: bool,
                  train_data, epochs: int, new_training, batch_size: int,
                  seed: int, eval_data=None, eval_mode: str = "terminal"):
    """Anneal-tune every child; returns (members, per-member rows, failures).

    ``new_training()`` returns a fresh (schedule, optimizer) pair per child.
    Partitioned siblings use mirrored probability matrices (P' = 1 - P at
    every epoch), the probabilistic analogue of mask complementation. A
    member that diverges is excluded and reported, not fatal.
    """
    controllers = []
    for i, (_, mask) in enumerate(children):
        if partitioning and i % 2 == 1:
            controllers.append(anti_controller(controllers[i - 1]))
        else:
            controllers.append(temperature_controller(mask, tau_cfg))

    members, member_rows, failures = [], [], []
    for i, ((net, _), controller) in enumerate(zip(children, controllers)):
        schedule, optimizer = new_training()
        try:
            rows = tune(net, controller, train_data, epochs, schedule,
                        optimizer, batch_size,
                        rng_shuffle=substream(seed, "shuffle", "member", i),
                        rng_mask=substream(seed, "bernoulli", "member", i),
                        eval_data=eval_data, eval_mode=eval_mode)
        except DivergenceError as err:
            log.error("member %d diverged: %s", i, err)
            failures.append({"member": i, "error": str(err), **err.record})
            continue
        members.append((net, controller.mask))
        member_rows.append(rows)
    return members, member_rows, failures


def _mean_logits(logits: list) -> np.ndarray:
    """Sum in list order, then divide, so the aggregate is reproducible."""
    return sum(logits[1:], logits[0]) / len(logits)


def predict(member_nets, x: np.ndarray, parent: Network | None = None,
            include_parent: bool = False) -> np.ndarray:
    """Class probabilities: softmax of the mean member logits."""
    nets = list(member_nets)
    if include_parent:
        if parent is None:
            raise ValueError("include_parent requires a parent network")
        nets.append(parent)
    if not nets:
        raise ValueError("cannot predict with an empty ensemble")
    return softmax(_mean_logits([predict_logits(net, x) for net in nets]))


def score_ensemble(member_nets, parent: Network | None, x: np.ndarray,
          y: np.ndarray) -> tuple:
    """(member records, ensemble record) on (x, y).

    Each network's logits are computed once and feed both its own record and
    the mean-logit ensemble. A given ``parent`` joins the ensemble average
    but gets no record of its own.
    """
    logits = [predict_logits(net, x) for net in member_nets]
    records = [evaluate(softmax(z), y) for z in logits]
    if parent is not None:
        logits.append(predict_logits(parent, x))
    return records, evaluate(softmax(_mean_logits(logits)), y)


def corrupt(x: np.ndarray, severity: int, rng: np.random.Generator,
            noise_scale: float = 0.04) -> np.ndarray:
    """Additive Gaussian pixel noise at sigma = noise_scale * severity.

    Input is uint8 pixels or unit-scaled pixels; output is unit-scaled and
    clamped back to [0, 1]. The noise array becomes the output, and the
    input is added into it on the unit scale (``data.to_float``) one block
    of at most ``CORRUPT_BLOCK_BYTES`` at a time, so the only large
    allocation is one float64 array the size of ``x``; ``x`` is left
    unchanged.
    """
    if not 1 <= int(severity) <= 5:
        raise ValueError("severity must lie in 1..5")
    noise = rng.normal(0.0, noise_scale * severity, x.shape)
    rows = max(1, CORRUPT_BLOCK_BYTES // (noise.itemsize
                                          * math.prod(x.shape[1:])))
    for start in range(0, len(x), rows):
        noise[start:start + rows] += to_float(x[start:start + rows])
    return np.clip(noise, 0.0, 1.0, out=noise)
