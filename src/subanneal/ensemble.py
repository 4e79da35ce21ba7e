"""Stochastic prune-and-tune ensembles.

Train one parent; make each member by cloning it under a sparse target
mask (optionally in complementary pairs, so siblings inherit opposite
parameter sets) and tuning the clone with temperature annealing; then
aggregate by averaging member logits before the softmax. Members depend on
the parent alone, not on each other.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .annealing import (
    AnnealController,
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
from .training import predict_logits, run_epoch

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
            rec = evaluate(predict_logits(net, xt), yt)
            row.update({"test_acc": rec.accuracy, "test_nll": rec.nll,
                        "test_ece": rec.ece})
        rows.append(row)
    return rows


def member_controller(shapes: dict, i: int, rho: float, partitioning: bool,
                      tau_cfg: TemperatureConfig, rng: np.random.Generator,
                      granularity: str = "layerwise") -> AnnealController:
    """Member i's temperature-annealing controller, its target mask drawn
    from ``rng`` at sparsity rho.

    Members draw their masks from one stream in member order, so ``rng``
    is replayed through the draws of the members before i. With
    partitioning, members come in complementary pairs: an odd member's
    controller is the ``anti_controller`` of its pair's, whose
    probabilities mirror 1 - P every epoch and whose terminal mask is the
    pair's complement; an odd final member gets its own fresh mask. A
    complement at rho != 0.5 has sparsity 1-rho, which is allowed but worth
    noticing in the logs.
    """
    spec = PruneSpec("random", rho, granularity)
    for _ in range(i // 2 + 1 if partitioning else i + 1):
        mask = random_mask(shapes, spec, rng)
    controller = temperature_controller(mask, tau_cfg)
    if not (partitioning and i % 2 == 1):
        return controller
    if rho != 0.5:
        log.warning("partitioning with rho=%s: complement member %d has "
                    "sparsity %s", rho, i, 1.0 - rho)
    return anti_controller(controller)


def tune_member(parent: Network, i: int, controller, train_data, epochs: int,
                schedule, optimizer, batch_size: int, seed: int,
                eval_data=None):
    """Anneal-tune a clone of the parent as member i of ``seed``'s
    ensemble; returns (net, per-epoch rows).

    Each member has its own ``controller`` (``member_controller``), its own
    (schedule, optimizer) pair and its own shuffle and Bernoulli streams,
    so members can be tuned in any order or process. A member that
    diverges raises ``DivergenceError``; the ensemble leaves it out and
    reports it.
    """
    net = parent.clone()
    rows = tune(net, controller, train_data, epochs, schedule, optimizer,
                batch_size,
                rng_shuffle=substream(seed, "shuffle", "member", i),
                rng_mask=substream(seed, "bernoulli", "member", i),
                eval_data=eval_data)
    return net, rows


def _mean_logits(logits: list) -> np.ndarray:
    """Sum in list order, then divide, so the aggregate is reproducible."""
    return sum(logits[1:], logits[0]) / len(logits)


def score_ensemble(member_nets, parent: Network | None, x: np.ndarray,
                   y: np.ndarray) -> tuple:
    """(member records, ensemble record) on (x, y).

    Each network's logits are computed once and feed both its own record and
    the ensemble's, which scores the mean logits. A given ``parent`` joins
    the ensemble average but gets no record of its own. An ensemble needs at
    least one member.
    """
    if not member_nets:
        raise ValueError("cannot score an empty ensemble")
    logits = [predict_logits(net, x) for net in member_nets]
    records = [evaluate(z, y) for z in logits]
    if parent is not None:
        logits.append(predict_logits(parent, x))
    return records, evaluate(_mean_logits(logits), y)


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
