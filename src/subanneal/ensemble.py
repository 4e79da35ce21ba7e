"""Stochastic prune-and-tune ensembles.

Train one parent; make each member by tuning a copy of it under a sparse
target mask with temperature annealing (``member_controller``, optionally
in complementary pairs, so siblings inherit opposite parameter sets); then
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
)
from .data import to_float
from .metrics import evaluate
from .nn.layers import Network
from .pruning import PruneSpec, check_no_severed_layer, random_mask
from .training import fit, predict_logits

log = logging.getLogger(__name__)

# ``corrupt`` works in row blocks whose float64 noise and unit-scaled input
# take at most this many bytes together.
CORRUPT_BLOCK_BYTES = 1 << 20
CORRUPT_NOISE_SCALE = 0.04  # ``corrupt``'s noise sigma per unit of severity


def train_parent(net: Network, train_data, epochs: int, optimizer, schedule,
                 batch_size: int, rng_shuffle: np.random.Generator,
                 eval_data=None) -> list:
    """Plain dense training (``training.fit`` with no controller); returns
    per-epoch rows. epochs=0 is a no-op."""
    return fit(net, None, train_data, epochs, schedule, optimizer,
               batch_size, rng_shuffle, eval_data=eval_data)


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
    noticing in the logs; a complement that keeps no entry of a layer
    raises ``SeveredLayerError``.
    """
    spec = PruneSpec("random", rho, granularity)
    for _ in range(i // 2 + 1 if partitioning else i + 1):
        mask = random_mask(shapes, spec, rng)
    controller = temperature_controller(mask, tau_cfg)
    if not (partitioning and i % 2 == 1):
        return controller
    check_no_severed_layer(mask.complement(),
                           f"the complement mask of member {i}")
    if rho != 0.5:
        log.warning("partitioning with rho=%s: complement member %d has "
                    "sparsity %s", rho, i, 1.0 - rho)
    return anti_controller(controller)


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
            stats=None, dtype=np.float64) -> np.ndarray:
    """Additive Gaussian pixel noise, sigma = CORRUPT_NOISE_SCALE * severity.

    Input is uint8 pixels or unit-scaled pixels; the noisy pixels are on the
    unit scale (``data.to_float``) and clamped back to [0, 1], then, given
    ``stats = (mean, std)``, normalized as ``(x - mean) / std``. The result
    is one array of ``dtype``, filled one row block of at most
    ``CORRUPT_BLOCK_BYTES`` at a time: the block's noise is drawn, the input
    added, clipped and normalized in float64 and rounded once into it. The
    noise is the one stream a single draw over ``x.shape`` gives, and ``x``
    is left unchanged.
    """
    if not 1 <= int(severity) <= 5:
        raise ValueError("severity must lie in 1..5")
    out = np.empty(x.shape, dtype)
    rows = max(1, CORRUPT_BLOCK_BYTES // (16 * math.prod(x.shape[1:])))
    for start in range(0, len(x), rows):
        block = x[start:start + rows]
        noise = rng.normal(0.0, CORRUPT_NOISE_SCALE * severity, block.shape)
        noise += to_float(block)
        np.clip(noise, 0.0, 1.0, out=noise)
        if stats is not None:
            noise -= stats[0]
            noise /= stats[1]
        out[start:start + rows] = noise
    return out
