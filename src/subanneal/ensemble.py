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

from .annealing import AnnealController, anti_probability, init_temperature
from .data import to_float
from .masks import MaskSet
from .metrics import evaluate
from .nn.layers import Network
from .pruning import check_no_severed_layer, random_mask
from .training import fit, predict_logits

log = logging.getLogger(__name__)

# ``corrupt`` works in row blocks whose float64 noise and float64 input
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


def member_mask(shapes: dict, i: int, rho: float, partitioning: bool,
                rng: np.random.Generator,
                granularity: str = "layerwise") -> MaskSet:
    """The mask member i's target comes from, drawn from ``rng`` at sparsity
    rho: with partitioning, its pair's (an odd member's target is its
    complement, which must keep an entry of every layer, else
    ``SeveredLayerError``), otherwise its own.

    Members draw their masks from one stream in member order, so ``rng``
    is replayed through the draws of the members before i; an odd final
    member of a partitioned ensemble gets its own fresh mask.
    """
    for _ in range(i // 2 + 1 if partitioning else i + 1):
        mask = random_mask(shapes, rho, granularity, rng)
    if partitioning and i % 2 == 1:
        check_no_severed_layer(mask.complement(),
                               f"the complement mask of member {i}")
    return mask


def member_controller(shapes: dict, i: int, rho: float, partitioning: bool,
                      tau0: float, variant: str, decay: str, phi: int,
                      rng: np.random.Generator,
                      granularity: str = "layerwise") -> AnnealController:
    """Member i's temperature-annealing controller, its target drawn by
    ``member_mask``, annealed at ``tau0`` under ``variant`` over ``phi``
    epochs of ``decay``.

    With partitioning, members come in complementary pairs: an odd member
    starts from the ``anti_probability`` of its pair's probabilities, so
    its probabilities mirror 1 - P every epoch and its terminal mask is the
    pair's complement. A complement at rho != 0.5 has sparsity 1-rho, which
    is allowed but worth noticing in the logs.
    """
    mask = member_mask(shapes, i, rho, partitioning, rng, granularity)
    init = init_temperature(mask, tau0, variant)
    if partitioning and i % 2 == 1:
        if rho != 0.5:
            log.warning("partitioning with rho=%s: complement member %d has "
                        "sparsity %s", rho, i, 1.0 - rho)
        init = anti_probability(init)
    return AnnealController(init, decay, phi)


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


def corrupt(rows, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Model inputs of the test rows ``rows`` (``data.NormalizedRows``)
    under additive Gaussian noise, sigma = CORRUPT_NOISE_SCALE * severity.

    uint8 raw values are pixels: the noise is added on their unit scale
    (``data.to_float``) and the result clamped to [0, 1]. Float raw values
    are features: the noise is added on their own scale, unclamped. The
    noisy values are normalized with ``rows.mean`` and ``rows.std`` into
    one array of ``rows.dtype``, one row block of at most
    ``CORRUPT_BLOCK_BYTES`` at a time, in float64 and rounded once. The
    noise is the one stream a single draw over ``rows.shape`` gives, and
    ``rows`` is left unchanged.
    """
    if not 1 <= int(severity) <= 5:
        raise ValueError("severity must lie in 1..5")
    x = rows.raw
    out = np.empty(x.shape, rows.dtype)
    block_rows = max(1, CORRUPT_BLOCK_BYTES // (16 * math.prod(x.shape[1:])))
    for start in range(0, len(x), block_rows):
        block = x[start:start + block_rows]
        noise = rng.normal(0.0, CORRUPT_NOISE_SCALE * severity, block.shape)
        noise += to_float(block)
        if x.dtype == np.uint8:
            np.clip(noise, 0.0, 1.0, out=noise)
        noise -= rows.mean
        noise /= rows.std
        out[start:start + block_rows] = noise
    return out
