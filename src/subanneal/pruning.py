"""Baseline subnetwork construction: one-shot and iterative pruning.

Selection is either uniform-random or smallest-L1-magnitude, at layerwise or
global granularity. One-shot masks are produced by a single increment from
the all-ones mask, so a one-epoch iterative run is *identical* to one-shot
under the same seed, not merely equal in distribution.
"""

from __future__ import annotations

import math

import numpy as np

from .masks import MaskSet, full_mask

LAYERWISE = "layerwise"
GLOBAL = "global"


class SeveredLayerError(ValueError):
    """A pruning quota would leave a layer with no active weights."""


def _quota(n: int, level: float) -> int:
    q = int(np.floor(level * n + 0.5))  # rounded half away from zero
    if q >= n:
        raise SeveredLayerError(
            f"sparsity {level} would remove all {n} weights of a layer")
    return q


def check_no_severed_layer(mask: MaskSet, what: str) -> None:
    """Raise ``SeveredLayerError`` if ``mask`` keeps no entry of a layer;
    ``what`` names the mask in the message."""
    for name, m in mask.items():
        if not m.any():
            raise SeveredLayerError(f"{what} fully severed layer {name!r}")


def check_layer_quotas(shapes: dict, levels, complement: bool = False) -> None:
    """Raise ``SeveredLayerError`` where a layerwise quota at one of
    ``levels`` would remove every weight of a layer of ``shapes`` (name ->
    shape), or with ``complement`` remove none, so that the mask's
    complement keeps none. Shapes alone decide it, so a run can check
    before any compute."""
    for level in levels:
        for name, shape in shapes.items():
            pruned = _quota(math.prod(shape), level)  # raises if all
            if complement and pruned == 0:
                raise SeveredLayerError(
                    f"sparsity {level} prunes no weight of layer {name!r}, "
                    f"so the complement mask keeps none")


def prune_increment(current: MaskSet, next_level: float, granularity: str,
                    weights: dict | None = None,
                    rng: np.random.Generator | None = None) -> MaskSet:
    """A new mask that prunes more active entries of ``current`` until
    ``next_level`` sparsity is met: the smallest |w| of ``weights`` (name ->
    array) when given, else entries drawn from ``rng``.

    The quota applies to each layer's entries under ``layerwise`` and to all
    of them at once under ``global``. Previously pruned entries stay pruned
    and ``current`` is left as it is; raises if ``next_level`` is below the
    current sparsity or if any layer would be fully severed.
    """
    if not 0.0 <= next_level < 1.0:
        raise ValueError("next_level must lie in [0, 1)")
    if granularity not in (LAYERWISE, GLOBAL):
        raise ValueError(f"unknown granularity {granularity!r}")
    new = current.flat.copy()
    groups = ([(f"{name}: ", [name]) for name in current]
              if granularity == LAYERWISE else [("", list(current))])
    start = 0
    for prefix, names in groups:
        flat = new[start:start + sum(current[name].size for name in names)]
        start += flat.size
        target = _quota(flat.size, next_level)
        have = flat.size - int(flat.sum())
        if target < have:
            raise ValueError(
                f"{prefix}next level {next_level} is below current sparsity")
        if target == have:
            continue
        active = np.flatnonzero(flat)
        if weights is not None:  # stable sort: ties go to the lower index
            values = np.concatenate(
                [np.asarray(weights[name]).reshape(-1) for name in names])
            order = np.argsort(np.abs(values[active]), kind="stable")
            chosen = active[order[:target - have]]
        elif rng is None:
            raise ValueError("pruning needs weights or an rng")
        else:
            chosen = rng.choice(active, size=target - have, replace=False)
        flat[chosen] = 0
    mask = MaskSet(new, current.shapes)
    if granularity == GLOBAL:
        check_no_severed_layer(mask, "global quota")
    return mask


def random_mask(shapes: dict, rho: float, granularity: str,
                rng: np.random.Generator) -> MaskSet:
    """One-shot mask pruning entries drawn from ``rng`` to sparsity rho."""
    return prune_increment(full_mask(shapes), rho, granularity, rng=rng)


def magnitude_mask(weights: dict, rho: float, granularity: str) -> MaskSet:
    """One-shot mask pruning the smallest-|w| entries to sparsity rho."""
    shapes = {name: np.shape(w) for name, w in weights.items()}
    return prune_increment(full_mask(shapes), rho, granularity, weights)


def make_iterative_schedule(rho: float, phi: int) -> list:
    """Equal sparsity increments: rho*k/phi for k = 1..phi, ending exactly
    at rho."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if phi < 1:
        raise ValueError("phi must be a positive integer")
    levels = [rho * k / phi for k in range(1, phi)]
    levels.append(rho)
    return levels
