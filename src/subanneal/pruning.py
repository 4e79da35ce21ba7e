"""Baseline subnetwork construction: one-shot and iterative pruning.

Selection is either uniform-random or smallest-L1-magnitude, at layerwise or
global granularity. One-shot masks are produced by a single increment from
the all-ones mask, so a one-epoch iterative run is *identical* to one-shot
under the same seed, not merely equal in distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masks import MaskSet, full_mask

RANDOM = "random"
MAGNITUDE = "magnitude"
LAYERWISE = "layerwise"
GLOBAL = "global"


class SeveredLayerError(ValueError):
    """A pruning quota would leave a layer with no active weights."""


@dataclass(frozen=True)
class PruneSpec:
    selector: str
    target_sparsity: float
    granularity: str = LAYERWISE

    def __post_init__(self):
        if self.selector not in (RANDOM, MAGNITUDE):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.granularity not in (LAYERWISE, GLOBAL):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError("target_sparsity must lie in [0, 1)")


def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5))


def _quota(n: int, level: float) -> int:
    q = _round_half_away(level * n)
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


def prune_increment(current: MaskSet, next_level: float, spec: PruneSpec,
                    params: dict | None = None,
                    rng: np.random.Generator | None = None) -> MaskSet:
    """Prune additional active entries until ``next_level`` sparsity is met.

    The quota applies to each layer's entries under ``layerwise`` and to all
    of them at once under ``global``. Previously pruned entries stay pruned;
    raises if ``next_level`` is below the current sparsity or if any layer
    would be fully severed.
    """
    if not 0.0 <= next_level < 1.0:
        raise ValueError("next_level must lie in [0, 1)")
    new = current.copy()
    groups = ([(f"{name}: ", [name]) for name in new]
              if spec.granularity == LAYERWISE else [("", list(new))])
    start = 0
    for prefix, names in groups:
        flat = new.flat[start:start + sum(new[name].size for name in names)]
        start += flat.size
        target = _quota(flat.size, next_level)
        have = flat.size - int(flat.sum())
        if target < have:
            raise ValueError(
                f"{prefix}next level {next_level} is below current sparsity")
        values = None if params is None else np.concatenate(
            [np.asarray(params[name]).reshape(-1) for name in names])
        if target == have:
            continue
        active = np.flatnonzero(flat)
        if spec.selector == RANDOM:
            if rng is None:
                raise ValueError("random selection needs an rng")
            chosen = rng.choice(active, size=target - have, replace=False)
        elif values is None:
            raise ValueError("magnitude selection needs parameter values")
        else:  # stable sort: ties go to the lower index
            order = np.argsort(np.abs(values[active]), kind="stable")
            chosen = active[order[:target - have]]
        flat[chosen] = 0
    if spec.granularity == GLOBAL:
        check_no_severed_layer(new, "global quota")
    return new


def random_mask(shapes: dict, spec: PruneSpec,
                rng: np.random.Generator) -> MaskSet:
    """One-shot random mask at the requested target sparsity."""
    if spec.selector != RANDOM:
        raise ValueError("random_mask requires the random selector")
    return prune_increment(full_mask(shapes), spec.target_sparsity, spec, rng=rng)


def magnitude_mask(params: dict, spec: PruneSpec) -> MaskSet:
    """One-shot mask that prunes the smallest-|w| entries."""
    if spec.selector != MAGNITUDE:
        raise ValueError("magnitude_mask requires the magnitude selector")
    shapes = {name: np.asarray(p).shape for name, p in params.items()}
    return prune_increment(full_mask(shapes), spec.target_sparsity, spec,
                           params=params)


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
