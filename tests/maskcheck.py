"""Mask comparisons shared by the tests."""

import numpy as np

from subanneal.nn.layers import views


def same_mask(a, b) -> bool:
    """Equal layouts (names and shapes) and equal entries under each name."""
    return a.shapes == b.shapes and all(
        np.array_equal(m, b.masks[name]) for name, m in a.masks.items())


def overlap(a, b) -> int:
    """Number of positions active in both masks."""
    return int((a.flat & b.flat).sum())


def is_binary(probs) -> bool:
    """Whether every probability of a ``ProbabilitySet`` is exactly 0 or 1."""
    return bool(np.isin(probs.flat, (0.0, 1.0)).all())


def layers(probs) -> dict:
    """A ``ProbabilitySet``'s probabilities by name: read-only views of
    its ``flat`` in layer order."""
    return dict(zip(probs.shapes, views(probs.flat, probs.shapes.values())))
