"""Classification metrics: accuracy, negative log likelihood, and ECE.

ECE uses 15 equal-width, right-closed bins over the max-probability
confidence unless a different bin count is requested. Accuracy breaks
argmax ties toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ECE_BINS = 15


@dataclass
class MetricsRecord:
    accuracy: float
    nll: float
    ece: float
    realized_sparsity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.nll < 0.0:
            raise ValueError("nll must be nonnegative")
        if not 0.0 <= self.ece <= 1.0:
            raise ValueError("ece must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "nll": self.nll,
            "ece": self.ece,
            "realized_sparsity": self.realized_sparsity,
        }


def _check_rows(probs: np.ndarray) -> None:
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1 within 1e-6")


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    preds = probs.argmax(axis=1)  # argmax takes the lowest index on ties
    return float(np.mean(preds == labels))


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    p_true = probs[np.arange(len(labels)), labels]
    with np.errstate(divide="ignore"):
        return float(np.mean(-np.log(p_true)))


def ece(probs: np.ndarray, labels: np.ndarray, bins: int = ECE_BINS) -> float:
    """Binned |accuracy - confidence| gap, weighted by bin occupancy.

    Bin b covers (b/bins, (b+1)/bins]: right-closed, so a confidence exactly
    on a boundary belongs to the lower bin.
    """
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    total = len(labels)
    value = 0.0
    for b in range(bins):
        members = idx == b
        count = int(members.sum())
        if count:
            gap = abs(float(correct[members].mean()) - float(conf[members].mean()))
            value += (count / total) * gap
    return value


def evaluate(probs: np.ndarray, labels: np.ndarray,
             bins: int = ECE_BINS) -> MetricsRecord:
    """Score predicted class probabilities against integer labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("predictions and labels disagree in length")
    _check_rows(probs)
    return MetricsRecord(accuracy=accuracy(probs, labels),
                         nll=nll(probs, labels),
                         ece=ece(probs, labels, bins))
