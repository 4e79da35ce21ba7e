"""Classification metrics of logits: accuracy, negative log likelihood, and
ECE (15 equal-width, right-closed bins over the max-probability confidence
unless a different bin count is requested). Accuracy and ECE read the
softmax probabilities, and accuracy breaks argmax ties toward the lowest
class index; NLL reads the logits, so it stays finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .nn.losses import log_sum_exp

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

    to_dict = asdict


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    preds = probs.argmax(axis=1)  # argmax takes the lowest index on ties
    return float(np.mean(preds == labels))


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


def evaluate(logits: np.ndarray, labels: np.ndarray,
             bins: int = ECE_BINS) -> MetricsRecord:
    """Score class logits against integer labels: accuracy and ECE of
    ``softmax(logits)`` (in the logits' dtype, then widened to float64), and
    NLL as ``mean(lse - logit[true])`` in float64, the training loss's sum."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree in length")
    probs = softmax(logits).astype(np.float64, copy=False)
    z = logits.astype(np.float64, copy=False)
    nll = float(np.mean(log_sum_exp(z) - z[np.arange(len(labels)), labels]))
    return MetricsRecord(accuracy=accuracy(probs, labels), nll=nll,
                         ece=ece(probs, labels, bins))
