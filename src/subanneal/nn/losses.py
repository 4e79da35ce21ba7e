"""Softmax cross entropy, the classification loss used everywhere here."""

import numpy as np


def log_sum_exp(logits: np.ndarray) -> np.ndarray:
    """Per-row log(sum(exp(logits))), shifted by the row max so it neither
    overflows nor underflows; computed in the logits' dtype."""
    m = logits.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))


def cross_entropy_softmax(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy of softmax(logits) against integer labels.

    Returns ``(loss, grad_logits)`` where the gradient is with respect to the
    logits and already includes the 1/batch factor, so each gradient row sums
    to zero.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    lse = log_sum_exp(logits)
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    probs = np.exp(logits - lse[:, None])
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad
