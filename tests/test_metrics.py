import math

import numpy as np
import pytest

from subanneal.metrics import MetricsRecord, accuracy, ece, evaluate, softmax
from subanneal.nn.losses import cross_entropy_softmax


def test_perfect_one_hot_predictions():
    logits = 800.0 * np.eye(4)  # softmax rounds to exactly one-hot
    labels = np.arange(4)
    rec = evaluate(logits, labels)
    assert rec.accuracy == 1.0
    assert rec.nll == 0.0
    assert rec.ece == pytest.approx(0.0, abs=1e-15)


def test_uniform_predictions_symmetry_and_tie_rule():
    logits = np.zeros((10, 10))
    labels = np.array([0, 0, 1, 2, 3, 4, 5, 0, 9, 8])
    rec = evaluate(logits, labels)
    assert rec.nll == pytest.approx(math.log(10), abs=1e-12)
    # argmax ties resolve to class 0, so accuracy is the rate of true zeros
    assert rec.accuracy == pytest.approx(0.3)


def test_two_bin_hand_computed_ece():
    probs = np.array([
        [0.8, 0.1, 0.1],    # conf 0.8 -> bin 1, correct
        [0.4, 0.35, 0.25],  # conf 0.4 -> bin 0, wrong
        [0.3, 0.45, 0.25],  # conf 0.45 -> bin 0, correct
        [0.1, 0.2, 0.7],    # conf 0.7 -> bin 1, correct
    ])
    labels = np.array([0, 1, 1, 2])
    # bin 0: acc 1/2, conf 0.425 -> gap 0.075; bin 1: acc 1, conf 0.75 -> 0.25
    expected = 0.5 * 0.075 + 0.5 * 0.25
    assert ece(probs, labels, bins=2) == pytest.approx(expected, abs=1e-12)


def test_six_prediction_fixture_fifteen_bins():
    probs = np.array([
        [0.30, 0.45, 0.25],  # conf 0.45 -> bin 6, correct
        [0.55, 0.25, 0.20],  # conf 0.55 -> bin 8, wrong
        [0.58, 0.22, 0.20],  # conf 0.58 -> bin 8, correct
        [0.90, 0.05, 0.05],  # conf 0.90 -> bin 13, correct
        [0.93, 0.04, 0.03],  # conf 0.93 -> bin 13, wrong
        [0.97, 0.02, 0.01],  # conf 0.97 -> bin 14, correct
    ])
    labels = np.array([1, 2, 0, 0, 1, 0])
    # hand-binned: (1*|1-0.45| + 2*|0.5-0.565| + 2*|0.5-0.915| + 1*|1-0.97|)/6
    expected = (0.55 + 2 * 0.065 + 2 * 0.415 + 0.03) / 6
    assert ece(probs, labels) == pytest.approx(expected, abs=1e-12)
    # the same probabilities given as logits score the same through evaluate
    assert evaluate(np.log(probs), labels).ece == pytest.approx(expected,
                                                                abs=1e-12)


def test_one_bin_ece_equals_accuracy_confidence_gap_exactly():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(200, 5))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 5, size=200)
    gap = abs(accuracy(probs, labels) - float(probs.max(axis=1).mean()))
    assert ece(probs, labels, bins=1) == gap


def test_shape_validation():
    with pytest.raises(ValueError, match="disagree"):
        evaluate(np.zeros((2, 3)), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="disagree"):
        evaluate(np.zeros(3), np.array([0, 1, 2]))


def test_metrics_record_ranges_enforced():
    with pytest.raises(ValueError):
        MetricsRecord(accuracy=1.2, nll=0.0, ece=0.0)
    with pytest.raises(ValueError):
        MetricsRecord(accuracy=0.5, nll=-1.0, ece=0.0)
    with pytest.raises(ValueError):
        MetricsRecord(accuracy=0.5, nll=0.0, ece=2.0)


def test_evaluate_is_pure():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(64, 10))
    labels = rng.integers(0, 10, size=64)
    a = evaluate(logits, labels)
    b = evaluate(logits, labels)
    assert (a.accuracy, a.nll, a.ece) == (b.accuracy, b.nll, b.ece)


def test_nll_of_known_probabilities():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    labels = np.array([0, 1])
    assert evaluate(np.log(probs), labels).nll == pytest.approx(
        -(math.log(0.5) + math.log(0.75)) / 2, abs=1e-12)


def test_nll_is_the_training_loss_bit_for_bit():
    rng = np.random.default_rng(2)
    for scale in (1.0, 30.0):
        logits = scale * rng.normal(size=(97, 7))
        labels = rng.integers(0, 7, size=97)
        assert (evaluate(logits, labels).nll
                == cross_entropy_softmax(logits, labels)[0])


@pytest.mark.parametrize("dtype,gap", [(np.float64, 800.0),
                                       (np.float32, 120.0)])
def test_nll_stays_finite_when_the_true_class_underflows(dtype, gap):
    # softmax gives the true class a probability of exactly 0 here
    logits = np.array([[0.0, gap], [gap, 0.0]], dtype=dtype)
    assert softmax(logits)[0, 0] == 0.0
    rec = evaluate(logits, np.array([0, 0]))
    assert rec.nll == gap / 2
    assert rec.accuracy == 0.5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_accuracy_and_ece_are_those_of_the_softmax(dtype):
    # the probabilities are the softmax in the logits' dtype, then widened
    rng = np.random.default_rng(3)
    logits = (4.0 * rng.normal(size=(300, 10))).astype(dtype)
    labels = rng.integers(0, 10, size=300)
    probs = np.asarray(softmax(logits), dtype=np.float64)
    rec = evaluate(logits, labels)
    assert rec.accuracy == accuracy(probs, labels)
    assert rec.ece == ece(probs, labels)
