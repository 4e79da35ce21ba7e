"""Desk-scale replications on the offline scikit-learn digits dataset.

These drive the exact pipelines behind acceptance criteria 6, 7 and 9 on the
one real handwritten-digit dataset available without network access (1797
8x8 images). The MNIST-specific criteria stay in test_acceptance.py; these
runs demonstrate the same orderings end to end with thresholds calibrated
for this smaller dataset.
"""

from types import SimpleNamespace

import numpy as np
import pytest

sklearn_datasets = pytest.importorskip("sklearn.datasets")

from subanneal.annealing import (
    FixedMaskController,
    IterativeController,
    TemperatureConfig,
    temperature_controller,
    tune,
)
from subanneal.data import normalization_stats, normalize
from subanneal.ensemble import (
    corrupt,
    score_ensemble,
    spawn_children,
    train_parent,
    tune_children,
)
from subanneal.models import build_mlp
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import Constant, OneCycle, parent_stepwise
from subanneal.pruning import PruneSpec, random_mask
from subanneal.rng import substream
from subanneal.training import predict_logits

BATCH = 32
RHO = 0.95
SEEDS = range(5)


@pytest.fixture(scope="module")
def digits():
    raw = sklearn_datasets.load_digits()
    x = raw.images.astype(np.float64)[:, None, :, :] / 16.0
    y = raw.target.astype(np.int64)
    x_train_raw, y_train = x[:1300], y[:1300]
    x_test_raw, y_test = x[1300:], y[1300:]
    mean, std = normalization_stats(x_train_raw)
    return {
        "train": (normalize(x_train_raw, mean, std), y_train),
        "test": (normalize(x_test_raw, mean, std), y_test),
        "test_raw": x_test_raw,
        "normalizer": lambda z: normalize(z, mean, std),
    }


def _parent(digits, seed):
    net = build_mlp((1, 8, 8), 10, hidden=(300, 100))
    net.init_params(substream(seed, "init"))
    train_parent(net, digits["train"], 10,
                 SGD(0.1, momentum=0.9, nesterov=True), parent_stepwise(10),
                 BATCH, substream(seed, "shuffle", "parent"))
    return net


def _accuracy(net, data):
    x, y = data
    return float((predict_logits(net, x).argmax(1) == y).mean())


@pytest.fixture(scope="module")
def ordering_results(digits):
    """One-shot vs iterative vs temperature annealing, 5 paired seeds."""
    results = {m: [] for m in ("oneshot", "iterative", "temperature")}
    for seed in SEEDS:
        parent = _parent(digits, seed)
        spec = PruneSpec("random", RHO)
        target = random_mask(parent.weight_shapes(), spec,
                             substream(seed, "mask"))
        for method in results:
            net = parent.clone()
            if method == "oneshot":
                controller = FixedMaskController(target)
            elif method == "iterative":
                controller = IterativeController(spec, 5, net.weights(),
                                                 substream(seed, "mask"))
            else:
                controller = temperature_controller(
                    target, TemperatureConfig(tau0=0.5, anneal_epochs=5))
            tune(net, controller, digits["train"], 20, Constant(0.01),
                 SGD(0.01, momentum=0.9, nesterov=True), BATCH,
                 rng_shuffle=substream(seed, "shuffle", "child", method),
                 rng_mask=substream(seed, "bernoulli", method))
            results[method].append(_accuracy(net, digits["test"]))
    return {m: np.array(v) for m, v in results.items()}


def test_temperature_annealing_beats_one_shot_at_high_sparsity(ordering_results):
    one_shot = ordering_results["oneshot"].mean()
    temperature = ordering_results["temperature"].mean()
    assert temperature >= one_shot + 0.02, (
        f"temperature {temperature:.4f} vs one-shot {one_shot:.4f}")


def test_iterative_beats_one_shot_at_high_sparsity(ordering_results):
    one_shot = ordering_results["oneshot"].mean()
    iterative = ordering_results["iterative"].mean()
    assert iterative >= one_shot, (
        f"iterative {iterative:.4f} vs one-shot {one_shot:.4f}")


def test_paired_seed_wins_favor_temperature(ordering_results):
    wins = int((ordering_results["temperature"] >
                ordering_results["oneshot"]).sum())
    assert wins >= 4, f"temperature won only {wins}/5 paired seeds"


@pytest.fixture(scope="module")
def ensemble_results(digits):
    """Five partitioned 4-member ensembles with the child recipe."""
    tau_cfg = TemperatureConfig(tau0=0.5, anneal_epochs=3)
    steps = 10 * -(-len(digits["train"][1]) // BATCH)

    def new_training():
        return (OneCycle(0.001, 0.1, 1e-7, 0.1, steps),
                SGD(0.001, momentum=0.9, nesterov=True, weight_decay=0.0005))

    out = []
    for seed in SEEDS:
        parent = build_mlp((1, 8, 8), 10, hidden=(300, 100))
        parent.init_params(substream(seed, "init"))
        train_parent(parent, digits["train"], 10,
                     SGD(0.1, momentum=0.9, nesterov=True,
                         weight_decay=0.0005),
                     parent_stepwise(10), BATCH,
                     substream(seed, "shuffle", "parent"))
        children = spawn_children(parent, 4, 0.5, True, substream(seed, "mask"))
        members, _, _ = tune_children(children, tau_cfg, True, digits["train"],
                                      10, new_training, BATCH, seed)
        nets = [net for net, _ in members]
        member_records, ensemble_record = score_ensemble(
            nets, None, *digits["test"])
        xc = digits["normalizer"](corrupt(digits["test_raw"], 3,
                                          substream(seed, "corrupt", 3)))
        records, ens = score_ensemble(nets, None, xc, digits["test"][1])
        out.append(SimpleNamespace(
            members=members, member_records=member_records,
            ensemble_record=ensemble_record,
            corrupted={3: {"members": records, "ensemble": ens}}))
    return out


def test_ensemble_beats_weakest_member_and_calibrates(ensemble_results):
    for result in ensemble_results:
        member_accs = [r.accuracy for r in result.member_records]
        member_nlls = [r.nll for r in result.member_records]
        assert result.ensemble_record.accuracy >= min(member_accs)
        assert result.ensemble_record.nll <= float(np.mean(member_nlls))


def test_partitioned_siblings_have_zero_overlap(ensemble_results):
    for result in ensemble_results:
        masks = [mask for _, mask in result.members]
        assert masks[0].overlap(masks[1]) == 0
        assert masks[2].overlap(masks[3]) == 0
        for mask in masks:
            assert mask.sparsity() == pytest.approx(0.5, abs=0.01)


def test_corrupted_robustness_direction(ensemble_results):
    wins = 0
    for result in ensemble_results:
        block = result.corrupted[3]
        member_mean = float(np.mean([r.accuracy for r in block["members"]]))
        wins += block["ensemble"].accuracy > member_mean
    assert wins >= 4, f"ensemble beat the mean member in only {wins}/5 seeds"
