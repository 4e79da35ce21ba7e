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
    AnnealController,
    FixedMaskController,
    IterativeController,
    init_temperature,
    tune,
)
from subanneal.data import normalization_stats, normalize
from subanneal.ensemble import (
    corrupt,
    member_controller,
    score_ensemble,
    train_parent,
)
from subanneal.models import build_mlp
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import lr_schedule
from subanneal.pruning import PruneSpec, random_mask
from subanneal.rng import substream
from subanneal.training import predict_logits

from maskcheck import overlap
from members import tune_member
from rates import constant

BATCH = 32
RHO = 0.95
SEEDS = range(5)
PARENT_LR = {"kind": "parent-stepwise", "hi": 0.1, "lo": 0.001}
ONE_CYCLE = {"kind": "onecycle", "start": 0.001, "max": 0.1, "end": 1e-7,
             "warmup_fraction": 0.1}


def _steps_per_epoch(data):
    return -(-len(data[1]) // BATCH)


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
    train_parent(net, digits["train"], 10, SGD(momentum=0.9, nesterov=True),
                 lr_schedule(PARENT_LR, 10, _steps_per_epoch(digits["train"])),
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
                controller = AnnealController(
                    init_temperature(target, 0.5, "reverse-dropout"),
                    "cosine", 5)
            tune(net, controller, digits["train"], 20, constant(0.01),
                 SGD(momentum=0.9, nesterov=True), BATCH,
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
    steps_per_epoch = _steps_per_epoch(digits["train"])

    def new_training():
        return (lr_schedule(ONE_CYCLE, 10, steps_per_epoch),
                SGD(momentum=0.9, nesterov=True, weight_decay=0.0005))

    out = []
    for seed in SEEDS:
        parent = build_mlp((1, 8, 8), 10, hidden=(300, 100))
        parent.init_params(substream(seed, "init"))
        train_parent(parent, digits["train"], 10,
                     SGD(momentum=0.9, nesterov=True,
                         weight_decay=0.0005),
                     lr_schedule(PARENT_LR, 10, steps_per_epoch), BATCH,
                     substream(seed, "shuffle", "parent"))
        members = []
        for i in range(4):
            controller = member_controller(parent.weight_shapes(), i, 0.5,
                                           True, 0.5, "reverse-dropout",
                                           "cosine", 3,
                                           substream(seed, "mask"))
            net, _ = tune_member(parent, i, controller, digits["train"], 10,
                                 *new_training(), BATCH, seed)
            members.append((net, controller.mask))
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
        assert overlap(masks[0], masks[1]) == 0
        assert overlap(masks[2], masks[3]) == 0
        for mask in masks:
            assert mask.sparsity() == pytest.approx(0.5, abs=0.01)


def test_corrupted_robustness_direction(ensemble_results):
    wins = 0
    for result in ensemble_results:
        block = result.corrupted[3]
        member_mean = float(np.mean([r.accuracy for r in block["members"]]))
        wins += block["ensemble"].accuracy > member_mean
    assert wins >= 4, f"ensemble beat the mean member in only {wins}/5 seeds"
