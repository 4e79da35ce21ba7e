"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria 1-5, 8 and 10 are self-contained. Criteria 6, 7 and 9
replicate orderings on real MNIST: point the SUBANNEAL_DATA environment
variable at a directory holding ``mnist/train-images-idx3-ubyte`` (optionally
gzipped) and the three sibling files, or those three tests skip with an
explicit message (this build environment cannot download datasets).
Same-protocol desk runs on an offline dataset live in test_digits_desk.py.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from subanneal.annealing import (
    AnnealController,
    FixedMaskController,
    IterativeController,
    anti_probability,
    decay_fraction,
    init_random,
    init_temperature,
    probs_at_epoch,
    tune,
)
from subanneal.config import ExperimentConfig
from subanneal.data import make_blobs
from subanneal.masks import (
    MaskSet,
    ProbabilitySet,
    full_mask,
    load_mask_set,
    realize,
)
from subanneal.metrics import accuracy, ece
from subanneal.nn.layers import Conv2d, Dense, Flatten, Network, ReLU
from subanneal.nn.losses import cross_entropy_softmax
from subanneal.nn.optim import SGD
from subanneal.pruning import (
    PruneSpec,
    magnitude_mask,
    make_iterative_schedule,
    prune_increment,
    random_mask,
)
from subanneal.rng import substream
from subanneal.runner import read_metrics_csv, run, summarize_manifests
from subanneal.training import predict_logits

from fd import max_rel_error, named_grads, numerical_grad
from maskcheck import overlap, same_mask
from rates import constant


# --- criterion 1 -------------------------------------------------------------

def test_criterion_01_property_suite_masking_pruning_annealing():
    """Module invariants over >=100 randomized instances in under 2 minutes.

    Statistical invariants (3-sigma bounds) are allowed the failure rate
    their own definition implies: at most 2 of 100 seeded instances may
    exceed 3 sigma, and none may exceed 5 sigma.
    """
    started = time.time()
    instances = 100
    mean_violations = 0
    activation_violations = 0
    for i in range(instances):
        rng = substream(1000 + i, "prop")
        shapes = {"layer0.w": (int(rng.integers(4, 12)), int(rng.integers(6, 16))),
                  "layer2.w": (int(rng.integers(6, 16)), int(rng.integers(3, 8)))}

        # masking: realize() empirical mean over repeated draws tracks P
        probs = {n: rng.random(s) for n, s in shapes.items()}
        terminal = MaskSet({n: (p >= 0.5).astype(np.uint8)
                            for n, p in probs.items()})
        ps = ProbabilitySet(probs, terminal)
        draws = 200
        for name, p in ps.items():
            total = sum(int(realize(ps, rng)[name].sum()) for _ in range(draws))
            n_entries = p.size * draws
            expect = float(p.mean())
            sigma = np.sqrt(float((p * (1 - p)).sum()) * draws) / n_entries
            z = abs(total / n_entries - expect) / max(sigma, 1e-12)
            if z > 3.0:
                mean_violations += 1
            assert z < 5.0, f"instance {i} layer {name}: z={z:.2f}"

        # pruning: monotone, exact at every stage, phi=1 equals one-shot
        rho = float(rng.uniform(0.2, 0.8))
        phi = int(rng.integers(1, 5))
        spec = PruneSpec("random", rho)
        seed_tag = ("prune", i)
        mask = full_mask(shapes)
        stream = substream(2000 + i, *seed_tag)
        for level in make_iterative_schedule(rho, phi):
            nxt = prune_increment(mask, level, spec, rng=stream)
            for name in nxt:
                assert np.all(nxt[name] <= mask[name])
                quota = int(np.floor(level * nxt[name].size + 0.5))
                assert int(nxt[name].size - nxt[name].sum()) == quota
            mask = nxt
        one_shot = random_mask(shapes, spec, substream(3000 + i, "one"))
        level = make_iterative_schedule(rho, 1)[0]
        iter_one = prune_increment(full_mask(shapes), level, spec,
                                   rng=substream(3000 + i, "one"))
        assert same_mask(one_shot, iter_one)

        # pruning: magnitude agrees with an independent per-layer sort oracle
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        mag = magnitude_mask(params, PruneSpec("magnitude", rho))
        for name, w in params.items():
            k = int(np.floor(rho * w.size + 0.5))
            order = np.argsort(np.abs(w).reshape(-1), kind="stable")
            expected = np.ones(w.size, dtype=np.uint8)
            expected[order[:k]] = 0
            np.testing.assert_array_equal(mag[name].reshape(-1), expected)

        # annealing: per-entry monotonicity and bounds across epochs
        tau0 = float(rng.uniform(0.1, 1.0))
        decay, phi = ("linear", "cosine")[i % 2], int(rng.integers(1, 6))
        target = MaskSet({n: (rng.random(s) < 0.5).astype(np.uint8)
                          for n, s in shapes.items()})
        init = init_temperature(target, tau0, "reverse-dropout")
        prev = probs_at_epoch(init, decay, phi, 0)
        for e in range(1, phi + 2):
            cur = probs_at_epoch(init, decay, phi, e)
            for name in cur.probs:
                kept = target[name] == 1
                assert np.all(cur[name][kept] >= prev[name][kept])
                assert np.all(cur[name][~kept] <= prev[name][~kept])
                assert cur[name].min() >= 0.0 and cur[name].max() <= 1.0
            prev = cur
        final = probs_at_epoch(init, decay, phi, phi)
        assert final.is_binary() and same_mask(final.terminal, target)

        # annealing: anti-probability mirror is exact at every epoch
        anti = anti_probability(init)
        for e in range(phi + 1):
            a = probs_at_epoch(init, decay, phi, e)
            b = probs_at_epoch(anti, decay, phi, e)
            for name in a.probs:
                np.testing.assert_allclose(a[name] + b[name], 1.0, atol=1e-15)

        # annealing: uniform random annealing activates ~50% at epoch 0
        rho_u = float(rng.choice([0.5, 0.7, 0.9, 0.98]))
        ups = init_random({"u": (50, 40)}, rho_u, rng)
        m0 = realize(ups, rng)["u"]
        z = abs(m0.mean() - 0.5) / np.sqrt(0.25 / m0.size)
        if z > 3.0:
            activation_violations += 1
        assert z < 5.0

        # annealing: reverse dropout keeps target entries active every draw
        rd = AnnealController(init_temperature(target, 0.5, "reverse-dropout"),
                              "cosine", 3)
        rd.begin_epoch(1)
        drawn = rd.batch_mask(rng)
        for name in target:
            assert np.all(drawn[name][target[name] == 1] == 1)

        # biases are never maskable
        net = Network([Dense(shapes["layer0.w"][0], shapes["layer0.w"][1]),
                       ReLU(),
                       Dense(shapes["layer0.w"][1], 3)],
                      input_shape=(shapes["layer0.w"][0],))
        assert all(name.endswith(".w") for name in net.weights())

    # masked-off weights receive exactly zero gradient (finite differences)
    for i in range(100):
        rng = substream(4000 + i, "fdzero")
        net = Network([Dense(5, 4), ReLU(), Dense(4, 3)], input_shape=(5,))
        net.init_params(rng)
        mask = MaskSet({n: (rng.random(w.shape) < 0.6).astype(np.uint8)
                        for n, w in net.weights().items()})
        x = rng.normal(size=(3, 5))
        labels = rng.integers(0, 3, size=3)

        def masked_loss():
            originals = {n: net.layers[int(n.split(".")[0][5:])].w
                         for n in net.weights()}
            for n, w in originals.items():
                net.layers[int(n.split(".")[0][5:])].w = w * mask[n]
            loss, _ = cross_entropy_softmax(net.forward(x), labels)
            for n, w in originals.items():
                net.layers[int(n.split(".")[0][5:])].w = w
            return loss

        for name, w in net.weights().items():
            off_positions = np.argwhere(mask[name] == 0)[:3]
            for pos in off_positions:
                idx = tuple(pos)
                h = 1e-5
                orig = w[idx]
                w[idx] = orig + h
                fp = masked_loss()
                w[idx] = orig - h
                fm = masked_loss()
                w[idx] = orig
                assert abs(fp - fm) / (2 * h) < 1e-10

    # finalized networks: masked and unmasked logits coincide (tune-based)
    for i in range(100):
        rng = substream(5000 + i, "fin")
        net = Network([Dense(6, 8), ReLU(), Dense(8, 3)], input_shape=(6,))
        net.init_params(rng)
        target = random_mask(net.weight_shapes(), PruneSpec("random", 0.5),
                             rng)
        controller = AnnealController(
            init_temperature(target, 0.5, "reverse-dropout"), "cosine", 1)
        blob = make_blobs("train", n=48, d=6, k=3, data_seed=i)
        tune(net, controller, (blob.x, blob.y), 2, constant(0.05), SGD(),
             16, rng_shuffle=substream(i, "s"), rng_mask=substream(i, "b"))
        np.testing.assert_array_equal(predict_logits(net, blob.x),
                                      predict_logits(net, blob.x, mask=target))

    elapsed = time.time() - started
    assert mean_violations <= 2
    assert activation_violations <= 2
    assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"
    print(f"\n[criterion 01] PASS property suite: {instances} randomized "
          f"instances per invariant, {elapsed:.1f}s")


# --- criterion 2 -------------------------------------------------------------

def test_criterion_02_gradient_correctness_all_layer_types():
    started = time.time()
    cases = [
        ([Dense(6, 5), ReLU(), Dense(5, 4)], (6,)),
        ([Dense(4, 4, bias=False), ReLU(), Dense(4, 3)], (4,)),
        ([Conv2d(2, 3, 3, stride=1, padding=1), ReLU(), Flatten(),
          Dense(75, 4)], (2, 5, 5)),
        ([Conv2d(1, 2, 3, stride=2, padding=1), ReLU(), Flatten(),
          Dense(18, 3)], (1, 5, 5)),
        ([Conv2d(2, 2, 2, stride=1, padding=0), ReLU(), Flatten(),
          Dense(18, 3)], (2, 4, 4)),
        ([Flatten(), Dense(12, 4)], (3, 2, 2)),
    ]
    worst = 0.0
    for layers, in_shape in cases:
        rng = substream(7, "grad", str(in_shape))
        net = Network(layers, input_shape=in_shape)
        net.init_params(rng)
        x = rng.normal(size=(3, *in_shape))
        labels = rng.integers(0, net.output_shape[0], size=3)
        _, grad_logits = cross_entropy_softmax(net.forward(x), labels)
        net.backward(grad_logits)
        analytic = named_grads(net)

        def f():
            return cross_entropy_softmax(net.forward(x), labels)[0]

        for name, param in net.params().items():
            err = max_rel_error(analytic[name], numerical_grad(f, param))
            worst = max(worst, err)
            assert err < 1e-4, f"{in_shape} {name}: {err:.2e}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\n[criterion 02] PASS gradient check: worst relative error "
          f"{worst:.2e} (< 1e-4), {elapsed:.1f}s")


# --- criterion 3 -------------------------------------------------------------

def test_criterion_03_degeneracy_equivalences_bit_exact():
    blob = make_blobs("train", n=96, d=8, k=3, data_seed=0)
    shapes = {"layer0.w": (8, 12), "layer2.w": (12, 3)}
    target = random_mask(shapes, PruneSpec("random", 0.5), substream(1, "m"))

    def run_with(controller, seed=3):
        net = Network([Dense(8, 12), ReLU(), Dense(12, 3)], input_shape=(8,))
        net.init_params(substream(seed, "init"))
        tune(net, controller, (blob.x, blob.y), 4, constant(0.05),
             SGD(momentum=0.9, nesterov=True), 32,
             rng_shuffle=substream(seed, "shuffle"),
             rng_mask=substream(seed, "bernoulli"))
        return net

    # tau0 = 0 temperature annealing == fixed-mask tuning, bitwise
    net_a = run_with(AnnealController(
        init_temperature(target, 0.0, "reverse-dropout"), "cosine", 3))
    net_b = run_with(FixedMaskController(target))
    for name in net_a.params():
        assert np.array_equal(net_a.params()[name], net_b.params()[name])

    # phi = 1 iterative == one-shot under the shared seed, bitwise
    one_shot = random_mask(shapes, PruneSpec("random", 0.7), substream(5, "m"))
    level = make_iterative_schedule(0.7, 1)[0]
    iter_mask = prune_increment(full_mask(shapes), level,
                                PruneSpec("random", 0.7),
                                rng=substream(5, "m"))
    assert same_mask(one_shot, iter_mask)
    net_c = run_with(FixedMaskController(one_shot), seed=4)
    net_e = Network([Dense(8, 12), ReLU(), Dense(12, 3)], input_shape=(8,))
    net_e.init_params(substream(4, "init"))
    ctl = IterativeController(PruneSpec("random", 0.7), 1, net_e.weights(),
                              substream(5, "m"))
    tune(net_e, ctl, (blob.x, blob.y), 4, constant(0.05),
         SGD(momentum=0.9, nesterov=True), 32,
         rng_shuffle=substream(4, "shuffle"),
         rng_mask=substream(4, "bernoulli"))
    for name in net_c.params():
        assert np.array_equal(net_c.params()[name], net_e.params()[name])

    # anti-probability involution is bit-exact on library-generated sets
    for maker in (
            lambda: init_random({"a": (64, 32)}, 0.6, substream(6, "anti")),
            lambda: init_temperature(target, 0.5, "reverse-dropout"),
            lambda: init_temperature(target, 0.25, "full-scaling"),
    ):
        ps = maker()
        twice = anti_probability(anti_probability(ps))
        for name in ps.probs:
            assert np.array_equal(twice[name], ps[name])
        assert same_mask(twice.terminal, ps.terminal)
    print("\n[criterion 03] PASS degeneracy equivalences bit-exact "
          "(tau0=0, phi=1, anti-involution)")


# --- criterion 4 -------------------------------------------------------------

def test_criterion_04_schedule_endpoints_exact():
    rng = substream(8, "ends")
    checked = 0
    terminal = MaskSet({"w": np.array([0, 0, 1, 1], dtype=np.uint8)})
    for _ in range(200):
        tau_min = float(rng.uniform(0.0, 0.4))
        tau_max = tau_min + float(rng.uniform(0.0, 0.6))
        total = int(rng.integers(1, 50))
        # arbitrary initial probabilities, annealing toward 0 and toward 1
        init = ProbabilitySet(
            {"w": np.array([tau_max, tau_min, tau_min, tau_max])}, terminal)
        for kind in ("linear", "cosine"):
            assert decay_fraction(kind, 0, total) == 1.0  # exact, double precision
            assert decay_fraction(kind, total, total) == 0.0
            first = probs_at_epoch(init, kind, total, 0)
            last = probs_at_epoch(init, kind, total, total)
            assert first["w"].tobytes() == init["w"].tobytes()
            assert last["w"].tobytes() == np.array([0.0, 0.0, 1.0, 1.0]).tobytes()
            assert same_mask(last.terminal, terminal)
            checked += 1
    print(f"\n[criterion 04] PASS schedule endpoints exact in double "
          f"precision ({checked} schedules)")


# --- criterion 5 -------------------------------------------------------------

def test_criterion_05_uniform_random_annealing_initial_activation():
    for rho in (0.5, 0.9, 0.98):
        ps = init_random({"layer.w": (100, 100)}, rho,
                         substream(9, "act", rho))
        draw_rng = substream(10, "act", rho)
        fractions = [realize(ps, draw_rng)["layer.w"].mean()
                     for _ in range(50)]
        mean_fraction = float(np.mean(fractions))
        assert abs(mean_fraction - 0.5) < 0.015, rho
    print("\n[criterion 05] PASS uniform random annealing activates "
          "0.5 +/- 0.015 at epoch 0 for rho in {0.5, 0.9, 0.98}")


# --- criterion 8 -------------------------------------------------------------

def test_criterion_08_ece_oracle():
    probs = np.array([
        [0.30, 0.45, 0.25],
        [0.55, 0.25, 0.20],
        [0.58, 0.22, 0.20],
        [0.90, 0.05, 0.05],
        [0.93, 0.04, 0.03],
        [0.97, 0.02, 0.01],
    ])
    labels = np.array([1, 2, 0, 0, 1, 0])
    # hand-computed, 15 right-closed bins: occupied bins 6, 8, 13, 14
    hand = (1 * abs(1.0 - 0.45) + 2 * abs(0.5 - (0.55 + 0.58) / 2)
            + 2 * abs(0.5 - (0.90 + 0.93) / 2) + 1 * abs(1.0 - 0.97)) / 6
    assert abs(ece(probs, labels) - hand) < 1e-12

    rng = substream(11, "ece")
    logits = rng.normal(size=(300, 6))
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    y = rng.integers(0, 6, size=300)
    one_bin = ece(p, y, bins=1)
    assert one_bin == abs(accuracy(p, y) - float(p.max(axis=1).mean()))
    print("\n[criterion 08] PASS ECE matches the hand-binned oracle to 1e-12;"
          " one-bin ECE equals |acc - mean conf| exactly")


# --- criterion 10 ------------------------------------------------------------

def test_criterion_10_reproducibility_bit_identical_csvs(tmp_path):
    base = {
        "task": "ablate",
        "dataset": "synthetic-blobs",
        "blobs": {"n": 160, "d": 8, "k": 3, "separation": 4.0, "data_seed": 0},
        "method": ["oneshot", "temperature-anneal"],
        "rho": 0.5, "phi": 2, "tau0": 0.5,
        "parent_epochs": 2, "epochs": 3, "batch_size": 32,
        "lr": {"kind": "constant", "value": 0.05},
        "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                      "weight_decay": 0.0},
        "seed": 2,
    }
    outs = []
    for tag in ("first", "second"):
        cfg = ExperimentConfig.from_dict({**base,
                                          "out_dir": str(tmp_path / tag)})
        manifest = json.loads(run(cfg).read_text())
        files = sorted(manifest["metrics_files"])
        outs.append([(f, (tmp_path / tag / f).read_bytes()) for f in files])
    assert outs[0] == outs[1]
    n_files = len(outs[0])
    print(f"\n[criterion 10] PASS rerun: {n_files} metric CSVs "
          "bit-identical across runs")


# --- criteria 6, 7, 9: real MNIST ---------------------------------------------

def _mnist_root():
    root = os.environ.get("SUBANNEAL_DATA")
    if not root:
        return None
    base = Path(root) / "mnist"
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    for name in needed:
        if not (base / name).exists() and not (base / (name + ".gz")).exists():
            return None
    return root


requires_mnist = pytest.mark.skipif(
    _mnist_root() is None,
    reason="requires the real MNIST IDX files: set SUBANNEAL_DATA=<dir> "
           "containing mnist/{train,t10k}-{images-idx3,labels-idx1}-ubyte"
           "(.gz); this sandboxed build environment has no network access "
           "to fetch them (see the decisions ledger)")


@pytest.fixture(scope="module")
def mnist_ordering(tmp_path_factory):
    """Criterion 6 sweep: 3 methods x 3 sparsities x 5 paired seeds."""
    out = tmp_path_factory.mktemp("mnist-ordering")
    cfg = ExperimentConfig.from_dict({
        "task": "ablate",
        "dataset": "mnist",
        "model": "mlp",
        "method": ["oneshot", "iterative", "temperature-anneal"],
        "rho": [0.9, 0.95, 0.98], "phi": 5, "tau0": 0.5,
        "selector": "random", "granularity": "layerwise",
        "parent_epochs": 10, "epochs": 20, "batch_size": 128,
        "lr": {"kind": "constant", "value": 0.01},
        "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                      "weight_decay": 0.0},
        "seeds": [0, 1, 2, 3, 4],
        "train_subset": 10000,
        "out_dir": str(out / "sweep"),
    })
    started = time.time()
    manifest_path = run(cfg)
    elapsed = time.time() - started
    rows = summarize_manifests([manifest_path])
    means = {(r["method"], r["rho"]): r["mean_acc"] for r in rows}
    return means, elapsed


@requires_mnist
def test_criterion_06_ordering_replication_mnist(mnist_ordering):
    means, elapsed = mnist_ordering
    for rho in (0.9, 0.95, 0.98):
        assert means[("temperature-anneal", rho)] >= means[("oneshot", rho)], \
            f"temperature < one-shot at rho={rho}"
        assert means[("iterative", rho)] >= means[("oneshot", rho)], \
            f"iterative < one-shot at rho={rho}"
    gap = means[("temperature-anneal", 0.98)] - means[("oneshot", 0.98)]
    assert gap > 0.0, "no strict temperature gap at rho=0.98"
    assert elapsed < 45 * 60, f"sweep took {elapsed/60:.1f} min"
    print(f"\n[criterion 06] PASS MNIST ordering: temperature/iterative >= "
          f"one-shot at rho 0.9/0.95/0.98 over 5 paired seeds; "
          f"gap at 0.98 = {gap:.4f}; {elapsed/60:.1f} min")


@requires_mnist
def test_mnist_header_counts():
    """The published dataset constants, read back from the IDX headers."""
    from subanneal.data import load_dataset

    train = load_dataset("mnist", "train")
    test = load_dataset("mnist", "test")
    assert train.x.shape == (60000, 1, 28, 28)
    assert test.x.shape == (10000, 1, 28, 28)


@requires_mnist
def test_mnist_parent_baseline(tmp_path):
    """Supporting check for the parent recipe: 10 epochs reach 95% test."""
    cfg = ExperimentConfig.from_dict({
        "task": "train-parent", "dataset": "mnist", "model": "mlp",
        "parent_epochs": 10, "batch_size": 128, "train_subset": 10000,
        "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                      "weight_decay": 0.0},
        "out_dir": str(tmp_path / "parent"), "seed": 0,
    })
    manifest = json.loads(run(cfg).read_text())
    rows = read_metrics_csv(tmp_path / "parent" / manifest["metrics_files"][0])
    assert rows[-1]["test_acc"] > 0.95


@pytest.fixture(scope="module")
def mnist_ensembles(tmp_path_factory):
    """Criteria 7 and 9 share these five ensemble runs."""
    out = tmp_path_factory.mktemp("mnist-ensemble")
    cfg = ExperimentConfig.from_dict({
        "task": "ensemble",
        "dataset": "mnist",
        "model": "mlp",
        "rho": 0.5, "phi": 3, "tau0": 0.5,
        "parent_epochs": 10, "epochs": 10, "batch_size": 128,
        "lr": {"kind": "onecycle", "start": 0.001, "max": 0.1, "end": 1e-7,
               "warmup_fraction": 0.1},
        "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                      "weight_decay": 0.0005},
        "ensemble": {"n_members": 4, "partitioning": True,
                     "include_parent": False, "corruption_severities": [3]},
        "seeds": [0, 1, 2, 3, 4],
        "train_subset": 10000,
        "out_dir": str(out / "runs"),
    })
    started = time.time()
    manifest_path = run(cfg)
    elapsed = time.time() - started
    manifest = json.loads(manifest_path.read_text())
    summaries = []
    for rel in manifest["metrics_files"]:
        summaries.append((manifest_path.parent / rel,
                          json.loads((manifest_path.parent / rel).read_text())))
    return summaries, elapsed


@requires_mnist
def test_criterion_07_ensemble_recipe_mnist(mnist_ensembles):
    summaries, elapsed = mnist_ensembles
    path, summary = summaries[0]
    member_accs = [m["accuracy"] for m in summary["members"]]
    member_nlls = [m["nll"] for m in summary["members"]]
    ens = summary["ensemble"]
    assert ens["accuracy"] >= max(member_accs) - 0.002
    assert ens["nll"] <= float(np.mean(member_nlls))
    for spath, ssummary in summaries:
        seed_dir = spath.parent
        masks = [load_mask_set(seed_dir / f"member-{i}.mask.ssam")
                 for i in range(4)]
        assert overlap(masks[0], masks[1]) == 0
        assert overlap(masks[2], masks[3]) == 0
        for m in masks:
            assert m.sparsity() == pytest.approx(0.5, abs=0.01)
    assert elapsed < 30 * 60 * len(summaries), "ensemble runs over budget"
    print(f"\n[criterion 07] PASS MNIST ensemble: acc {ens['accuracy']:.4f} "
          f">= max member - 0.002; NLL {ens['nll']:.4f} <= mean member; "
          f"sibling overlap exactly 0")


@requires_mnist
def test_criterion_09_robustness_direction_mnist(mnist_ensembles):
    summaries, _ = mnist_ensembles
    wins = 0
    for _, summary in summaries:
        block = summary["corrupted"]["3"]
        ens_acc = block["ensemble"]["accuracy"]
        member_mean = float(np.mean([m["accuracy"] for m in block["members"]]))
        wins += ens_acc > member_mean
    assert wins >= 4, f"ensemble beat mean member in only {wins}/5 seeds"
    print(f"\n[criterion 09] PASS corrupted-MNIST severity 3: ensemble beats "
          f"the mean member in {wins}/5 seeds")
