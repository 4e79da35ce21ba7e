import json
from pathlib import Path

import pytest

from subanneal.config import ConfigError, ExperimentConfig


def _minimal(**extra):
    raw = {"task": "prune-tune"}
    raw.update(extra)
    return raw


def test_roundtrip_is_identity():
    cfg = ExperimentConfig.from_dict(_minimal(
        dataset="synthetic-blobs", method=["oneshot", "temperature-anneal"],
        rho=[0.5, 0.9], phi=3, tau0=0.5, epochs=4, seed=7, repeats=2))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.config_hash() == cfg.config_hash()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_minimal(learning_rate=0.1))
    with pytest.raises(ConfigError, match="unknown lr keys"):
        ExperimentConfig.from_dict(_minimal(lr={"kind": "constant",
                                                "vallue": 0.1}))
    with pytest.raises(ConfigError, match="unknown optimizer keys"):
        ExperimentConfig.from_dict(_minimal(optimizer={"kind": "sgd",
                                                       "mu": 0.9}))
    with pytest.raises(ConfigError, match="unknown ensemble keys"):
        ExperimentConfig.from_dict(_minimal(ensemble={"members": 4}))
    with pytest.raises(ConfigError, match="unknown blobs keys"):
        ExperimentConfig.from_dict(_minimal(blobs={"count": 10}))


def test_enums_validated():
    for bad in (dict(task="explode"), dict(dataset="imagenet"),
                dict(model="resnet"), dict(method="grasp"),
                dict(selector="fisher"), dict(eval_mask="bernoulli")):
        raw = {"task": "prune-tune"}
        raw.update(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


def test_ranges_validated():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal(rho=1.0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal(tau0=1.5))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal(batch_size=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal(lr={"kind": "constant",
                                                "value": -0.1}))


def test_scalars_promote_to_lists():
    cfg = ExperimentConfig.from_dict(_minimal(method="oneshot", rho=0.9,
                                              phi=5, tau0=0.4))
    assert cfg.method == ["oneshot"]
    assert cfg.rho == [0.9]
    assert cfg.phi == [5]
    assert cfg.tau0 == [0.4]


def test_run_seeds_explicit_list_beats_repeats():
    cfg = ExperimentConfig.from_dict(_minimal(seeds=[1, 2, 3], repeats=7))
    assert cfg.run_seeds() == [1, 2, 3]
    cfg2 = ExperimentConfig.from_dict(_minimal(seed=10, repeats=3))
    assert cfg2.run_seeds() == [10, 11, 12]


def test_decay_defaults_follow_method():
    cfg = ExperimentConfig.from_dict(_minimal())
    assert cfg.decay_for("temperature-anneal") == "cosine"
    assert cfg.decay_for("random-anneal") == "linear"
    forced = ExperimentConfig.from_dict(_minimal(anneal_decay="linear"))
    assert forced.decay_for("temperature-anneal") == "linear"


def test_cifar_defaults_to_desk_scale_subset():
    cfg = ExperimentConfig.from_dict(_minimal(dataset="cifar10-subset"))
    assert cfg.train_subset == 10000
    full = ExperimentConfig.from_dict(_minimal(dataset="cifar10-subset",
                                               train_subset=0))
    assert full.train_subset == 0


def test_eval_task_requires_weights():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"task": "eval"})
    ok = ExperimentConfig.from_dict({"task": "eval", "weights": "w.ssam"})
    assert ok.weights == "w.ssam"


def test_file_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(_minimal(seed=3))
    path = tmp_path / "config.json"
    cfg.save(path)
    again = ExperimentConfig.from_file(path)
    assert again.to_dict() == cfg.to_dict()


def test_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_file(path)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig.from_dict(_minimal(seed=1))
    b = ExperimentConfig.from_dict(_minimal(seed=1))
    c = ExperimentConfig.from_dict(_minimal(seed=2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def _ensemble(**extra):
    raw = {"task": "ensemble", "rho": 0.5, "phi": 2, "tau0": 0.5, "epochs": 3}
    raw.update(extra)
    return raw


def test_ensemble_task_accepts_its_one_recipe():
    cfg = ExperimentConfig.from_dict(_ensemble())
    assert cfg.method == ["temperature-anneal"]
    # phi == epochs - 1: the last epoch trains the terminal mask
    ExperimentConfig.from_dict(_ensemble(phi=2, epochs=3))


def test_ensemble_rejects_phi_beyond_epochs():
    with pytest.raises(ConfigError, match="phi < epochs"):
        ExperimentConfig.from_dict(_ensemble(phi=5, epochs=2))


@pytest.mark.parametrize("task,method", [
    ("ensemble", "temperature-anneal"),
    ("prune-tune", "temperature-anneal"),
    ("ablate", ["oneshot", "random-anneal"]),
])
def test_annealed_methods_reject_phi_equal_to_epochs(task, method):
    # an annealed method reaches its terminal mask at epoch phi, so with
    # phi == epochs the last row (and summary.csv) would score the expected
    # network of a stochastic epoch, not the pruned network the run ends with
    with pytest.raises(ConfigError, match="phi < epochs for method"):
        ExperimentConfig.from_dict({"task": task, "method": method,
                                    "rho": 0.9, "phi": 2, "tau0": 0.5,
                                    "epochs": 2})


@pytest.mark.parametrize("key,values", [("rho", [0.5, 0.7]), ("phi", [1, 2]),
                                        ("tau0", [0.3, 0.5])])
def test_ensemble_rejects_sweep_lists(key, values):
    with pytest.raises(ConfigError, match=f"single {key}"):
        ExperimentConfig.from_dict(_ensemble(**{key: values}))


def test_ensemble_rejects_magnitude_selector():
    with pytest.raises(ConfigError, match="selector random"):
        ExperimentConfig.from_dict(_ensemble(selector="magnitude"))


@pytest.mark.parametrize("method", ["oneshot", "iterative", "random-anneal",
                                    ["temperature-anneal", "oneshot"]])
def test_ensemble_rejects_other_methods(method):
    with pytest.raises(ConfigError, match="method temperature-anneal"):
        ExperimentConfig.from_dict(_ensemble(method=method))


@pytest.mark.parametrize("task,method", [
    ("ablate", ["iterative"]),
    ("prune-tune", "temperature-anneal"),
    ("prune-tune", "random-anneal"),
    ("ablate", ["oneshot", "iterative"]),
])
def test_sweep_rejects_phi_beyond_epochs(task, method):
    # an iterative cell at rho 0.9 with phi 5, epochs 2 ends at 36% sparsity
    with pytest.raises(ConfigError, match="phi <=? epochs"):
        ExperimentConfig.from_dict({"task": task, "method": method,
                                    "rho": 0.9, "phi": [2, 5], "epochs": 2})


def test_sweep_phi_bound_spares_oneshot():
    cfg = ExperimentConfig.from_dict({"task": "ablate", "method": "oneshot",
                                      "phi": 5, "epochs": 2})
    assert cfg.phi == [5]
    ExperimentConfig.from_dict({"task": "ablate", "method": "iterative",
                                "phi": 2, "epochs": 2})  # phi == epochs


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
    ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    cfg = ExperimentConfig.from_file(path)
    assert cfg.task


def test_threads_is_not_a_config_key():
    # the thread cap is a property of the process (--threads), not a config
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_minimal(threads=2))


# Configs the validator used to accept or crash on, each with the message
# it now rejects them with. Every case raised no ConfigError before.
VALIDATOR_HOLES = [
    (dict(rho=[]), "rho needs at least one value"),
    (dict(tau0=[]), "tau0 needs at least one value"),
    (dict(phi=[]), "phi needs at least one value"),
    (dict(lr={"kind": "step", "breakpoints": [[0, 0.1], [0, 0.01]]}),
     "strictly increasing"),
    (dict(parent_lr={"kind": "step", "breakpoints": [[5, 0.1], [2, 0.01]]}),
     "strictly increasing"),
    (dict(lr={"kind": "step", "breakpoints": [[0, 0.1, 3]]}), r"\[epoch, lr\]"),
    (dict(lr={"kind": "step", "breakpoints": [0.1]}), r"\[epoch, lr\]"),
    (dict(blobs=[]), "blobs must be an object"),
    (dict(ensemble=[]), "ensemble must be an object"),
    (dict(optimizer=None), "optimizer must be an object"),
    (dict(optimizer={"nesterov": "false"}), "optimizer.nesterov must be true"),
    (dict(ensemble={"partitioning": "no"}), "ensemble.partitioning must be"),
    (dict(ensemble={"include_parent": 1}), "ensemble.include_parent must be"),
    (dict(deterministic="false"), "deterministic must be true or false"),
    (dict(epochs=20.7), "epochs must be an integer"),
    (dict(batch_size=True), "batch_size must be an integer"),
    (dict(phi=[2.5]), "phi must be an integer"),
    (dict(seeds=[1, 1.5]), "seeds must be an integer"),
    (dict(seeds=[0, 0]), r"seeds must be distinct, got \[0, 0\]"),
    (dict(blobs={"n": 100.5}), "blobs.n must be an integer"),
    (dict(ensemble={"n_members": 3.2}), "ensemble.n_members must be"),
    (dict(ensemble={"corruption_severities": [1.5]}), "severity must be"),
    # header-only metric CSVs, then an IndexError in summarize_manifests
    (dict(task="ablate", method="oneshot", epochs=0),
     "ablate task needs epochs >= 1"),
    (dict(method="oneshot", epochs=0), "prune-tune task needs epochs >= 1"),
    (dict(task="ensemble", epochs=0, phi=0),
     "ensemble task needs epochs >= 1"),
    # a repeated severity was scored twice, the second result overwriting
    # the first under the same key
    (dict(task="ensemble", ensemble={"corruption_severities": [1, 1, 3]}),
     r"corruption severities must be distinct, got \[1, 1, 3\]"),
    (dict(task="eval", weights="w.ssam",
          ensemble={"corruption_severities": [2, 2]}),
     r"corruption severities must be distinct, got \[2, 2\]"),
    # eval scored once, with seed 0's corruption noise, whatever the seeds
    (dict(task="eval", weights="w.ssam", seeds=[3, 4]),
     r"eval task takes one seed, got \[3, 4\]"),
    (dict(task="eval", weights="w.ssam", seed=5, repeats=2),
     r"eval task takes one seed, got \[5, 6\]"),
    # np.random.SeedSequence raised ValueError once the run had started
    (dict(seed=-1), "invalid seed: -1"),
    (dict(seeds=[0, -1]), r"seeds must be non-negative, got \[0, -1\]"),
    (dict(blobs={"data_seed": -3}), "blobs.data_seed must be non-negative"),
]


@pytest.mark.parametrize("extra,message", VALIDATOR_HOLES,
                         ids=[str(i) for i in range(len(VALIDATOR_HOLES))])
def test_validator_rejects(extra, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(_minimal(**extra))


def test_integral_numbers_and_json_booleans_still_accepted():
    cfg = ExperimentConfig.from_dict(_minimal(
        epochs=20.0, phi=[2.0, 3], deterministic=True,
        optimizer={"nesterov": False}, ensemble={"partitioning": False},
        lr={"kind": "step", "breakpoints": [[0, 0.1], [2, 0.01]]}))
    assert cfg.epochs == 20 and isinstance(cfg.epochs, int)
    assert cfg.phi == [2, 3]
    assert cfg.deterministic is True
    assert cfg.optimizer["nesterov"] is False
    assert cfg.ensemble["partitioning"] is False
    assert cfg.lr["breakpoints"] == [[0.0, 0.1], [2.0, 0.01]]


# Float fields that used to go through a plain float(): null raised a
# TypeError, strings and non-finite values were accepted.
FLOAT_HOLES = [
    dict(rho=None),
    dict(rho=[0.5, None]),
    dict(tau0="0.5"),
    dict(rho=True),
    dict(rho=10 ** 400),
    dict(lr={"kind": "constant", "value": "inf"}),
    dict(lr={"kind": "constant", "value": float("inf")}),
    dict(lr={"kind": "onecycle", "max": float("nan")}),
    dict(lr={"kind": "step", "breakpoints": [[0, "0.1"]]}),
    dict(lr={"kind": "step", "breakpoints": [[None, 0.1]]}),
    dict(parent_lr={"kind": "parent-stepwise", "hi": "0.1"}),
    dict(optimizer={"momentum": None}),
    dict(optimizer={"weight_decay": float("nan")}),
    dict(optimizer={"eps": False}),
    dict(blobs={"separation": "4"}),
    dict(bimodal_mu1=None),
    dict(bimodal_sigma2=float("-inf")),
]


@pytest.mark.parametrize("extra", FLOAT_HOLES,
                         ids=[str(i) for i in range(len(FLOAT_HOLES))])
def test_float_fields_need_finite_numbers(extra):
    with pytest.raises(ConfigError, match="must be a finite number"):
        ExperimentConfig.from_dict(_minimal(**extra))


def test_integers_still_pass_as_floats():
    cfg = ExperimentConfig.from_dict(_minimal(
        rho=0, tau0=[1], lr={"kind": "constant", "value": 1},
        optimizer={"momentum": 0}, blobs={"separation": 3}))
    assert cfg.rho == [0.0] and isinstance(cfg.rho[0], float)
    assert cfg.tau0 == [1.0] and cfg.lr["value"] == 1.0
    assert cfg.optimizer["momentum"] == 0.0
    assert cfg.blobs["separation"] == 3.0
