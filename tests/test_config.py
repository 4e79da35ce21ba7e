import inspect
import json
import random
from pathlib import Path

import pytest

from subanneal.config import (
    BLOBS,
    OPTIMIZER,
    ConfigError,
    ExperimentConfig,
    read_json,
)
from subanneal.data import make_blobs
from subanneal.nn.optim import make_optimizer


def _minimal(**extra):
    raw = {"task": "ablate"}
    raw.update(extra)
    return raw


def test_roundtrip_is_identity():
    cfg = ExperimentConfig.from_dict(_minimal(
        dataset="synthetic-blobs", method=["oneshot", "temperature-anneal"],
        rho=[0.5, 0.9], phi=3, tau0=0.5, epochs=4, seeds=[7, 8]))
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


def _parameters(fn, *besides) -> set:
    return set(inspect.signature(fn).parameters) - set(besides)


def test_optimizer_and_blobs_keys_are_the_parameters_they_are_passed_to():
    # the runner passes both objects whole, as keyword arguments
    assert set(OPTIMIZER) == _parameters(make_optimizer)
    assert set(BLOBS) == _parameters(make_blobs, "split")
    defaults = ExperimentConfig.from_dict(_minimal())
    assert set(defaults.optimizer) == set(OPTIMIZER)
    assert set(defaults.blobs) == set(BLOBS)


def test_enums_validated():
    for bad in (dict(task="explode"), dict(dataset="imagenet"),
                dict(model="resnet"), dict(method="grasp"),
                dict(selector="fisher"), dict(eval_mask="bernoulli")):
        raw = {"task": "ablate"}
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


def test_a_run_has_one_seed_list():
    assert ExperimentConfig.from_dict(_minimal()).seeds == [0]
    cfg = ExperimentConfig.from_dict(_minimal(seeds=[1, 2, 3]))
    assert cfg.seeds == [1, 2, 3]
    assert "seed" not in cfg.to_dict() and "repeats" not in cfg.to_dict()
    with pytest.raises(ConfigError, match="seeds must be one or more values"):
        ExperimentConfig.from_dict(_minimal(seeds=[]))


@pytest.mark.parametrize("seed", [0, 5])
def test_the_input_spellings_are_read_into_the_one_form(seed):
    # `prune-tune` is the sweep task `ablate`, and `seed: s` is `seeds: [s]`
    old = ExperimentConfig.from_dict({"task": "prune-tune", "seed": seed})
    new = ExperimentConfig.from_dict({"task": "ablate", "seeds": [seed]})
    assert (old.task, old.seeds) == ("ablate", [seed])
    assert old.to_dict() == new.to_dict()
    assert old.config_hash() == new.config_hash()


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


@pytest.mark.parametrize("paths,message", [
    # the run scored the weights unmasked and reported realized_sparsity 0.0
    ({"weights": "w.ssam", "mask": ""}, "mask must be a non-empty string"),
    # the run failed only after its data had loaded
    ({"weights": ""}, "weights must be a non-empty string"),
], ids=["mask", "weights"])
def test_an_empty_weights_or_mask_path_is_not_a_path(paths, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict({"task": "eval", **paths})


def test_file_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(_minimal(seed=3))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
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


# a change to one of these is a declared output change (CHANGES.md)
SHIPPED_HASHES = {"blobs-ablate": "702732bd5ebd0bbe",
                  "mnist-ensemble": "36e313ff728a971a",
                  "mnist-ordering": "568909fa7166ba73"}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_the_shipped_config_hashes_are_pinned(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    cfg = ExperimentConfig.from_file(path)
    assert cfg.config_hash() == SHIPPED_HASHES[name]


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
    raw = read_json(path)
    cfg = ExperimentConfig.from_dict(raw)
    # the examples use the one form: no input-only spelling (`seed`,
    # task `prune-tune`), every key one that `to_dict` writes back
    extra = set(raw) - set(cfg.to_dict())
    assert not extra, sorted(extra)
    assert raw["task"] == cfg.task


def test_threads_is_not_a_config_key():
    # every run pins one BLAS thread; no config chooses the count
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_minimal(threads=2))


# Configs the validator used to accept or crash on, each with the message
# it now rejects them with. Every case raised no ConfigError before.
VALIDATOR_HOLES = [
    (dict(rho=[]), "rho must be one or more values"),
    (dict(tau0=[]), "tau0 must be one or more values"),
    (dict(phi=[]), "phi must be one or more values"),
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
    # every run pins one BLAS thread: there is no run mode to choose
    (dict(deterministic="false"), r"unknown config keys: \['deterministic'\]"),
    (dict(epochs=20.7), "epochs must be an integer"),
    (dict(batch_size=True), "batch_size must be an integer"),
    (dict(phi=[2.5]), "phi must be an integer"),
    (dict(seeds=[1, 1.5]), "seeds must be an integer"),
    (dict(seeds=[0, 0]), r"seeds must be distinct, got \[0, 0\]"),
    (dict(blobs={"n": 100.5}), "blobs.n must be an integer"),
    (dict(ensemble={"n_members": 3.2}), "ensemble.n_members must be"),
    (dict(ensemble={"corruption_severities": [1.5]}), "corruption_severities must be an integer"),
    # header-only metric CSVs, then an IndexError in summarize_manifests
    (dict(task="ablate", method="oneshot", epochs=0),
     "ablate task needs epochs >= 1"),
    (dict(task="prune-tune", method="oneshot", epochs=0),
     "ablate task needs epochs >= 1"),
    (dict(task="ensemble", epochs=0, phi=0),
     "ensemble task needs epochs >= 1"),
    # a repeated severity was scored twice, the second result overwriting
    # the first under the same key
    (dict(task="ensemble", ensemble={"corruption_severities": [1, 1, 3]}),
     r"ensemble.corruption_severities must be distinct, got \[1, 1, 3\]"),
    (dict(task="eval", weights="w.ssam",
          ensemble={"corruption_severities": [2, 2]}),
     r"ensemble.corruption_severities must be distinct, got \[2, 2\]"),
    # eval scored once, with seed 0's corruption noise, whatever the seeds
    (dict(task="eval", weights="w.ssam", seeds=[3, 4]),
     r"eval task takes one seed, got \[3, 4\]"),
    # `repeats` no longer names seeds: a run has one seed list
    (dict(task="eval", weights="w.ssam", seed=5, repeats=2),
     r"unknown config keys: \['repeats'\]"),
    # np.random.SeedSequence raised ValueError once the run had started
    (dict(seed=-1), r"seeds must be one or more values, each >= 0, got \[-1\]"),
    (dict(seeds=[0, -1]), r"each >= 0, got \[0, -1\]"),
    (dict(blobs={"data_seed": -3}), "blobs.data_seed must be >= 0, got -3"),
    # a repeated value listed one cell several times: it was tuned and its
    # CSV written once per listing, under one manifest cell
    (dict(method=["oneshot", "oneshot"], rho=[0.9, 0.9]),
     r"method must be distinct, got \['oneshot', 'oneshot'\]"),
    (dict(rho=[0.5, 0.9, 0.5]), r"rho must be distinct, got \[0.5, 0.9, 0.5\]"),
    (dict(phi=[2, 2.0]), r"phi must be distinct, got \[2, 2\]"),
    (dict(tau0=[0.5, 0.5]), r"tau0 must be distinct, got \[0.5, 0.5\]"),
    # the run failed on a TypeError and wrote no manifest
    (dict(out_dir=None), "out_dir must be a string path"),
    # `seeds` silently overrode `seed`, and null fell back to `seed`
    (dict(seed=5, seeds=[0, 1]), "give seed or seeds, not both"),
    (dict(seeds=None), "seeds must be an integer, got None"),
    # only eval loads weights and a mask; every other task ignored them
    (dict(weights="nope.ssam"), "weights is read only by the eval task"),
    (dict(task="train-parent", mask="m.ssam"),
     "mask is read only by the eval task"),
    (dict(task="ensemble", weights="w.ssam"),
     "weights is read only by the eval task"),
    # Adam's betas and eps had no rule: a beta of 1 or more failed in the
    # parents stage, eps 0 diverged and a negative eps ran to status ok
    (dict(optimizer={"kind": "adam", "beta1": 1.5}),
     r"optimizer.beta1 must be in \[0, 1\), got 1.5"),
    (dict(optimizer={"kind": "adam", "beta2": 1.0}),
     r"optimizer.beta2 must be in \[0, 1\), got 1.0"),
    (dict(optimizer={"kind": "adam", "eps": 0.0}),
     "optimizer.eps must be > 0, got 0.0"),
    (dict(optimizer={"kind": "adam", "eps": -1.0}),
     "optimizer.eps must be > 0, got -1.0"),
    # the network was built only after the manifest was opened, and failed
    (dict(model="smallconv"), "model smallconv needs image inputs"),
    (dict(task="train-parent", model="smallconv"),
     "model smallconv needs image inputs"),
]


@pytest.mark.parametrize("extra,message", VALIDATOR_HOLES,
                         ids=[str(i) for i in range(len(VALIDATOR_HOLES))])
def test_validator_rejects(extra, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(_minimal(**extra))


def test_integral_numbers_and_json_booleans_still_accepted():
    cfg = ExperimentConfig.from_dict(_minimal(
        epochs=20.0, phi=[2.0, 3],
        optimizer={"nesterov": False}, ensemble={"partitioning": False},
        lr={"kind": "step", "breakpoints": [[0, 0.1], [2, 0.01]]}))
    assert cfg.epochs == 20 and isinstance(cfg.epochs, int)
    assert cfg.phi == [2, 3]
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


# A seeded fuzz of the validator: JSON-shaped dicts with random keys,
# nested objects, and values of every JSON type, lists and objects included
# where an enum or a ``kind`` is expected. Most values are valid, so a
# fair share of the dicts is accepted.
_JUNK = [None, True, False, 0, -1, 2.5, "x", "", [], {}, [0.5, 0.2],
         [["oneshot"]], {"kind": "constant"}, float("nan"), float("inf"),
         10 ** 400]
_FUZZ_TOP = {
    "task": ["ablate", "prune-tune", "train-parent", "ensemble", "eval"],
    "dataset": ["synthetic-blobs", "mnist", "cifar10-subset"],
    "model": ["mlp", "smallconv"],
    "method": ["oneshot", "iterative", "random-anneal", "temperature-anneal",
               ["oneshot", "temperature-anneal"], ["iterative", "iterative"]],
    "rho": [0.0, 0.5, 0.9, 1.0, [0.5, 0.9], [], [0.5, 0.5]],
    "phi": [0, 1, 2, 5, 2.0, [1, 2], [2, 2.0]],
    "tau0": [0.0, 0.5, 1, 1.5, [0.3, 0.5]],
    "selector": ["random", "magnitude"],
    "granularity": ["layerwise", "global"],
    "variant": ["reverse-dropout", "full-scaling"],
    "anneal_decay": [None, "cosine", "linear"],
    "distribution": ["uniform", "bimodal"],
    "bimodal_mu1": [0.25, -1.0], "bimodal_mu2": [0.75, 2],
    "bimodal_sigma1": [0.15, 0.0], "bimodal_sigma2": [0.15, -0.1],
    "parent_epochs": [0, 2, -1], "epochs": [0, 1, 3, 20, 2.0],
    "batch_size": [0, 1, 128], "seeds": [[0], [1, 2], 3, [0, 0], [-1]],
    "seed": [0, 4, -2], "out_dir": ["runs"],
    "train_subset": [0, 30, -5], "test_subset": [0, 30],
    "eval_mask": ["terminal", "expected"], "weights": [None, "w.ssam"],
    "mask": [None, "m.ssam"], "dtype": ["float32", "float64"],
}
_FUZZ_NESTED = {
    "optimizer": {"kind": ["sgd", "adam"], "momentum": [0.0, 0.9, 1.0],
                  "nesterov": [True, False], "weight_decay": [0.0, -1.0],
                  "beta1": [0.9, 1.5, 0.0], "beta2": [0.999, 1.0],
                  "eps": [1e-8, 0.0, -1.0]},
    "ensemble": {"n_members": [1, 4, 0, 3.0], "partitioning": [True, False],
                 "include_parent": [True, False],
                 "corruption_severities": [[1, 2], [], 3, [0], [2, 2]]},
    "blobs": {"n": [100, 0], "d": [8, 2.0], "k": [1, 3], "separation": [4, 0],
              "data_seed": [0, 7, -3]},
}
_FUZZ_LR = {
    "constant": {"value": [0.01, 1, -0.1]},
    "onecycle": {"start": [0.001, 0.0], "max": [0.1], "end": [1e-7],
                 "warmup_fraction": [0.1, 1.0]},
    "step": {"breakpoints": [[[0, 0.1], [2, 0.01]], [[0, 0.1], [0, 0.1]],
                             [[0, 0.1, 3]], [0.1], [], [[1, -0.1]]]},
    "parent-stepwise": {"hi": [0.1, 0.0], "lo": [0.001]},
}


def _fuzz_value(r, pool):
    return r.choice(_JUNK) if r.random() < 0.1 else r.choice(pool)


def _fuzz_object(r, table, extra=()):
    keys = list(table) + [*extra, "junk"]
    return {key: _fuzz_value(r, table.get(key, _JUNK))
            for key in r.sample(keys, r.randint(0, min(len(keys), 4)))}


def _fuzz_config(r) -> dict:
    if r.random() < 0.02:
        return r.choice(_JUNK)
    keys = list(_FUZZ_TOP) + list(_FUZZ_NESTED) + ["lr", "parent_lr"]
    raw = {"task": _fuzz_value(r, _FUZZ_TOP["task"])}
    for key in r.sample(keys, r.randint(0, 8)):
        if key in _FUZZ_NESTED:
            raw[key] = _fuzz_object(r, _FUZZ_NESTED[key])
        elif key in ("lr", "parent_lr"):
            kind = _fuzz_value(r, list(_FUZZ_LR))
            table = _FUZZ_LR.get(kind) if isinstance(kind, str) else None
            raw[key] = {"kind": kind, **_fuzz_object(
                r, table or {}, extra=r.choice(list(_FUZZ_LR.values())))}
            if r.random() < 0.05:
                raw[key].pop("kind")
        else:
            raw[key] = _fuzz_value(r, _FUZZ_TOP[key])
    if r.random() < 0.03:
        raw[r.choice(["threads", "learning_rate", "repeats"])] = 1
    if r.random() < 0.03:
        raw.pop("task")
    return raw


def test_the_validator_raises_only_config_errors_and_round_trips():
    r = random.Random(2027)
    accepted = 0
    for _ in range(5000):
        raw = _fuzz_config(r)
        before = repr(raw)
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError:
            continue
        finally:
            assert repr(raw) == before  # the input is left as it was
        accepted += 1
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict(), raw
        assert again.config_hash() == cfg.config_hash(), raw
    assert accepted > 500  # the draws reach past the first rules
