"""Experiment configuration: JSON in, validated dataclass out.

Every field is checked before any compute runs and unknown keys are
rejected. ``to_dict`` emits the fully-defaulted form, so parse -> serialize
-> parse is the identity.

Each key of the config and of its nested objects is declared once, as a
``Key``: its default, its parser and its rules. The config's own keys are
the dataclass fields' metadata; ``optimizer``, ``ensemble``, ``blobs`` and
each ``lr`` kind have one table each. ``_read`` reads every object against
its keys, and every rule failure reads ``<name> must be <rule>, got
<value>``. Only the rules between fields are code (``from_dict``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

TASKS = ("ablate", "train-parent", "ensemble", "eval")
DATASETS = ("synthetic-blobs", "mnist", "cifar10-subset")
MODELS = ("mlp", "smallconv")
METHODS = ("oneshot", "iterative", "random-anneal", "temperature-anneal")
SELECTORS = ("random", "magnitude")
GRANULARITIES = ("layerwise", "global")
VARIANTS = ("reverse-dropout", "full-scaling")
DECAYS = ("cosine", "linear")
DISTRIBUTIONS = ("uniform", "bimodal")
EVAL_MASKS = ("terminal", "expected")
DTYPES = ("float64", "float32")


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


class Key:
    """One key of a config object: its default, ``parse(value, name)``,
    which returns the value in its one form or raises ``ConfigError``, and
    its rules, ``(check, text)`` pairs the parsed value must pass."""

    def __init__(self, default, parse: Callable, *rules: tuple):
        self.default, self.parse, self.rules = default, parse, rules

    def read(self, value, name: str):
        value = self.parse(value, name)
        for check, text in self.rules:
            _require(check(value), f"{name} must be {text}, got {value!r}")
        return value


def _read(raw, keys: dict, where: str) -> dict:
    """The object ``raw`` read against ``keys`` (name -> ``Key``): unknown
    keys are rejected and a missing one takes its default. ``where`` names
    the object in messages; a nested key is named ``<where>.<key>``."""
    _require(isinstance(raw, dict), f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(keys)
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
    prefix = "" if where == "config" else f"{where}."
    return {name: key.read(raw.get(name, key.default), prefix + name)
            for name, key in keys.items()}


# --- parsers: (value, name) -> value -----------------------------------------

def _same(value, name: str):
    return value


def _as_int(value, name: str) -> int:
    """A JSON integer; a float is accepted only when it is integral."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer(),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    """A finite JSON number; null, booleans, strings, NaN and infinities
    are rejected."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and -sys.float_info.max <= value <= sys.float_info.max,
             f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_bool(value, name: str) -> bool:
    _require(isinstance(value, bool),
             f"{name} must be true or false, got {value!r}")
    return value


def _list_of(parse: Callable) -> Callable:
    """A parser of one value or a list of them, each read by ``parse``."""
    return lambda value, name: [parse(v, name) for v in (
        value if isinstance(value, (list, tuple)) else [value])]


def _object(keys: dict) -> Callable:
    """A parser of a nested object whose keys are ``keys``."""
    return lambda value, name: _read(value, keys, name)


def _as_breakpoints(value, name: str) -> list:
    _require(isinstance(value, list) and value
             and all(isinstance(p, (list, tuple)) and len(p) == 2
                     for p in value),
             f"{name} must be a nonempty list of [epoch, lr] pairs, "
             f"got {value!r}")
    return [[_as_float(e, name), _as_float(v, name)] for e, v in value]


# --- rules: (check, text) ----------------------------------------------------

def _one_of(choices: tuple) -> tuple:
    return choices.__contains__, f"one of {choices}"


def _each(rule: tuple) -> tuple:
    """``rule`` for every value of a list that holds one value at least."""
    check, text = rule
    return (lambda vs: bool(vs) and all(map(check, vs)),
            f"one or more values, each {text}")


POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
UNIT = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
PATH = (lambda v: isinstance(v, str), "a string path")
OPTIONAL_PATH = (lambda v: v is None or (isinstance(v, str) and v != ""),
                 "a non-empty string path or null")
# a value names cells, a seed its files and parent, a severity its results:
# twice would do and write them twice, and average a seed with itself
DISTINCT = (lambda vs: len(set(vs)) == len(vs), "distinct")

OPTIMIZER = {
    "kind": Key("sgd", _same, _one_of(("sgd", "adam"))),
    "momentum": Key(0.9, _as_float, UNIT),
    "nesterov": Key(True, _as_bool),
    "weight_decay": Key(0.0, _as_float, NON_NEGATIVE),
    "beta1": Key(0.9, _as_float, UNIT),
    "beta2": Key(0.999, _as_float, UNIT),
    "eps": Key(1e-8, _as_float, POSITIVE),
}
ENSEMBLE = {
    "n_members": Key(4, _as_int, (lambda v: v >= 1, ">= 1")),
    "partitioning": Key(True, _as_bool),
    "include_parent": Key(False, _as_bool),
    "corruption_severities": Key(
        [1, 2, 3, 4, 5], _list_of(_as_int),
        (lambda vs: all(1 <= v <= 5 for v in vs), "values, each in 1..5"),
        DISTINCT),
}
BLOBS = {
    "n": Key(2000, _as_int, POSITIVE),
    "d": Key(16, _as_int, POSITIVE),
    "k": Key(4, _as_int, (lambda v: v > 1, "> 1")),
    "data_seed": Key(0, _as_int, NON_NEGATIVE),
    "separation": Key(4.0, _as_float, POSITIVE),
}
# the keys of each learning-rate schedule kind besides ``kind``
LR_KINDS = {
    "constant": {"value": Key(0.01, _as_float, POSITIVE)},
    "onecycle": {
        "start": Key(0.001, _as_float, POSITIVE),
        "max": Key(0.1, _as_float, POSITIVE),
        "end": Key(1e-7, _as_float, POSITIVE),
        "warmup_fraction": Key(0.1, _as_float,
                               (lambda v: 0.0 < v < 1.0, "in (0, 1)"))},
    "step": {"breakpoints": Key(
        None, _as_breakpoints,
        (lambda pts: all(v > 0 for _, v in pts),
         "[epoch, lr] pairs with positive rates"),
        (lambda pts: all(a[0] < b[0] for a, b in zip(pts, pts[1:])),
         "[epoch, lr] pairs with strictly increasing epochs"))},
    "parent-stepwise": {"hi": Key(0.1, _as_float, POSITIVE),
                        "lo": Key(0.001, _as_float, POSITIVE)},
}
_LR_KIND = Key(None, _same, _one_of(tuple(LR_KINDS)))


def _as_lr(value, name: str) -> dict:
    """A schedule object: its ``kind`` picks the rest of its keys."""
    _require(isinstance(value, dict),
             f"{name} must be an object, got {value!r}")
    kind = _LR_KIND.read(value.get("kind"), f"{name}.kind")
    return _read(value, {"kind": _LR_KIND, **LR_KINDS[kind]}, name)


def _field(default, parse: Callable, *rules: tuple):
    """A config field declared by its ``Key``; the dataclass default is
    the default as ``from_dict`` reads it."""
    key = Key(default, parse, *rules)
    return field(default_factory=lambda: key.read(default, "default"),
                 metadata={"key": key})


def _check_phi_within_epochs(cfg: "ExperimentConfig") -> None:
    """Every method but one-shot reaches its target sparsity at epoch phi,
    so a tuning run shorter than phi would end short of the rho it is
    filed under. The annealed methods need one epoch more: their
    probabilities reach the terminal mask only at epoch phi, so with
    ``phi == epochs`` the last row would describe the last stochastic
    epoch, not the pruned network the run ends with."""
    phi = max(cfg.phi)
    for method in cfg.method:
        if method in ("temperature-anneal", "random-anneal"):
            _require(phi < cfg.epochs,
                     f"{cfg.task} task needs phi < epochs for method "
                     f"{method} (phi {phi}, epochs {cfg.epochs})")
        elif method == "iterative":
            _require(phi <= cfg.epochs,
                     f"{cfg.task} task needs phi <= epochs for method "
                     f"{method} (phi {phi}, epochs {cfg.epochs})")


def read_json(path):
    """The JSON value in the UTF-8 file ``path``, unchecked."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: invalid JSON ({err})") from err


@dataclass
class ExperimentConfig:
    task: str = _field(None, _same, _one_of(TASKS))
    dataset: str = _field("synthetic-blobs", _same, _one_of(DATASETS))
    model: str = _field("mlp", _same, _one_of(MODELS))
    method: list = _field(["temperature-anneal"], _list_of(_same),
                          _each(_one_of(METHODS)), DISTINCT)
    rho: list = _field([0.9], _list_of(_as_float), _each(UNIT), DISTINCT)
    phi: list = _field([5], _list_of(_as_int), _each(NON_NEGATIVE), DISTINCT)
    tau0: list = _field([0.5], _list_of(_as_float),
                        _each((lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
                        DISTINCT)
    selector: str = _field("random", _same, _one_of(SELECTORS))
    granularity: str = _field("layerwise", _same, _one_of(GRANULARITIES))
    variant: str = _field("reverse-dropout", _same, _one_of(VARIANTS))
    # the method's own decay when None (``decay_for``)
    anneal_decay: str | None = _field(
        None, _same, (lambda v: v is None or v in DECAYS,
                      f"one of {DECAYS} or null"))
    distribution: str = _field("uniform", _same, _one_of(DISTRIBUTIONS))
    bimodal_mu1: float = _field(0.25, _as_float)
    bimodal_sigma1: float = _field(0.15, _as_float, POSITIVE)
    bimodal_mu2: float = _field(0.75, _as_float)
    bimodal_sigma2: float = _field(0.15, _as_float, POSITIVE)
    parent_epochs: int = _field(10, _as_int, NON_NEGATIVE)
    epochs: int = _field(20, _as_int, NON_NEGATIVE)
    lr: dict = _field({"kind": "constant"}, _as_lr)
    parent_lr: dict = _field({"kind": "parent-stepwise"}, _as_lr)
    optimizer: dict = _field({}, _object(OPTIMIZER))
    batch_size: int = _field(128, _as_int, (lambda v: v >= 1, ">= 1"))
    # np.random.SeedSequence needs seeds >= 0
    seeds: list = _field([0], _list_of(_as_int), _each(NON_NEGATIVE), DISTINCT)
    out_dir: str = _field("runs", _same, PATH)
    # cifar10-subset's default is 10000 (``from_dict``)
    train_subset: int = _field(0, _as_int, NON_NEGATIVE)
    test_subset: int = _field(0, _as_int, NON_NEGATIVE)
    eval_mask: str = _field("terminal", _same, _one_of(EVAL_MASKS))
    ensemble: dict = _field({}, _object(ENSEMBLE))
    blobs: dict = _field({}, _object(BLOBS))
    weights: str | None = _field(None, _same, OPTIONAL_PATH)  # eval: to load
    mask: str | None = _field(None, _same, OPTIONAL_PATH)  # eval: a mask
    dtype: str = _field("float32", _same, _one_of(DTYPES))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config ``raw`` describes. Two input spellings are read into
        the one form: task ``prune-tune`` is ``ablate``, and ``seed: s``
        is ``seeds: [s]``."""
        _require(isinstance(raw, dict), f"config must be an object, "
                 f"got {raw!r}")
        raw = dict(raw)
        if "seed" in raw:
            _require("seeds" not in raw, "give seed or seeds, not both")
            raw["seeds"] = [raw.pop("seed")]
        if raw.get("task") == "prune-tune":
            raw["task"] = "ablate"
        cfg = cls(**_read(raw, {f.name: f.metadata["key"]
                                for f in fields(cls)}, "config"))
        # desk-scale default: a 10k training subset keeps CIFAR runs inside
        # the acceptance runtime budget; pass train_subset: 0 for the full set
        if cfg.dataset == "cifar10-subset" and "train_subset" not in raw:
            cfg.train_subset = 10000
        if cfg.optimizer["momentum"] == 0.0:
            cfg.optimizer["nesterov"] = False
        _require(cfg.model != "smallconv" or cfg.dataset != "synthetic-blobs",
                 "model smallconv needs image inputs: dataset must be mnist "
                 "or cifar10-subset, got synthetic-blobs")
        if cfg.task == "eval":
            _require(cfg.weights is not None, "eval task requires 'weights'")
            _require(len(cfg.seeds) == 1,
                     f"eval task takes one seed, got {cfg.seeds}")
        else:  # no other task reads them
            for key in ("weights", "mask"):
                _require(getattr(cfg, key) is None,
                         f"{key} is read only by the eval task")
        if cfg.task == "ensemble":  # random-mask children, temperature
            # annealed at a single (rho, phi, tau0)
            _require(cfg.method == ["temperature-anneal"],
                     "ensemble task requires method temperature-anneal")
            _require(cfg.selector == "random", "ensemble task requires "
                     "selector random: children get random masks")
            for key in ("rho", "phi", "tau0"):
                _require(len(getattr(cfg, key)) == 1,
                         f"ensemble task takes a single {key} value")
        if cfg.task in ("ablate", "ensemble"):
            _require(cfg.epochs >= 1,  # results are the last epoch's rows
                     f"{cfg.task} task needs epochs >= 1, got {cfg.epochs}")
            _check_phi_within_epochs(cfg)
        return cfg

    def decay_for(self, method: str) -> str:
        if self.anneal_decay is not None:
            return self.anneal_decay
        return "linear" if method == "random-anneal" else "cosine"

    def to_dict(self) -> dict:
        return {f.name: copy.deepcopy(getattr(self, f.name))
                for f in fields(self)}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))
