"""Experiment configuration: JSON in, validated dataclass out.

Every field is checked before any compute runs and unknown keys are
rejected. ``to_dict`` emits the fully-defaulted form, so parse -> serialize
-> parse is the identity.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

TASKS = ("ablate", "train-parent", "prune-tune", "ensemble", "eval")
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

_LR_KINDS = ("constant", "onecycle", "step", "parent-stepwise")


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_keys(raw: dict, allowed, where: str) -> None:
    _require(isinstance(raw, dict), f"{where} must be an object")
    unknown = set(raw) - set(allowed)
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _as_int(value, where: str) -> int:
    """A JSON integer; a float is accepted only when it is integral."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer(),
             f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    """A finite JSON number; null, booleans, strings, NaN and infinities
    are rejected."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and -sys.float_info.max <= value <= sys.float_info.max,
             f"{where} must be a finite number, got {value!r}")
    return float(value)


def _as_bool(value, where: str) -> bool:
    _require(isinstance(value, bool), f"{where} must be true or false, "
             f"got {value!r}")
    return value


def _check_lr(lr: dict, where: str) -> dict:
    _require(isinstance(lr, dict) and "kind" in lr, f"{where} must be an object "
             "with a 'kind'")
    kind = lr["kind"]
    _require(kind in _LR_KINDS, f"{where}.kind must be one of {_LR_KINDS}")
    if kind == "constant":
        _check_keys(lr, ("kind", "value"), where)
        out = {"kind": kind,
               "value": _as_float(lr.get("value", 0.01), f"{where}.value")}
        _require(out["value"] > 0, f"{where}.value must be positive")
    elif kind == "onecycle":
        _check_keys(lr, ("kind", "start", "max", "end", "warmup_fraction"), where)
        out = {"kind": kind}
        for key, default in (("start", 0.001), ("max", 0.1), ("end", 1e-7),
                             ("warmup_fraction", 0.1)):
            out[key] = _as_float(lr.get(key, default), f"{where}.{key}")
        _require(min(out["start"], out["max"], out["end"]) > 0,
                 f"{where} rates must be positive")
        _require(0.0 < out["warmup_fraction"] < 1.0,
                 f"{where}.warmup_fraction must lie in (0, 1)")
    elif kind == "step":
        _check_keys(lr, ("kind", "breakpoints"), where)
        pts = lr.get("breakpoints")
        _require(isinstance(pts, list) and pts
                 and all(isinstance(p, (list, tuple)) and len(p) == 2
                         for p in pts),
                 f"{where}.breakpoints must be a nonempty list of "
                 "[epoch, lr] pairs")
        out = {"kind": kind,
               "breakpoints": [[_as_float(e, f"{where} breakpoint epoch"),
                                _as_float(v, f"{where} breakpoint lr")]
                               for e, v in pts]}
        _require(all(v > 0 for _, v in out["breakpoints"]),
                 f"{where} rates must be positive")
        epochs = [e for e, _ in out["breakpoints"]]
        _require(all(a < b for a, b in zip(epochs, epochs[1:])),
                 f"{where} breakpoint epochs must be strictly increasing")
    else:  # parent-stepwise
        _check_keys(lr, ("kind", "hi", "lo"), where)
        out = {"kind": kind,
               "hi": _as_float(lr.get("hi", 0.1), f"{where}.hi"),
               "lo": _as_float(lr.get("lo", 0.001), f"{where}.lo")}
        _require(out["hi"] > 0 and out["lo"] > 0, f"{where} rates must be positive")
    return out


def _check_optimizer(opt: dict) -> dict:
    _check_keys(opt, ("kind", "momentum", "nesterov", "weight_decay",
                      "beta1", "beta2", "eps"), "optimizer")
    out = {"kind": opt.get("kind", "sgd"),
           "momentum": _as_float(opt.get("momentum", 0.9),
                                 "optimizer.momentum"),
           "nesterov": _as_bool(opt.get("nesterov", True),
                                "optimizer.nesterov"),
           "weight_decay": _as_float(opt.get("weight_decay", 0.0),
                                     "optimizer.weight_decay"),
           "beta1": _as_float(opt.get("beta1", 0.9), "optimizer.beta1"),
           "beta2": _as_float(opt.get("beta2", 0.999), "optimizer.beta2"),
           "eps": _as_float(opt.get("eps", 1e-8), "optimizer.eps")}
    _require(out["kind"] in ("sgd", "adam"), "optimizer.kind must be sgd or adam")
    _require(0.0 <= out["momentum"] < 1.0, "optimizer.momentum must lie in [0, 1)")
    _require(out["weight_decay"] >= 0.0, "optimizer.weight_decay must be >= 0")
    if out["momentum"] == 0.0:
        out["nesterov"] = False
    return out


def _check_ensemble(e: dict) -> dict:
    _check_keys(e, ("n_members", "partitioning", "include_parent",
                    "corruption_severities"), "ensemble")
    out = {"n_members": _as_int(e.get("n_members", 4), "ensemble.n_members"),
           "partitioning": _as_bool(e.get("partitioning", True),
                                    "ensemble.partitioning"),
           "include_parent": _as_bool(e.get("include_parent", False),
                                      "ensemble.include_parent"),
           "corruption_severities": [
               _as_int(s, "corruption severity") for s in
               _as_list(e.get("corruption_severities", [1, 2, 3, 4, 5]))]}
    _require(out["n_members"] >= 1, "ensemble.n_members must be >= 1")
    _require(all(1 <= s <= 5 for s in out["corruption_severities"]),
             "corruption severities must lie in 1..5")
    return out


def _check_blobs(b: dict) -> dict:
    _check_keys(b, ("n", "d", "k", "separation", "data_seed"), "blobs")
    out = {key: _as_int(b.get(key, default), f"blobs.{key}")
           for key, default in (("n", 2000), ("d", 16), ("k", 4),
                                ("data_seed", 0))}
    out["separation"] = _as_float(b.get("separation", 4.0),
                                  "blobs.separation")
    _require(out["n"] > 0 and out["d"] > 0 and out["k"] > 1,
             "blobs need n > 0, d > 0, k > 1")
    _require(out["separation"] > 0, "blobs.separation must be positive")
    return out


def _check_ensemble_task(cfg: "ExperimentConfig") -> None:
    """The ensemble task tunes random-mask children with temperature
    annealing at a single (rho, phi, tau0)."""
    _require(cfg.method == ["temperature-anneal"],
             "ensemble task requires method temperature-anneal")
    _require(cfg.selector == "random",
             "ensemble task requires selector random: children get random masks")
    for key in ("rho", "phi", "tau0"):
        _require(len(getattr(cfg, key)) == 1,
                 f"ensemble task takes a single {key} value")


def _check_phi_within_epochs(cfg: "ExperimentConfig") -> None:
    """Every method but one-shot reaches its target sparsity at epoch phi,
    so a tuning run shorter than phi would end short of the rho it is
    filed under."""
    annealed = [m for m in cfg.method if m != "oneshot"]
    if annealed:
        phi = max(cfg.phi)
        _require(phi <= cfg.epochs,
                 f"{cfg.task} task needs phi <= epochs for method "
                 f"{annealed[0]} (phi {phi}, epochs {cfg.epochs})")


@dataclass
class ExperimentConfig:
    task: str
    dataset: str = "synthetic-blobs"
    model: str = "mlp"
    method: list = field(default_factory=lambda: ["temperature-anneal"])
    rho: list = field(default_factory=lambda: [0.9])
    phi: list = field(default_factory=lambda: [5])
    tau0: list = field(default_factory=lambda: [0.5])
    selector: str = "random"
    granularity: str = "layerwise"
    variant: str = "reverse-dropout"
    anneal_decay: str | None = None  # method default when None
    distribution: str = "uniform"
    bimodal_mu1: float = 0.25
    bimodal_sigma1: float = 0.15
    bimodal_mu2: float = 0.75
    bimodal_sigma2: float = 0.15
    parent_epochs: int = 10
    epochs: int = 20
    lr: dict = field(default_factory=lambda: {"kind": "constant", "value": 0.01})
    parent_lr: dict = field(default_factory=lambda: {
        "kind": "parent-stepwise", "hi": 0.1, "lo": 0.001})
    optimizer: dict = field(default_factory=lambda: _check_optimizer({}))
    batch_size: int = 128
    seed: int = 0
    seeds: list | None = None
    repeats: int = 1
    out_dir: str = "runs"
    train_subset: int = 0
    test_subset: int = 0
    eval_mask: str = "terminal"
    ensemble: dict = field(default_factory=lambda: _check_ensemble({}))
    blobs: dict = field(default_factory=lambda: _check_blobs({}))
    weights: str | None = None  # eval task: container to load
    mask: str | None = None  # eval task: optional mask container
    deterministic: bool = False
    dtype: str = "float64"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        _check_keys(raw, [f.name for f in fields(cls)], "config")
        _require("task" in raw, "config requires a 'task'")
        raw = dict(raw)

        task = raw.pop("task")
        _require(task in TASKS, f"task must be one of {TASKS}")
        cfg = cls(task=task)
        had_train_subset = "train_subset" in raw

        simple_enums = {
            "dataset": DATASETS, "model": MODELS, "selector": SELECTORS,
            "granularity": GRANULARITIES, "variant": VARIANTS,
            "distribution": DISTRIBUTIONS, "eval_mask": EVAL_MASKS,
            "dtype": DTYPES,
        }
        for key, allowed in simple_enums.items():
            if key in raw:
                value = raw.pop(key)
                _require(value in allowed, f"{key} must be one of {allowed}")
                setattr(cfg, key, value)

        if "anneal_decay" in raw:
            value = raw.pop("anneal_decay")
            _require(value is None or value in DECAYS,
                     f"anneal_decay must be one of {DECAYS} or null")
            cfg.anneal_decay = value

        if "method" in raw:
            methods = _as_list(raw.pop("method"))
            _require(methods and all(m in METHODS for m in methods),
                     f"method values must come from {METHODS}")
            cfg.method = methods
        if "rho" in raw:
            cfg.rho = [_as_float(r, "rho") for r in _as_list(raw.pop("rho"))]
            _require(cfg.rho and all(0.0 <= r < 1.0 for r in cfg.rho),
                     "rho needs at least one value, each in [0, 1)")
        if "phi" in raw:
            cfg.phi = [_as_int(p, "phi") for p in _as_list(raw.pop("phi"))]
            _require(cfg.phi and all(p >= 0 for p in cfg.phi),
                     "phi needs at least one value, each >= 0")
        if "tau0" in raw:
            cfg.tau0 = [_as_float(t, "tau0")
                        for t in _as_list(raw.pop("tau0"))]
            _require(cfg.tau0 and all(0.0 <= t <= 1.0 for t in cfg.tau0),
                     "tau0 needs at least one value, each in [0, 1]")

        for key, check in (
                ("parent_epochs", lambda v: v >= 0),
                ("epochs", lambda v: v >= 0),
                ("batch_size", lambda v: v >= 1),
                ("seed", lambda v: True),
                ("repeats", lambda v: v >= 1),
                ("train_subset", lambda v: v >= 0),
                ("test_subset", lambda v: v >= 0)):
            if key in raw:
                value = _as_int(raw.pop(key), key)
                _require(check(value), f"invalid {key}: {value}")
                setattr(cfg, key, value)

        if "seeds" in raw:
            seeds = raw.pop("seeds")
            if seeds is not None:
                seeds = [_as_int(s, "seeds") for s in _as_list(seeds)]
                _require(len(seeds) >= 1, "seeds must be nonempty when given")
            cfg.seeds = seeds
        for key in ("bimodal_mu1", "bimodal_sigma1", "bimodal_mu2",
                    "bimodal_sigma2"):
            if key in raw:
                setattr(cfg, key, _as_float(raw.pop(key), key))
        _require(cfg.bimodal_sigma1 > 0 and cfg.bimodal_sigma2 > 0,
                 "bimodal sigmas must be positive")

        if "lr" in raw:
            cfg.lr = _check_lr(raw.pop("lr"), "lr")
        if "parent_lr" in raw:
            cfg.parent_lr = _check_lr(raw.pop("parent_lr"), "parent_lr")
        if "optimizer" in raw:
            cfg.optimizer = _check_optimizer(raw.pop("optimizer"))
        if "ensemble" in raw:
            cfg.ensemble = _check_ensemble(raw.pop("ensemble"))
        if "blobs" in raw:
            cfg.blobs = _check_blobs(raw.pop("blobs"))
        for key in ("out_dir", "weights", "mask"):
            if key in raw:
                value = raw.pop(key)
                _require(value is None or isinstance(value, str),
                         f"{key} must be a string path")
                setattr(cfg, key, value)
        if "deterministic" in raw:
            cfg.deterministic = _as_bool(raw.pop("deterministic"),
                                         "deterministic")

        # desk-scale default: a 10k training subset keeps CIFAR runs inside
        # the acceptance runtime budget; pass train_subset: 0 for the full set
        if cfg.dataset == "cifar10-subset" and not had_train_subset:
            cfg.train_subset = 10000
        _require(not raw, f"unconsumed config keys: {sorted(raw)}")
        if cfg.task == "eval":
            _require(cfg.weights is not None, "eval task requires 'weights'")
        if cfg.task == "ensemble":
            _check_ensemble_task(cfg)
        if cfg.task in ("prune-tune", "ablate", "ensemble"):
            _check_phi_within_epochs(cfg)
        return cfg

    def run_seeds(self) -> list:
        if self.seeds is not None:
            return list(self.seeds)
        return [self.seed + i for i in range(self.repeats)]

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
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: invalid JSON ({err})") from err
        return cls.from_dict(raw)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")
