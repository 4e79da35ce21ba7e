"""Experiment execution: datasets in, metric CSVs and manifests out.

A run executes one task from a validated config. Metric files are plain CSV
with a fixed column set; the manifest (written atomically at the end) records
the config, its hash, the seeds, every metric file produced, wall-clock time,
peak resident memory (``peak_rss_mb``), the BLAS thread count, the malloc
settings ``run`` applied to the process, and the library version. Re-running
the same config in deterministic mode reproduces the metric files byte for
byte; wall clock and memory live only in the manifest so they never break
that contract.
"""

from __future__ import annotations

import csv
import ctypes
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

import numpy as np

from . import __version__
from .annealing import (
    FixedMaskController,
    IterativeController,
    RandomAnnealConfig,
    TemperatureConfig,
    random_anneal_controller,
    temperature_controller,
    tune,
)
from .config import ExperimentConfig
from .data import (
    NormalizedRows,
    load_dataset,
    normalization_stats,
    normalize,
)
from .ensemble import (
    corrupt,
    score_ensemble,
    spawn_children,
    train_parent,
    tune_children,
)
from .masks import load_mask_set, load_weights, save_mask_set, save_weights
from .metrics import evaluate
from .models import build_model
from .nn.optim import make_optimizer
from .nn.schedules import (
    Constant,
    OneCycle,
    StepDecay,
    lr_at,
    parent_stepwise,
)
from .pruning import PruneSpec, magnitude_mask, random_mask
from .rng import substream
from .training import DivergenceError, predict_logits, softmax

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("epoch", "train_loss", "test_acc", "test_nll", "test_ece",
                   "realized_sparsity", "lr", "mean_active_fraction")

SUMMARY_COLUMNS = ("method", "selector", "lr_schedule", "rho", "mean_acc",
                   "std_acc", "mean_nll", "mean_ece", "epochs", "seed_count",
                   "phi", "tau0", "best_in_method")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in METRICS_COLUMNS])


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, value in raw.items():
                if value == "" or value is None:
                    row[key] = None
                elif key == "epoch":
                    row[key] = int(value)
                else:
                    row[key] = float(value)
            rows.append(row)
    return rows


def write_json_atomic(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


# --- process settings: BLAS threads and the allocator ---------------------------

# OpenBLAS names its thread-count functions
# ``<prefix>_{set,get}_num_threads<suffix>``: prefix "scipy_openblas" in the
# builds numpy wheels ship, suffix "64_" in builds with 64-bit integers.
OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
OPENBLAS_SUFFIXES = ("64_", "")

# glibc malloc settings ``run`` applies to its process, by mallopt parameter
# (malloc.h). Freed memory up to 256 MB stays at the top of the heap, and
# every allocation under 64 MB comes from the heap, so batch, activation and
# gradient arrays reuse memory instead of being returned to the kernel and
# faulted back in on every step. Fixing the mmap threshold also stops glibc
# from moving it with whatever large block was freed last.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 256 << 20),
                   "M_MMAP_THRESHOLD": (-3, 64 << 20)}


def _blas_thread_functions():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS library this
    process has loaded (numpy's), found through the process's memory map;
    None when there is none or it exports no such pair."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:  # no /proc: not Linux
        return None
    paths = sorted({fields[5] for fields in
                    (line.split(maxsplit=5) for line in maps.splitlines())
                    if len(fields) == 6
                    and "openblas" in Path(fields[5]).name})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in OPENBLAS_PREFIXES:
            for suffix in OPENBLAS_SUFFIXES:
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}",
                                 None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = (ctypes.c_int,), None
                    getter.argtypes, getter.restype = (), ctypes.c_int
                    return setter, getter
    return None


def limit_blas_threads(n: int) -> None:
    """Cap the BLAS pool at ``n`` threads through OpenBLAS's own setter; one
    thread makes trajectories bit-reproducible. Without a setter this logs
    an error and leaves the count unchanged."""
    functions = _blas_thread_functions()
    if functions is None:
        log.error("no OpenBLAS thread setter found: BLAS thread count "
                  "unchanged, so results may not be bit-reproducible")
        return
    functions[0](n)


def blas_threads() -> int | None:
    """The BLAS pool's thread count, or None when no OpenBLAS is found."""
    functions = _blas_thread_functions()
    return None if functions is None else int(functions[1]())


def tune_allocator() -> dict | None:
    """Apply ``MALLOC_SETTINGS`` to this process's malloc; returns the
    settings glibc accepted, by name, or None when libc is not glibc."""
    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {}
    for name, (param, value) in MALLOC_SETTINGS.items():
        if mallopt(param, value) == 1:
            applied[name] = value
        else:
            log.warning("glibc rejected mallopt %s=%d", name, value)
    return applied


# --- data and model assembly -------------------------------------------------

class RunData:
    """Train/test model inputs plus the raw test set for corruption.

    The loaders apply ``train_subset``/``test_subset`` and return uint8
    pixels (float features for blobs). Both ``x_train`` and ``x_test``
    keep those pixels and normalize the rows asked for as they are sliced
    (``NormalizedRows``), so no float copy of either split is held;
    ``x_test_raw`` is the test pixels. Model inputs are cast to the
    config's dtype, so a float32 network sees float32 batches and its
    logits and gradients stay float32.
    """

    def __init__(self, cfg: ExperimentConfig):
        blobs = cfg.blobs
        if cfg.dataset == "synthetic-blobs":
            train = load_dataset("synthetic-blobs", "train",
                                 limit=cfg.train_subset, n=blobs["n"],
                                 d=blobs["d"], k=blobs["k"],
                                 separation=blobs["separation"],
                                 data_seed=blobs["data_seed"])
            test = load_dataset("synthetic-blobs", "test",
                                limit=cfg.test_subset,
                                n=max(blobs["n"] // 4, blobs["k"]),
                                d=blobs["d"], k=blobs["k"],
                                separation=blobs["separation"],
                                data_seed=blobs["data_seed"])
        else:
            train = load_dataset(cfg.dataset, "train", limit=cfg.train_subset)
            test = load_dataset(cfg.dataset, "test", limit=cfg.test_subset)
        self.num_classes = train.num_classes
        self.input_shape = tuple(train.x.shape[1:])
        self.dtype = _dtype(cfg)
        self.mean, self.std = normalization_stats(train.x)
        self.x_train = NormalizedRows(train.x, self.mean, self.std,
                                      self.dtype)
        self.y_train = train.y
        self.x_test = NormalizedRows(test.x, self.mean, self.std, self.dtype)
        self.y_test = test.y
        self.x_test_raw = test.x

    def corrupted(self, severity: int, seed: int) -> np.ndarray:
        """Normalized model inputs of the test set corrupted at
        ``severity``, built from the test pixels and normalized in the one
        array ``corrupt`` returns. Pass it straight to the scoring call, so
        it is freed before the next severity's is built."""
        xc = corrupt(self.x_test_raw, severity,
                     substream(seed, "corrupt", severity))
        return normalize(xc, self.mean, self.std, out=xc).astype(
            self.dtype, copy=False)


def _dtype(cfg: ExperimentConfig):
    return np.float64 if cfg.dtype == "float64" else np.float32


def build_net(cfg: ExperimentConfig, data: RunData, seed: int):
    return build_model(cfg.model, data.input_shape, data.num_classes,
                       substream(seed, "init"), dtype=_dtype(cfg))


def build_training(cfg: ExperimentConfig, desc: dict, epochs: int,
                   n_train: int):
    """The schedule an ``lr``/``parent_lr`` entry describes for ``epochs`` of
    training on ``n_train`` examples, and a fresh optimizer to go with it.

    The optimizer's own rate only has to be valid: ``run_epoch`` passes the
    scheduled rate on every step.
    """
    steps_per_epoch = -(-n_train // cfg.batch_size)
    kind = desc["kind"]
    if kind == "constant":
        schedule = Constant(desc["value"])
    elif kind == "onecycle":
        schedule = OneCycle(desc["start"], desc["max"], desc["end"],
                            desc["warmup_fraction"],
                            max(epochs * steps_per_epoch, 1))
    elif kind == "step":
        schedule = StepDecay(tuple((e, v) for e, v in desc["breakpoints"]))
    else:
        schedule = parent_stepwise(epochs, desc["hi"], desc["lo"])
    opt = cfg.optimizer
    optimizer = make_optimizer(
        opt["kind"], lr_at(schedule, 0), momentum=opt["momentum"],
        nesterov=opt["nesterov"], weight_decay=opt["weight_decay"],
        beta1=opt["beta1"], beta2=opt["beta2"], eps=opt["eps"])
    return schedule, optimizer


# --- parents ------------------------------------------------------------------

def parent_cache_key(cfg: ExperimentConfig, seed: int) -> str:
    import hashlib

    relevant = {
        "dataset": cfg.dataset, "model": cfg.model,
        "parent_epochs": cfg.parent_epochs, "parent_lr": cfg.parent_lr,
        "optimizer": cfg.optimizer, "batch_size": cfg.batch_size,
        "train_subset": cfg.train_subset, "blobs": cfg.blobs,
        "dtype": cfg.dtype, "seed": seed, "version": __version__,
    }
    canon = json.dumps(relevant, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_params(net, path) -> None:
    """Set ``net``'s parameters from a weights container; ``set_param``
    casts each to the network's dtype."""
    for name, value in load_weights(path).items():
        net.set_param(name, value)


def get_parent(cfg: ExperimentConfig, data: RunData, seed: int, out_dir: Path):
    """Train the parent for this seed, or reload it from the run cache."""
    key = parent_cache_key(cfg, seed)
    path = out_dir / "parents" / f"parent-{key}-s{seed}.ssam"
    net = build_net(cfg, data, seed)
    if path.exists():
        load_params(net, path)
        return net, path
    schedule, optimizer = build_training(cfg, cfg.parent_lr, cfg.parent_epochs,
                                         len(data.y_train))
    train_parent(net, (data.x_train, data.y_train), cfg.parent_epochs,
                 optimizer, schedule, cfg.batch_size,
                 substream(seed, "shuffle", "parent"))
    path.parent.mkdir(parents=True, exist_ok=True)
    # write then rename, so a killed write never leaves a truncated cache entry
    tmp = path.with_suffix(path.suffix + ".tmp")
    save_weights(net.params(), tmp)
    os.replace(tmp, path)
    return net, path


# --- single method cell --------------------------------------------------------

def make_controller(method: str, cfg: ExperimentConfig, parent, seed: int,
                    rho: float, phi: int, tau0: float):
    """The subnetwork controller for one (method, rho, phi, tau0) cell.

    One-shot and temperature annealing draw the target mask from the same
    named stream, so paired-seed comparisons share identical targets.
    """
    child = parent.clone()
    weights = child.weights()
    spec = PruneSpec(cfg.selector, rho, cfg.granularity)
    mask_rng = substream(seed, "mask")
    if method in ("oneshot", "temperature-anneal"):
        target = (random_mask(child.weight_shapes(), spec, mask_rng)
                  if cfg.selector == "random" else magnitude_mask(weights, spec))
        if method == "oneshot":
            return child, FixedMaskController(target)
        tau_cfg = TemperatureConfig(tau0=tau0, variant=cfg.variant,
                                    decay=cfg.decay_for(method),
                                    anneal_epochs=phi)
        return child, temperature_controller(target, tau_cfg)
    if method == "iterative":
        return child, IterativeController(spec, max(phi, 1), weights, mask_rng)
    if method == "random-anneal":
        rand_cfg = RandomAnnealConfig(
            rho=rho, anneal_epochs=phi, distribution=cfg.distribution,
            decay=cfg.decay_for(method), mu1=cfg.bimodal_mu1,
            sigma1=cfg.bimodal_sigma1, mu2=cfg.bimodal_mu2,
            sigma2=cfg.bimodal_sigma2)
        return child, random_anneal_controller(child.weight_shapes(), rand_cfg,
                                               mask_rng)
    raise ValueError(f"unknown method {method!r}")


def run_cell(cfg: ExperimentConfig, data: RunData, parent, seed: int,
             method: str, rho: float, phi: int, tau0: float):
    """Tune one child network; returns its per-epoch rows."""
    child, controller = make_controller(method, cfg, parent, seed, rho, phi,
                                        tau0)
    schedule, optimizer = build_training(cfg, cfg.lr, cfg.epochs,
                                         len(data.y_train))
    rows = tune(child, controller, (data.x_train, data.y_train), cfg.epochs,
                schedule, optimizer, cfg.batch_size,
                rng_shuffle=substream(seed, "shuffle", "child"),
                rng_mask=substream(seed, "bernoulli"),
                eval_data=(data.x_test, data.y_test), eval_mode=cfg.eval_mask)
    return child, rows


def _cell_slug(method: str, rho: float, phi: int, tau0: float) -> str:
    base = f"{method}-rho{rho}-phi{phi}"
    if method == "temperature-anneal":
        base += f"-tau{tau0}"
    return base.replace(".", "p")


def _cell_grid(cfg: ExperimentConfig):
    cells = []
    for method in cfg.method:
        for rho in cfg.rho:
            phis = cfg.phi if method != "oneshot" else [0]
            for phi in phis:
                taus = cfg.tau0 if method == "temperature-anneal" else [0.0]
                for tau0 in taus:
                    cells.append((method, rho, phi, tau0))
    return cells


# --- tasks ---------------------------------------------------------------------

def run(cfg: ExperimentConfig) -> Path:
    """Execute the config; returns the manifest path.

    The process's malloc keeps ``MALLOC_SETTINGS`` afterwards (on glibc);
    with ``cfg.deterministic`` its BLAS pool keeps one thread. Failures
    are recorded in the manifest (status: failed) and re-raised so callers
    can exit nonzero.
    """
    allocator = tune_allocator()
    if cfg.deterministic:
        limit_blas_threads(1)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    started = time.perf_counter()
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seeds": cfg.run_seeds(),
        "status": "running",
        "allocator": allocator,
        "blas_threads": blas_threads(),
        "cells": [],
        "metrics_files": [],
    }
    try:
        data = RunData(cfg)
        if cfg.task == "train-parent":
            _task_train_parent(cfg, data, out_dir, manifest)
        elif cfg.task == "prune-tune" or cfg.task == "ablate":
            _task_sweep(cfg, data, out_dir, manifest)
        elif cfg.task == "ensemble":
            _task_ensemble(cfg, data, out_dir, manifest)
        elif cfg.task == "eval":
            _task_eval(cfg, data, out_dir, manifest)
        manifest["status"] = "ok"
    except Exception as err:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(err).__name__}: {err}"
        _finish_manifest(manifest, started)
        write_json_atomic(manifest_path, manifest)
        raise
    _finish_manifest(manifest, started)
    write_json_atomic(manifest_path, manifest)
    return manifest_path


def _finish_manifest(manifest: dict, started: float) -> None:
    """Wall clock and, where the platform reports it, the process's peak
    resident memory so far (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    manifest["wall_clock_s"] = time.perf_counter() - started
    if resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak /= 1024.0
        manifest["peak_rss_mb"] = peak / 1024.0


def _task_train_parent(cfg, data, out_dir, manifest):
    for seed in cfg.run_seeds():
        net = build_net(cfg, data, seed)
        schedule, optimizer = build_training(cfg, cfg.parent_lr,
                                             cfg.parent_epochs, len(data.y_train))
        rows = train_parent(net, (data.x_train, data.y_train),
                            cfg.parent_epochs, optimizer, schedule,
                            cfg.batch_size, substream(seed, "shuffle", "parent"),
                            eval_data=(data.x_test, data.y_test))
        csv_path = out_dir / "metrics" / f"parent-s{seed}.csv"
        write_metrics_csv(csv_path, rows)
        weights_path = out_dir / f"parent-s{seed}.weights.ssam"
        save_weights(net.params(), weights_path)
        manifest["metrics_files"].append(str(csv_path.relative_to(out_dir)))
        manifest["cells"].append({
            "method": "parent", "selector": "-", "lr_schedule":
                cfg.parent_lr["kind"], "rho": 0.0, "phi": 0, "tau0": 0.0,
            "epochs": cfg.parent_epochs, "seed": seed,
            "metrics": str(csv_path.relative_to(out_dir)),
            "weights": str(weights_path.relative_to(out_dir)),
        })


def _task_sweep(cfg, data, out_dir, manifest):
    cells = _cell_grid(cfg)
    for seed in cfg.run_seeds():
        parent, parent_path = get_parent(cfg, data, seed, out_dir)
        for method, rho, phi, tau0 in cells:
            child, rows = run_cell(cfg, data, parent, seed, method, rho, phi,
                                   tau0)
            slug = _cell_slug(method, rho, phi, tau0)
            csv_path = out_dir / "metrics" / f"{slug}-s{seed}.csv"
            write_metrics_csv(csv_path, rows)
            manifest["metrics_files"].append(str(csv_path.relative_to(out_dir)))
            manifest["cells"].append({
                "method": method, "selector": cfg.selector,
                "lr_schedule": cfg.lr["kind"], "rho": rho, "phi": phi,
                "tau0": tau0, "epochs": cfg.epochs, "seed": seed,
                "metrics": str(csv_path.relative_to(out_dir)),
                "parent": str(parent_path.relative_to(out_dir)),
            })
    if cfg.task == "ablate":
        rows = summarize_manifests([out_dir / "manifest.json"],
                                   manifest_payloads=[manifest],
                                   base_dirs=[out_dir])
        write_summary_csv(out_dir / "summary.csv", rows)


def _task_ensemble(cfg, data, out_dir, manifest):
    """Parent (shared cache), spawned children, anneal-tuning, then scoring
    on the clean test set and on each corruption severity in turn."""
    ens = cfg.ensemble
    rho, phi, tau0 = cfg.rho[0], cfg.phi[0], cfg.tau0[0]
    tau_cfg = TemperatureConfig(tau0=tau0, variant=cfg.variant,
                                decay=cfg.decay_for("temperature-anneal"),
                                anneal_epochs=phi)
    train_data = (data.x_train, data.y_train)
    for seed in cfg.run_seeds():
        started = time.perf_counter()
        parent, parent_path = get_parent(cfg, data, seed, out_dir)
        children = spawn_children(parent, ens["n_members"], rho,
                                  ens["partitioning"], substream(seed, "mask"),
                                  cfg.granularity)
        members, member_rows, failures = tune_children(
            children, tau_cfg, ens["partitioning"], train_data, cfg.epochs,
            lambda: build_training(cfg, cfg.lr, cfg.epochs, len(data.y_train)),
            cfg.batch_size, seed)
        if not members:
            raise DivergenceError("every ensemble member diverged")
        nets = [net for net, _ in members]
        extra = parent if ens["include_parent"] else None
        member_records, ensemble_record = score_ensemble(
            nets, extra, data.x_test, data.y_test)
        for rec, (_, mask) in zip(member_records, members):
            rec.realized_sparsity = mask.sparsity()
        corrupted = {}
        for severity in ens["corruption_severities"]:
            recs, ens_rec = score_ensemble(
                nets, extra, data.corrupted(severity, seed), data.y_test)
            corrupted[str(severity)] = {
                "ensemble": ens_rec.to_dict(),
                "members": [r.to_dict() for r in recs],
            }
        wall = time.perf_counter() - started
        seed_dir = out_dir / f"seed-{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        for i, ((net, mask), rows) in enumerate(zip(members, member_rows)):
            save_weights(net.params(), seed_dir / f"member-{i}.weights.ssam")
            save_mask_set(mask, seed_dir / f"member-{i}.mask.ssam")
            write_metrics_csv(seed_dir / f"member-{i}.csv", rows)
        member_mean_acc = float(np.mean([r.accuracy for r in member_records]))
        summary = {
            "config": cfg.to_dict(),
            "seed": seed,
            "members": [rec.to_dict() for rec in member_records],
            "member_mean_accuracy": member_mean_acc,
            "ensemble_minus_mean_member":
                ensemble_record.accuracy - member_mean_acc,
            "ensemble": ensemble_record.to_dict(),
            "corrupted": corrupted,
            "failures": failures,
            "wall_clock_s": wall,
        }
        summary_path = seed_dir / "ensemble-summary.json"
        write_json_atomic(summary_path, summary)
        manifest["metrics_files"].append(str(summary_path.relative_to(out_dir)))
        manifest["cells"].append({
            "method": "ensemble", "selector": cfg.selector,
            "lr_schedule": cfg.lr["kind"], "rho": rho, "phi": phi,
            "tau0": tau0, "epochs": cfg.epochs, "seed": seed,
            "metrics": str(summary_path.relative_to(out_dir)),
            "parent": str(parent_path.relative_to(out_dir)),
        })


def _task_eval(cfg, data, out_dir, manifest):
    net = build_net(cfg, data, cfg.seed)
    load_params(net, cfg.weights)
    mask = load_mask_set(cfg.mask) if cfg.mask else None
    logits = predict_logits(net, data.x_test, mask=mask)
    record = evaluate(softmax(logits), data.y_test)
    payload = {"config": cfg.to_dict(), "clean": record.to_dict(),
               "corrupted": {}}
    for severity in cfg.ensemble["corruption_severities"]:
        logits = predict_logits(net, data.corrupted(severity, cfg.seed),
                                mask=mask)
        rec = evaluate(softmax(logits), data.y_test)
        payload["corrupted"][str(severity)] = rec.to_dict()
    eval_path = out_dir / "eval.json"
    write_json_atomic(eval_path, payload)
    manifest["metrics_files"].append(str(eval_path.relative_to(out_dir)))


# --- summaries -------------------------------------------------------------------

def summarize_manifests(manifest_paths, manifest_payloads=None,
                        base_dirs=None) -> list:
    """Aggregate final-epoch metrics per cell across repeats.

    Accuracy std is the sample standard deviation (n-1), zero for a single
    repeat. The best mean accuracy within each (method, selector,
    lr_schedule, rho) group gets best_in_method = 1, so the best-over-
    hyperparameters reading of the table stays recoverable.
    """
    if manifest_payloads is None:
        manifest_payloads = []
        base_dirs = []
        for path in manifest_paths:
            path = Path(path)
            manifest_payloads.append(json.loads(path.read_text()))
            base_dirs.append(path.parent)

    datasets = {m["config"]["dataset"] for m in manifest_payloads}
    if len(datasets) > 1:
        raise ValueError(f"cannot summarize mixed datasets: {sorted(datasets)}")

    groups = {}
    for payload, base in zip(manifest_payloads, base_dirs):
        for cell in payload["cells"]:
            if cell["method"] in ("parent", "ensemble"):
                continue
            key = (cell["method"], cell["selector"], cell["lr_schedule"],
                   cell["rho"], cell["phi"], cell["tau0"], cell["epochs"])
            rows = read_metrics_csv(Path(base) / cell["metrics"])
            final = rows[-1]
            groups.setdefault(key, []).append(final)

    out = []
    for key, finals in sorted(groups.items()):
        method, selector, lr_schedule, rho, phi, tau0, epochs = key
        accs = [f["test_acc"] for f in finals]
        nlls = [f["test_nll"] for f in finals]
        eces = [f["test_ece"] for f in finals]
        out.append({
            "method": method, "selector": selector,
            "lr_schedule": lr_schedule, "rho": rho,
            "mean_acc": float(np.mean(accs)),
            "std_acc": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
            "mean_nll": float(np.mean(nlls)),
            "mean_ece": float(np.mean(eces)),
            "epochs": epochs, "seed_count": len(accs),
            "phi": phi, "tau0": tau0, "best_in_method": 0,
        })
    best = {}
    for i, row in enumerate(out):
        key = (row["method"], row["selector"], row["lr_schedule"], row["rho"])
        if key not in best or out[best[key]]["mean_acc"] < row["mean_acc"]:
            best[key] = i
    for i in best.values():
        out[i]["best_in_method"] = 1
    return out


def write_summary_csv(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in SUMMARY_COLUMNS])


def summarize_dir(directory) -> Path:
    """Summarize every manifest below ``directory`` into summary.csv."""
    directory = Path(directory)
    manifests = sorted(directory.glob("**/manifest.json"))
    if not manifests:
        raise FileNotFoundError(f"no manifest.json under {directory}")
    rows = summarize_manifests(manifests)
    out = directory / "summary.csv"
    write_summary_csv(out, rows)
    return out
